"""Independent checks of every answer, run outside the timed region.

Each check rebuilds the expected answer by a different route than the
request took and returns None when the output agrees, or a one-line
reason when it does not:

- theta cells and tables: ``theta_convolution``, with the t=0 and t=1
  endpoints checked against ``elementary_symmetric`` and
  ``complete_homogeneous``;
- ``--algo oracle``: ``theta_product``;
- pmf and moments: the normalised convolution polynomial and
  ``pmf_moments`` of it;
- limits: the block-count regimes from the convolution polynomial, the
  others by the properties the limits suite asserts (strictly decreasing
  distances on the default grid, and its final-distance caps);
- verify: exit 0 with every row PASS;
- ``s_infinity_2_pmf``: agreement with ``s_infinity_2_exact`` within the
  error bound it returns.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from ztt import distributions as dist
from ztt import theta
from ztt.weights import CustomWeights, LinearWeights, OnesWeights, ZetaWeights

# final-distance caps of the limits verify suite
_FINAL_BELOW = {"normal_multiset": 0.05, "dn_zeta1": 0.01, "geometric_marginal": 0.05}
_DN = {"dn_zeta1": (5, 1), "dn_zeta2": (20, 2)}


def _flag(args, name, default=None):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return default


def _range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def _fracs(text: str) -> list[Fraction]:
    inner = text.strip()[1:-1]
    return [Fraction(v) for v in inner.split(", ")] if inner else []


def parse_rows(stdout: str, fmt: str) -> list[dict]:
    """Rows of a table, json or csv rendering as dicts of strings."""
    if fmt == "json":
        return json.loads(stdout)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    lines = stdout.splitlines()
    cols = lines[0].split()
    return [dict(zip(cols, line.split(None, len(cols) - 1))) for line in lines[1:]]


class Checker:
    """Holds reference results shared by requests for the same cells."""

    def __init__(self):
        self._seqs: dict = {}
        self._conv: dict = {}
        self._ends: dict = {}
        self._sinf: dict = {}

    def seq(self, spec: str):
        if spec not in self._seqs:
            if spec.endswith(".json"):
                with open(spec, encoding="utf-8") as fh:
                    values = json.load(fh)["values"]
                self._seqs[spec] = CustomWeights(tuple(Fraction(v) for v in values))
            elif spec.startswith("zeta:"):
                self._seqs[spec] = ZetaWeights(int(spec[5:]))
            else:
                self._seqs[spec] = {"ones": OnesWeights(),
                                    "linear": LinearWeights()}[spec]
        return self._seqs[spec]

    def ends(self, spec: str, n: int, k: int) -> tuple:
        """(e_k, h_k): theta at t=0 and at t=1."""
        key = (spec, n, k)
        if key not in self._ends:
            seq = self.seq(spec)
            self._ends[key] = (theta.elementary_symmetric(seq, n, k)[k],
                               theta.complete_homogeneous(seq, n, k)[k])
        return self._ends[key]

    def conv(self, spec: str, n: int, k: int):
        key = (spec, n, k)
        if key not in self._conv:
            self._conv[key] = theta.theta_convolution(self.seq(spec), n, k).poly
        return self._conv[key]

    def law(self, spec: str, n: int, k: int):
        return dist.pmf_from_masses(0, self.conv(spec, n, k).coeffs)

    # -- per request type -------------------------------------------------

    def check(self, rec: dict) -> str | None:
        if rec.get("error"):
            return rec["error"]
        if rec["rc"] != 0:
            return f"exit {rec['rc']}: {rec['stderr'].strip()[:200]}"
        handler = getattr(self, "_" + rec["label"])
        try:
            return handler(rec["args"], rec["stdout"])
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            return f"unparsable output ({type(exc).__name__}: {exc})"

    def _theta_rows(self, args, stdout, want_algos, reference):
        spec = _flag(args, "--weights", "ones")
        ts = [Fraction(t) for i, t in enumerate(args) if i and args[i - 1] == "--t"]
        rows = parse_rows(stdout, "table")
        cells = [(n, k) for n in _range(_flag(args, "--n")) for k in _range(_flag(args, "--k"))]
        if len(rows) != len(cells) * len(want_algos):
            return f"{len(rows)} rows for {len(cells)} cells"
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            ref = reference(spec, n, k)
            if row["algo"] not in want_algos:
                return f"unexpected algo {row['algo']}"
            if row.get("agree", "yes") != "yes":
                return f"algorithms disagree at n={n} k={k}"
            if ts:
                got, ends = _fracs(row["values"]), (ref(Fraction(0)), ref(Fraction(1)))
                want = [ref(t) for t in ts]
            else:
                got = _fracs(row["coefficients"])
                want, ends = list(ref.coeffs), (got[0], sum(got))
            if got != want:
                return f"output off at n={n} k={k}"
            if ends != self.ends(spec, n, k):
                return f"endpoints off at n={n} k={k}"
        return None

    def _theta(self, args, stdout):
        return self._theta_rows(args, stdout, ("newton",), self.conv)

    def _all(self, args, stdout):
        return self._theta_rows(args, stdout, tuple(theta.ALGORITHMS), self.conv)

    def _oracle(self, args, stdout):
        def product(spec, n, k):
            return theta.theta_product(self.seq(spec), n, k).poly
        return self._theta_rows(args, stdout, ("oracle",), product)

    def _theta_table(self, args, stdout):
        spec = _flag(args, "--weights", "ones")
        got: dict = {}
        for row in parse_rows(stdout, "csv"):
            cell = got.setdefault((int(row["n"]), int(row["k"])), [])
            if int(row["coeff_index"]) != len(cell):
                return f"coefficient index gap at {row}"
            cell.append(Fraction(row["value"]))
        cells = [(n, k) for n in _range(_flag(args, "--n")) for k in _range(_flag(args, "--k"))]
        if sorted(got) != sorted(cells):
            return "cells missing or extra"
        for (n, k), coeffs in got.items():
            if coeffs != list(self.conv(spec, n, k).coeffs):
                return f"coefficients off at n={n} k={k}"
        return None

    def _pmf(self, args, stdout):
        spec = _flag(args, "--weights", "ones")
        prec = int(_flag(args, "--precision", "12"))
        rows = parse_rows(stdout, _flag(args, "--format", "table"))
        want = []
        for n in _range(_flag(args, "--n")):
            for k in _range(_flag(args, "--k")):
                want.extend((n, k, j, p) for j, p in self.law(spec, n, k).items())
        if len(rows) != len(want):
            return f"{len(rows)} rows, expected {len(want)}"
        for row, (n, k, j, p) in zip(rows, want):
            if (int(row["n"]), int(row["k"]), int(row["j"])) != (n, k, j):
                return f"row order off at n={n} k={k} j={j}"
            if Fraction(row["probability"]) != p:
                return f"probability off at n={n} k={k} j={j}"
            if row["approx"] != f"{float(p):.{prec}f}":
                return f"approx off at n={n} k={k} j={j}"
        return None

    def _moments(self, args, stdout):
        spec = _flag(args, "--weights", "ones")
        smax = int(_flag(args, "--smax", "2"))
        rows = parse_rows(stdout, _flag(args, "--format", "table"))
        cells = [(n, k) for n in _range(_flag(args, "--n")) for k in _range(_flag(args, "--k"))]
        if len(rows) != len(cells):
            return f"{len(rows)} rows for {len(cells)} cells"
        for row, (n, k) in zip(rows, cells):
            rep = dist.pmf_moments(self.law(spec, n, k), smax)
            got = [Fraction(row["mean"]), Fraction(row["variance"])]
            got += [Fraction(row[f"fm{s}"]) for s in range(1, smax + 1)]
            if got != [rep.mean, rep.variance, *rep.factorial_moments]:
                return f"moments off at n={n} k={k}"
        return None

    def _limits(self, args, stdout):
        regime = _flag(args, "--regime")
        rows = parse_rows(stdout, "table")
        grid = dist.DEFAULT_GRIDS[regime]
        if [r["regime"] for r in rows] != [regime] * len(grid):
            return "regime rows off"
        distances = [float(r["distance"]) for r in rows]
        if any(not b < a for a, b in zip(distances, distances[1:])):
            return f"distances not strictly decreasing: {distances}"
        if regime in _FINAL_BELOW and not distances[-1] < _FINAL_BELOW[regime]:
            return f"final distance {distances[-1]} too large"
        if regime in _DN:
            n, exponent = _DN[regime]
            for row, k in zip(rows, grid):
                blocks = dist.reflected_pmf(self.law(f"zeta:{exponent}", n, k), k)
                mean = float(dist.pmf_moments(blocks, 1).mean)
                tv = dist.tv_distance(blocks, dist.d_n_pmf(n, exponent))
                if (row["param"], row["value"], row["distance"]) != (
                        f"n={n},k={k}", f"{mean:.12f}", f"{tv:.12f}"):
                    return f"row off at k={k}"
        return None

    def _verify(self, args, stdout):
        lines = stdout.splitlines()
        if not lines or any(not line.startswith("PASS  ") for line in lines[:-1]):
            return "a check did not pass"
        total = len(lines) - 1
        if lines[-1] != f"{total}/{total} checks passed":
            return f"summary line off: {lines[-1]!r}"
        return None

    def _s_infinity_2_pmf(self, args, stdout):
        k = args[0]
        if k not in self._sinf:
            self._sinf[k] = dist.s_infinity_2_exact(k)
        exact = self._sinf[k]
        got = json.loads(stdout)
        probs = [float(p) for p in got["probs"]]
        bound = float(got["error_bound"])
        if got["offset"] != 0 or len(probs) != k or not math.isfinite(bound):
            return "support or bound malformed"
        for j, p in enumerate(probs):
            if abs(p - float(exact.mass(j))) > bound:
                return f"mass {j} off by more than the bound {bound}"
        return None
