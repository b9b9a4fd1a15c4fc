"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of blocks.  Block ``b`` of workload ``w``
under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{b}")`` alone, so
any block can be rebuilt without the ones before it, and the same seed
always gives the same requests.  Each block is a stratified design: every
weight family, size stratum and request type appears a fixed number of
times, and the seed only jitters sizes inside their strata, draws the
custom weights and the ``--t`` requests, and shuffles the order.  That keeps the cost of a block
nearly the same from seed to seed, so run-to-run spread comes from the
machine rather than from the mix.

The program receives only inputs: argv lists for ``ztt.cli.main`` and the
custom-weight JSON files written here, plus ``(k, n_trunc)`` pairs for the
direct ``s_infinity_2_pmf`` calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("theta_single", "laws_ranges", "selfcheck")

BUILTIN_FAMILIES = ("ones", "linear", "zeta:1", "zeta:2")
CUSTOM_SIZE = 60  # distinct p/q values with p, q <= 50

# limits regimes replayed with their default grid; dn_zeta2 alone takes
# about 4 s, longer than a whole block, so it is left out
LIMIT_REGIMES = ("beta_marginal", "dn_zeta1", "geometric_marginal",
                 "normal_multiset", "poisson_multiset", "sum_theorem_negbin")

SINF_KS = (3, 4, 5, 6)
SINF_TRUNCS = (1000, 2000, 5000)


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv, or a direct ``s_infinity_2_pmf`` call.

    ``label`` names the request type for reports; ``args`` holds the argv
    strings for CLI requests and ``(k, n_trunc)`` for direct calls.
    """

    label: str
    args: tuple

    @property
    def is_cli(self) -> bool:
        return self.label != "s_infinity_2_pmf"


def custom_values(rng: random.Random) -> list[Fraction]:
    """CUSTOM_SIZE distinct positive rationals p/q with p, q in 1..50."""
    seen: set[Fraction] = set()
    out = []
    while len(out) < CUSTOM_SIZE:
        v = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def write_custom(path: str, values) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "custom", "values": [str(v) for v in values]}, fh)
    return path


def _families(rng: random.Random, workdir: str, tag: str) -> list[str]:
    path = os.path.join(workdir, f"custom-{tag}.json")
    write_custom(path, custom_values(rng))
    return list(BUILTIN_FAMILIES) + [path]


def _stratum(rng: random.Random, lo: int, hi: int, count: int, index: int) -> int:
    """An integer from stratum ``index`` of ``count`` equal strata of lo..hi."""
    return lo + int((index % count + rng.random()) * (hi - lo + 1) / count)


# Sizes decide the cost of exact arithmetic, so each size comes from a fixed
# stratum that the seed only jitters within.  Strata are paired through
# multipliers coprime to their count, so each family meets every part of
# every range.


def _theta_single(rng, families):
    reqs = []
    for f, fam in enumerate(families):
        for j, k in enumerate(range(2, 25)):
            n = _stratum(rng, 5, 60, 23, 7 * j + 5 * f)
            reqs.append(["theta", "--weights", fam, "--n", str(n), "--k", str(k)])
    # exactly 30% of the block evaluates at two points instead of
    # printing coefficients
    for i in rng.sample(range(len(reqs)), round(0.3 * len(reqs))):
        reqs[i] += ["--t", "1/2", "--t", "3"]
    return [Request("theta", tuple(r)) for r in reqs]


def _range(lo: int, width: int) -> str:
    return str(lo) if width == 0 else f"{lo}..{lo + width}"


def _laws_ranges(rng, families):
    reqs = []
    for f, fam in enumerate(families):
        for c, (cmd, (k_lo, k_hi)) in enumerate(
                [(cmd, band) for cmd in ("pmf", "moments")
                 for band in ((2, 8), (9, 14))]):
            i = 4 * f + c
            argv = [cmd, "--weights", fam,
                    "--n", _range(_stratum(rng, 2, 30, 20, 7 * i), i % 5),
                    "--k", _range(_stratum(rng, k_lo, k_hi, 10, 3 * i), (2 * i + f) % 5),
                    "--format", ("table", "json", "csv")[i % 3]]
            if cmd == "moments":
                argv += ["--smax", str(1 + (f + c) % 4)]
            reqs.append(Request(cmd, tuple(argv)))
        reqs.append(Request("theta_table", (
            "theta", "--weights", fam, "--n", f"1..{_stratum(rng, 5, 20, 5, 2 * f)}",
            "--k", f"1..{_stratum(rng, 3, 10, 5, 3 * f + 1)}", "--format", "csv")))
    for regime in LIMIT_REGIMES:
        reqs.append(Request("limits", ("limits", "--regime", regime)))
    return reqs


def _selfcheck(rng, families):
    # identities dominates the verify time and grows steeply with its
    # sizes, so it keeps one size
    reqs = [
        Request("verify", ("verify", "--suite", "identities", "--max-n", "4",
                           "--max-k", "4")),
        Request("verify", ("verify", "--suite", "marginals",
                           "--max-n", str(rng.randint(3, 6)),
                           "--max-k", str(rng.randint(3, 6)))),
        Request("verify", ("verify", "--suite", "sumtheorem",
                           "--max-n", "4", "--max-k", str(rng.randint(4, 16)))),
    ]
    for f, fam in enumerate(families):
        reqs.append(Request("oracle", (
            "theta", "--algo", "oracle", "--weights", fam,
            "--n", str(_stratum(rng, 2, 10, 5, 2 * f)),
            "--k", str(_stratum(rng, 1, 7, 5, 3 * f + 1)))))
        reqs.append(Request("all", (
            "theta", "--algo", "all", "--weights", fam,
            "--n", str(_stratum(rng, 2, 10, 5, 3 * f + 2)),
            "--k", str(_stratum(rng, 1, 10, 5, 2 * f + 3)))))
    for k in SINF_KS:
        for n_trunc in SINF_TRUNCS:
            reqs.append(Request("s_infinity_2_pmf", (k, n_trunc)))
    return reqs


_GENERATORS = {
    "theta_single": _theta_single,
    "laws_ranges": _laws_ranges,
    "selfcheck": _selfcheck,
}


def block(workload: str, seed: int, index: int, workdir: str) -> list[Request]:
    """Block ``index`` of a workload, writing its custom weights to workdir."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    families = _families(rng, workdir, f"{workload}-{seed}-{index}")
    reqs = _GENERATORS[workload](rng, families)
    rng.shuffle(reqs)
    return reqs
