"""Command-line interface.

Seven subcommands: theta (coefficient tables), pmf and moments (adjacency
statistic laws), verify (named self-check suites), limits (distance scans),
partitions (bounded-part counting series), and export (any of the above to
a JSON or CSV file).

Output is deterministic: the same flags produce byte-identical bytes.
Rationals render as "p/q" strings and floats at a fixed decimal precision,
in JSON as well, so files diff cleanly across runs.

Exit codes: 0 success, 1 verification failure or I/O failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import distributions as dist
from . import oracle, theta, verify
from .exact import format_rational, parse_rational
from .oracle import BudgetExceededError
from .weights import (
    WeightConfigError,
    WeightSequence,
    builtin_weights,
    load_weight_config,
)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def parse_range(text) -> list[int]:
    """Parse '3' or '2..10' into a list of integers."""
    if text is None:
        raise UsageError("--n and --k are required for this table")
    parts = str(text).split("..")
    try:
        bounds = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI") from exc
    if len(bounds) > 2:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI")
    lo, hi = bounds[0], bounds[-1]
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def resolve_weights(name_or_path: str) -> WeightSequence:
    if "/" in name_or_path or name_or_path.endswith(".json"):
        return load_weight_config(name_or_path)
    return builtin_weights(name_or_path)


def _grid(args):
    """Weights and --n/--k ranges of a weighted table, with its shared config.

    Returns (seq, ns, ks, config); config holds the weights, n and k keys,
    and each table appends its own keys after them.
    """
    seq = resolve_weights(args.weights)
    ns = parse_range(args.n)
    ks = parse_range(args.k)
    upper = seq.upper_index()
    if upper is not None and max(ns) > upper:
        raise UsageError(
            f"weight sequence provides {upper} terms but n up to "
            f"{max(ns)} was requested"
        )
    return seq, ns, ks, {"weights": seq.config(), "n": args.n, "k": args.k}


def _fmt_float(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


# ---------------------------------------------------------------------------
# renderers


def _cell(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(value) + "]"
    return str(value)


def _emit_table(columns, rows) -> str:
    widths = [len(c) for c in columns]
    grid = []
    for row in rows:
        cells = [_cell(row[c]) for c in columns]
        grid.append(cells)
        widths = [max(w, len(s)) for w, s in zip(widths, cells)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for cells in grid:
        out.append("  ".join(s.ljust(w) for s, w in zip(cells, widths)).rstrip())
    return "\n".join(out) + "\n"


def _emit_json(command: str, config: dict, rows) -> str:
    doc = {"command": command, "config": config, "rows": list(rows)}
    return json.dumps(doc, indent=2) + "\n"


def _emit_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _render(fmt: str, command: str, config: dict, columns, rows) -> str:
    if fmt == "json":
        return _emit_json(command, config, rows)
    if fmt == "csv":
        return _emit_csv(columns, rows)
    return _emit_table(columns, rows)


# ---------------------------------------------------------------------------
# row builders (shared between the display commands and export)


def _theta_table(args):
    seq, ns, ks, config = _grid(args)
    t_values = [parse_rational(t) for t in args.t] if args.t else []
    as_csv = args.format == "csv"
    show_agree = args.algo == "all"
    if as_csv and show_agree:
        raise UsageError(
            "--algo all has no CSV rendering; the CSV schema is "
            "n,k,coeff_index,value (or n,k,t,value with --t)"
        )

    if args.algo == "oracle":
        budget = oracle.oracle_budget(args.budget)
        algos = [("oracle", lambda n, k: oracle.theta_bruteforce(seq, n, k, budget=budget))]
    else:
        algos = [(name, lambda n, k, fn=fn: fn(seq, n, k).poly)
                 for name, fn in theta.ALGORITHMS.items()
                 if show_agree or name == args.algo]

    config.update(algo=args.algo, t=[format_rational(t) for t in t_values],
                  precision=args.precision)
    value_col = "values" if t_values else "coefficients"
    if as_csv:
        key_col = "t" if t_values else "coeff_index"
        columns = ("n", "k", key_col, "value")
    else:
        columns = ("n", "k", "algo") + (("agree",) if show_agree else ()) + (value_col,)

    rows = []
    for n in ns:
        for k in ks:
            results = [(name, poly_of(n, k)) for name, poly_of in algos]
            agree = all(p == results[0][1] for _, p in results)
            for name, poly in results:
                if t_values:
                    cells = [(t, format_rational(poly(t0)))
                             for t, t0 in zip(config["t"], t_values)]
                else:
                    cells = [(i, format_rational(c)) for i, c in enumerate(poly.coeffs)]
                if as_csv:
                    rows.extend({"n": n, "k": k, key_col: key, "value": value}
                                for key, value in cells)
                    continue
                row = {"n": n, "k": k, "algo": name}
                if show_agree:
                    row["agree"] = "yes" if agree else "no"
                row[value_col] = [value for _, value in cells]
                rows.append(row)
    return config, columns, rows


def _pmf_table(args):
    seq, ns, ks, config = _grid(args)
    config["precision"] = args.precision
    columns = ("n", "k", "j", "probability", "approx")
    rows = []
    for n in ns:
        for k in ks:
            pmf = dist.s_pmf(seq, n, k)
            for j, p in pmf.items():
                rows.append({
                    "n": n, "k": k, "j": j,
                    "probability": format_rational(p),
                    "approx": _fmt_float(float(p), args.precision),
                })
    return config, columns, rows


def _moments_table(args):
    seq, ns, ks, config = _grid(args)
    if args.smax < 1:
        raise UsageError("--smax must be >= 1")
    config.update(smax=args.smax, precision=args.precision)
    fm_cols = tuple(f"fm{s}" for s in range(1, args.smax + 1))
    columns = ("n", "k", "mean", "variance") + fm_cols
    rows = []
    for n in ns:
        for k in ks:
            rep = dist.moments(seq, n, k, args.smax)
            row = {"n": n, "k": k,
                   "mean": format_rational(rep.mean),
                   "variance": format_rational(rep.variance)}
            for s, col in enumerate(fm_cols, start=1):
                row[col] = format_rational(rep.factorial_moments[s - 1])
            rows.append(row)
    return config, columns, rows


def cmd_verify(args) -> int:
    oracle.oracle_budget()  # a bad ZTT_BUDGET exits 2 before any check runs
    results = verify.run_suite(args.suite, max_n=args.max_n, max_k=args.max_k)
    config = {"suite": args.suite, "max_n": args.max_n, "max_k": args.max_k}
    columns = ("check", "result", "detail")
    rows = [{"check": r.name,
             "result": "PASS" if r.passed else "FAIL",
             "detail": r.detail} for r in results]
    passed = sum(r.passed for r in results)
    if args.format == "table":
        for r in rows:
            line = f"{r['result']}  {r['check']}"
            if r["detail"]:
                line += f"  [{r['detail']}]"
            sys.stdout.write(line + "\n")
        sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    else:
        sys.stdout.write(_render(args.format, "verify", config, columns, rows))
    return 0 if passed == len(results) else 1


def _limits_table(args):
    if args.regime == "all":
        if args.grid is not None:
            raise UsageError("--grid needs a single --regime")
        scans = [(r, None) for r in sorted(dist.REGIMES)]
    else:
        grid = None
        if args.grid is not None:
            try:
                grid = tuple(int(p) for p in args.grid.split(","))
            except ValueError as exc:
                raise UsageError(f"bad grid {args.grid!r}; expected N,N,...") from exc
        scans = [(args.regime, grid)]
    config = {"regime": args.regime, "grid": args.grid or "",
              "precision": args.precision}
    columns = ("regime", "param", "value", "distance")
    rows = []
    for regime, grid in scans:
        for sr in dist.limit_scan(regime, grid):
            rows.append({
                "regime": sr.regime,
                "param": sr.param,
                "value": _fmt_float(sr.value, args.precision),
                "distance": _fmt_float(sr.distance, args.precision),
            })
    return config, columns, rows


def _partitions_table(args):
    try:
        n = int(args.n) if args.n is not None else 0
    except ValueError as exc:
        raise UsageError("partitions needs a single integer --n") from exc
    if n < 1:
        raise UsageError("need n >= 1")
    limit = args.limit if args.limit is not None else n
    if limit < 0:
        raise UsageError("need limit >= 0")
    config = {"n": n, "limit": limit}
    columns = ("index", "count")
    series = theta.partition_series(n, limit)
    rows = [{"index": i, "count": c} for i, c in enumerate(series)]
    return config, columns, rows


_BUILDERS = {
    "theta": _theta_table,
    "pmf": _pmf_table,
    "moments": _moments_table,
    "limits": _limits_table,
    "partitions": _partitions_table,
}


def _status(rows) -> int:
    """1 when an --algo all row records disagreement, else 0."""
    return 1 if any(row.get("agree") == "no" for row in rows) else 0


def cmd_table(args) -> int:
    config, columns, rows = _BUILDERS[args.command](args)
    sys.stdout.write(_render(args.format, args.command, config, columns, rows))
    return _status(rows)


def cmd_export(args) -> int:
    config, columns, rows = _BUILDERS[args.table](args)
    text = _render(args.format, args.table, config, columns, rows)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return _status(rows)


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *, formats=("table", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--precision", type=int, default=12,
                   help="decimal digits for float rendering")


def _add_weight_flags(p, *, required: bool = True) -> None:
    p.add_argument("--weights", default="ones",
                   help="builtin name (ones, linear, zeta:<m>) or JSON file path")
    p.add_argument("--n", required=required, help="value or range LO..HI")
    p.add_argument("--k", required=required, help="value or range LO..HI")


def _add_theta_flags(p, *, required: bool = True) -> None:
    _add_weight_flags(p, required=required)
    p.add_argument("--t", action="append", metavar="RATIONAL",
                   help="evaluate at t (repeatable); default prints coefficients")
    p.add_argument("--algo", default="newton",
                   choices=sorted(theta.ALGORITHMS) + ["all", "oracle"])
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration cap for --algo oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ztt",
        description="Exact tables, laws, and limit diagnostics for "
                    "interpolated weighted multiset sums.")
    sub = parser.add_subparsers(dest="command", required=True)
    regimes = sorted(dist.REGIMES) + ["all"]

    p = sub.add_parser("theta", help="polynomial coefficient tables")
    _add_theta_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("pmf", help="law of the adjacency statistic")
    _add_weight_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("moments", help="exact moments of the adjacency statistic")
    _add_weight_flags(p)
    p.add_argument("--smax", type=int, default=2,
                   help="highest factorial moment")
    _add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--max-n", type=int, default=8, dest="max_n",
                   help="largest n (>= 2) for the identities and marginals "
                        "suites; sumtheorem and limits ignore it")
    p.add_argument("--max-k", type=int, default=8, dest="max_k",
                   help="largest k (>= 1) for the identities and marginals "
                        "suites; sumtheorem checks k = 3..max(MAX_K, 12) and "
                        "limits ignores it; the JSON config echoes both flags "
                        "as given")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("limits", help="limit-regime distance scans")
    p.add_argument("--regime", default="all",
                   choices=regimes)
    p.add_argument("--grid", default=None,
                   help="comma-separated parameter grid (single regime only)")
    _add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("partitions", help="partition counts with bounded parts")
    p.add_argument("--n", type=int, required=True, help="largest allowed part")
    p.add_argument("--limit", type=int, default=None,
                   help="highest index of the series (default n)")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("export", help="write a table to a JSON or CSV file")
    p.add_argument("--table", required=True, choices=sorted(_BUILDERS))
    _add_theta_flags(p, required=False)
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--regime", default="all",
                   choices=regimes)
    p.add_argument("--grid", default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", required=True, help="output file path")
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(handler=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    # a double's exact decimal expansion ends within 1074 fractional digits
    if not 1 <= getattr(args, "precision", 1) <= 1074:
        print("error: --precision must be between 1 and 1074", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (UsageError, WeightConfigError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
