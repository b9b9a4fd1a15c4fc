"""Seeded request-mix benchmark for ztt, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload theta_single --seed 1 --seconds 25 --trace 0

``--trace 0`` measures end to end: the median set-up time of several fresh
interpreters, then one worker process that replays whole blocks of the
workload's seeded request stream in a closed loop (one client, no threads)
for about ``--seconds`` seconds; latencies are scaled by a machine-speed
probe taken around each request (see speed.py).  ``--trace 1`` replays a
fixed number of blocks (set by ``--seconds``) twice in fresh workers, once
with per-layer tracing and once without; it reports the per-layer metrics
and the tracing overhead, and requires both runs to print byte-identical
output.  Every answer is checked by an independent route after the timed
work.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  ``--report PATH`` also writes the full
report, with every span, as JSON.  Run ``python3 benchmarks/selftest.py``
to test the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".bench_work"

SETUP_PROBES = 12
# seconds per block at the seed commit on a 2-core x86 box.  --trace 1 runs
# round(seconds / 2 / this) blocks twice (traced and untraced), about as
# long as one --trace 0 run; a fixed number of blocks keeps its counts the
# same from run to run of one seed
NOMINAL_BLOCK_S = {"theta_single": 5.8, "laws_ranges": 2.6, "selfcheck": 1.4}
TIME_LIMIT_S = 170

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of the traced run that go into the result line.  Times
# of layers some workload never enters are left out of it, because they
# read exactly 0 on every run there; the call counts of those layers stand
# in for them, and the full span table is printed and written by --report.
PER_LAYER = (
    ("cli.requests", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("exact.format_rational.s", "s", "lower"),
    ("exact.parse_rational.s", "s", "lower"),
    ("distributions.s_pmf.calls", "count", "lower"),
    ("distributions.moments.calls", "count", "lower"),
    ("distributions.limit_scan.calls", "count", "lower"),
    ("distributions.bernstein_pgf.calls", "count", "lower"),
    ("distributions.s_infinity_2_pmf.calls", "count", "lower"),
    ("verify.identities.calls", "count", "lower"),
    ("verify.marginals.calls", "count", "lower"),
    ("verify.sumtheorem.calls", "count", "lower"),
    ("verify.checks_failed", "count", "lower"),
    ("theta.theta_newton.calls", "count", "lower"),
    ("theta.theta_newton.self_s", "s", "lower"),
    ("theta.theta_product.calls", "count", "lower"),
    ("theta.theta_bell.calls", "count", "lower"),
    ("theta.theta_det.calls", "count", "lower"),
    ("theta.theta_convolution.calls", "count", "lower"),
    ("theta.eh_sums.calls", "count", "lower"),
    ("theta.max_coeff_bits", "bits", "lower"),
    ("weights.power_sum.calls", "count", "lower"),
    ("weights.power_sum.s", "s", "lower"),
    ("weights.weight_at.calls", "count", "lower"),
    ("exact.Poly.mul.calls", "count", "lower"),
    ("exact.Poly.mul.s", "s", "lower"),
    ("exact.Poly.max_operand_bits", "bits", "lower"),
    ("exact.Series.mul.calls", "count", "lower"),
    ("exact.det_exact.calls", "count", "lower"),
    ("exact.bell_complete.calls", "count", "lower"),
    ("oracle.theta_bruteforce.calls", "count", "lower"),
    ("oracle.multisets_enumerated", "count", "lower"),
    ("oracle.budget_refusals", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)

# Further per-layer metrics, printed and reported but not in the result line.
REPORTED_ONLY = (
    ("distributions.s_pmf.self_s", "s"),
    ("distributions.moments.self_s", "s"),
    ("distributions.limit_scan.s", "s"),
    ("distributions.bernstein_pgf.s", "s"),
    ("distributions.s_infinity_2_pmf.s", "s"),
    ("verify.identities.s", "s"),
    ("verify.marginals.s", "s"),
    ("verify.sumtheorem.s", "s"),
    ("theta.theta_newton.s", "s"),
    ("theta.theta_product.s", "s"),
    ("theta.theta_bell.s", "s"),
    ("theta.theta_det.s", "s"),
    ("theta.theta_convolution.s", "s"),
    ("theta.eh_sums.s", "s"),
    ("exact.Series.mul.s", "s"),
    ("exact.det_exact.s", "s"),
    ("exact.bell_complete.s", "s"),
    ("oracle.theta_bruteforce.s", "s"),
    ("oracle.multisets_per_s", "1/s"),
    ("trace.request_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)


def import_ztt():
    """Import ztt from this checkout's src/, never from anywhere else."""
    if not (SRC / "ztt" / "__init__.py").is_file():
        raise SystemExit(f"error: no ztt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ztt.cli

    if Path(ztt.__file__).resolve().parent != SRC / "ztt":
        raise SystemExit(f"error: imported ztt from {ztt.__file__}, not {SRC}")
    return ztt


# -- child roles --------------------------------------------------------------


def setup_probe(args) -> int:
    import_ztt()
    workloads.block(args.workload, args.seed, 0, args.work)
    print(repr(time.monotonic()))
    return 0


def worker_role(args) -> int:
    import_ztt()
    import worker
    from tracing import Tracer

    worker.run(args.workload, args.seed, args.seconds, args.blocks, args.work,
               args.out, Tracer() if args.trace else None)
    return 0


# -- parent -------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("error: benchmark ran out of time")
        return left


def _child(role: str, args, deadline: Deadline, *, trace: int = 0,
           blocks: int | None = None, out: str | None = None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--work", args.work]
    if blocks is not None:
        argv += ["--blocks", str(blocks)]
    if out is not None:
        argv += ["--out", out]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=deadline.left())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {role} exited with {proc.returncode}")
    return proc


def setup_samples(args, deadline: Deadline, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ztt.cli imported and the
    first block built, once per spawn, scaled by the speed probes taken
    just before and just after the spawn."""
    samples = []
    for _ in range(count):
        before = speed.probe()
        t0 = time.monotonic()
        proc = _child("setup-probe", args, deadline)
        wall = float(proc.stdout.strip().splitlines()[-1]) - t0
        samples.append(wall * speed.PROBE_REF_S / ((before + speed.probe()) / 2))
    return samples


def scaled(rec: dict) -> float:
    return rec["latency_s"] * speed.PROBE_REF_S / rec["probe_s"]


def worker_pass(args, deadline: Deadline, name: str, **kw) -> tuple[list[dict], dict]:
    out = os.path.join(args.work, f"{name}.jsonl")
    _child("worker", args, deadline, out=out, **kw)
    with open(out, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    summary = lines.pop()
    if not summary.get("summary"):
        raise SystemExit("error: worker results have no summary")
    return lines, summary


def check_all(records: list[dict], others=()) -> dict[int, str]:
    """Failure reason by request index: the independent check of each
    answer, and byte equality with the same request in each other run."""
    from checks import Checker

    checker = Checker()
    failures = {}
    for i, rec in enumerate(records):
        reason = checker.check(rec)
        for other in others:
            if len(other) != len(records):
                reason = reason or f"another run made {len(other)} requests"
            elif other[i]["stdout"] != rec["stdout"]:
                reason = reason or "stdout differs between runs"
        if reason is not None:
            failures[i] = f"{rec['label']} {rec['args']}: {reason}"
    return failures


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def end_to_end(args, deadline: Deadline) -> dict:
    setup_samples(args, deadline, 1)  # warm-up: writes the bytecode caches
    setup = setup_samples(args, deadline, SETUP_PROBES // 2)
    records, summary = worker_pass(args, deadline, "untraced")
    setup += setup_samples(args, deadline, SETUP_PROBES - len(setup))
    failures = check_all(records)
    lat = [scaled(r) for r in records]
    d = deciles(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": (len(records) - len(failures)) / sum(lat),
        "latency_p50_s": d[4],
        "latency_p90_s": d[8],
        "peak_rss_mb": summary["maxrss_kb"] / 1024,
    }
    return {"records": records, "failures": failures, "metrics": metrics,
            "extra": {
                "error_rate": (len(failures) / len(records), "ratio"),
                "setup_samples": (len(setup), "count"),
                "blocks": (len(summary["block_walls_s"]), "count"),
                "timed_wall_s": (sum(summary["block_walls_s"]), "s"),
                "requests_beyond_p90": (sum(x > d[8] for x in lat), "count"),
                "unscaled_latency_p50_s": (statistics.median(r["latency_s"] for r in records), "s"),
                "machine_speed": (statistics.median(speed.PROBE_REF_S / r["probe_s"]
                                                    for r in records), "ratio"),
            }}


def span_metrics(summary: dict, records: list[dict]) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    out = dict(counters)
    for name, (calls, incl, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s
    out["cli.requests"] = spans["cli.main"][0]
    out["cli.self_s"] = spans["cli.main"][2]
    out["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in records
                                  if r["label"] != "s_infinity_2_pmf")
    enum_s = sum(spans[n][1] for n in ("oracle.theta_bruteforce",
                                       "oracle.theta_marginal_bruteforce"))
    out["oracle.multisets_per_s"] = (counters["oracle.multisets_enumerated"] / enum_s
                                     if enum_s else 0.0)
    out["trace.request_wall_s"] = sum(r["latency_s"] for r in records)
    out["trace.self_coverage"] = (sum(s[2] for s in spans.values())
                                  / out["trace.request_wall_s"])
    return out


def stdout_digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec["stdout"].encode())
    return h.hexdigest()


def per_layer(args, deadline: Deadline) -> dict:
    """A fixed number of blocks, traced in one fresh worker and untraced in
    another; both must print the same bytes."""
    blocks = max(1, round(args.seconds / 2 / NOMINAL_BLOCK_S[args.workload]))
    traced, tsum = worker_pass(args, deadline, "traced", trace=1, blocks=blocks)
    plain, _ = worker_pass(args, deadline, "untraced", blocks=blocks)
    failures = check_all(plain, [traced])
    metrics = span_metrics(tsum, traced)
    metrics["trace.untraced_wall_s"] = sum(r["latency_s"] for r in plain)
    metrics["trace.overhead"] = (sum(map(scaled, traced)) / sum(map(scaled, plain)) - 1)
    return {"records": traced, "failures": failures, "metrics": metrics,
            "extra": {"blocks": (blocks, "count"),
                      "stdout_sha256": (stdout_digest(traced), "hex")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write the full report to this JSON file")
    p.add_argument("--role", default="run", choices=("run", "worker", "setup-probe"),
                   help=argparse.SUPPRESS)
    p.add_argument("--blocks", type=int, help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.role == "setup-probe":
        return setup_probe(args)
    if args.role == "worker":
        return worker_role(args)

    deadline = Deadline(TIME_LIMIT_S)
    import_ztt()
    WORK_BASE.mkdir(exist_ok=True)
    args.work = str(WORK_BASE / f"run-{os.getpid()}")
    os.mkdir(args.work)
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass

    records, failures, metrics = result["records"], result["failures"], result["metrics"]
    for i, reason in sorted(failures.items())[:20]:
        print(f"FAILED request {i} {reason}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} requests attempted, {len(failures)} failed")
    for name, unit, _ in wanted:
        print(f"{name} = {metrics[name]!r} {unit}")
    shown = REPORTED_ONLY if args.trace else ()
    for name, unit in shown:
        print(f"{name} = {metrics.get(name, 0)!r} {unit}")
    for name, (value, unit) in result["extra"].items():
        print(f"{name} = {value!r} {unit}")
    if args.report:
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "attempted": len(records), "failed": len(failures),
                  "metrics": {k: metrics[k] for k in sorted(metrics)},
                  "extra": {k: v for k, (v, _) in result["extra"].items()},
                  "requests_by_label": _by_label(records)}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in wanted},
    }))
    return 0


def _by_label(records: list[dict]) -> dict:
    out: dict = {}
    for rec in records:
        n, s = out.get(rec["label"], (0, 0.0))
        out[rec["label"]] = (n + 1, s + rec["latency_s"])
    return {k: {"requests": n, "seconds": s} for k, (n, s) in sorted(out.items())}


if __name__ == "__main__":
    sys.exit(main())
