"""The closed loop: one client, one process, no threads.

Each request goes through a public entry point: ``ztt.cli.main(argv)`` with
stdout and stderr captured in memory, or ``ztt.distributions.
s_infinity_2_pmf`` called directly.  Only the call itself is timed.  Blocks
of requests are generated before their timer starts, and their records are
written to the results file after it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
from time import perf_counter

import speed
import workloads


def serialise_pmf(pmf) -> str:
    """Deterministic text for a FloatPmf; repr keeps every float digit."""
    return json.dumps({"offset": pmf.offset, "probs": [repr(p) for p in pmf.probs],
                       "error_bound": repr(pmf.error_bound)}) + "\n"


def execute(req: workloads.Request) -> dict:
    """Run one request and return its record (latency, rc, stdout, error)."""
    import ztt.cli
    import ztt.distributions

    out, err = io.StringIO(), io.StringIO()
    rc, error, result = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if req.is_cli:
                rc = ztt.cli.main(list(req.args))
            else:
                result = ztt.distributions.s_infinity_2_pmf(*req.args)
        except Exception as exc:  # a crashed request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
    stdout = out.getvalue()
    if result is not None:
        stdout = serialise_pmf(result)
        rc = 0
    return {"label": req.label, "args": list(req.args), "rc": rc,
            "latency_s": latency, "stdout": stdout, "stderr": err.getvalue(),
            "error": error}


def run_block(reqs: list) -> list[dict]:
    """Execute a block, giving each record as ``probe_s`` the median of the
    three speed probes taken before it and the three after it, which
    follows the machine's phases (seconds long) but not single-probe noise."""
    records, probes = [], []  # probes: (index of the next request, seconds)
    last = float("-inf")
    for i, req in enumerate(reqs):
        if perf_counter() - last >= speed.PROBE_EVERY_S:
            probes.append((i, speed.probe()))
            last = perf_counter()
        records.append(execute(req))
    probes.append((len(reqs), speed.probe()))
    j = 0
    for i, rec in enumerate(records):
        while probes[j + 1][0] <= i:
            j += 1
        rec["probe_s"] = statistics.median(p for _, p in probes[max(0, j - 2):j + 4])
    return records


def run(workload: str, seed: int, seconds: float, blocks: int | None,
        workdir: str, out_path: str, tracer=None) -> None:
    """Replay blocks until ``seconds`` of timed work (whole blocks only), or
    exactly ``blocks`` blocks when given, writing one JSON record per request
    and a final summary record to ``out_path``."""
    walls: list[float] = []
    with tracer or contextlib.nullcontext(), \
            open(out_path, "w", encoding="utf-8") as fh:
        while True:
            index = len(walls)
            reqs = workloads.block(workload, seed, index, workdir)
            t0 = perf_counter()
            records = run_block(reqs)
            walls.append(perf_counter() - t0)
            for rec in records:
                rec["block"] = index
                fh.write(json.dumps(rec) + "\n")
            if blocks is not None:
                if len(walls) >= blocks:
                    break
            # start another block only if it would end nearer the target
            elif sum(walls) * (1 + 0.5 / len(walls)) >= seconds:
                break
        summary = {"summary": True, "block_walls_s": walls,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            summary["spans"] = {name: st[:3] for name, st in tracer.stats.items()}
            summary["counters"] = tracer.counters
        fh.write(json.dumps(summary) + "\n")
