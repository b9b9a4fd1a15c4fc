"""Machine-speed probe.

The machine this benchmark was built on runs the same code up to a third
slower for seconds to minutes at a time while its neighbours are busy, and
process CPU time slows down with it.  The worker therefore times a fixed
stdlib-only probe before requests (at most every PROBE_EVERY_S) and after
each block, and each request's latency is scaled by PROBE_REF_S over the
median of the probes around it.  Scaled times read as seconds at
the speed the probe had when PROBE_REF_S was measured; they cancel the
machine's drift but not a change in the program, which the probe never
calls.  The probe mixes what ztt spends its time on: Fraction arithmetic,
big-integer products, an interpreted float loop and string building.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.0017  # median probe time on a 2-core x86 box, 2026-10
PROBE_EVERY_S = 0.05

_MODULUS = 7 ** 1500 + 1


def probe() -> float:
    """Seconds taken by the fixed probe task."""
    t0 = perf_counter()
    acc = Fraction(0)
    for m in range(1, 100):
        acc += Fraction(1, m * m)
    x = 3 ** 2000
    for _ in range(20):
        x = x * x % _MODULUS
    suffix = [1.0] * 1500
    out = [0.0] * 1500
    total = 0.0
    for i in range(1, 1500):
        total += suffix[i - 1] / float(i) ** 2
        out[i] = total
    "  ".join(f"{i}/{i + 1}" for i in range(300))
    return perf_counter() - t0
