"""Timings at a fixed reference speed of the host.

On a shared virtual machine the same Python code runs up to 1.8x slower
for seconds or minutes at a time, because other tenants load the physical
core; the process's CPU time grows with its wall time, so it is the core
that slows, not the scheduler that takes it away.  A fixed slice of pure
Python work (complex arithmetic, a dict and a loop, like the evaluator's
inner loop) is timed next to every request, and the request's time is
scaled by REFERENCE_S / (the slice's time then).  A change to pelleis
moves the scaled time as much as the raw one; a change in the host's speed
moves both the request and the slice, and cancels.
"""

from __future__ import annotations

from time import perf_counter

# The slice's seconds on the reference host.  Scaled times read as times
# on a host where the slice takes one millisecond.
REFERENCE_S = 1e-3
_STEPS = 3000


def _work() -> complex:
    z = 0.5 + 0.25j
    acc = 0j
    seen = {}
    for i in range(_STEPS):
        w = 1 / (z * (i % 17 + 1) + 1.5)
        acc += w * w
        seen[i & 63] = acc
    return acc


def slice_s() -> float:
    """Seconds the fixed slice takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def at_reference(took: float, before: float, after: float) -> float:
    """`took` seconds, scaled to the reference speed by the faster of the
    slices timed just before and just after (a burst of load that slows
    one slice then does not make the request look fast)."""
    return took * REFERENCE_S / min(before, after)
