"""Host speed, for scaling timings taken on a shared host whose speed drifts.

On a shared 2-vCPU VM the same pure-Python loop runs anywhere between about
62 and 110 ns per iteration, switching within seconds as other tenants come
and go, and `pageval` slows with it.  `sample` times a fixed loop and divides
by its time on the idle VM (REF_NS_PER_LOOP): 1.0 is an idle host, 1.5 one
running at two thirds of that speed.  The benchmark divides each time it
measures by the pace of the moments it was taken in, so its figures read as
timings on the idle host.

A sample takes about 1 ms, within one scheduler time slice, so a sample
taken on a CPU that a busy process shares does not wait for that process.
"""

from __future__ import annotations

import time

LOOPS = 15_000
REF_NS_PER_LOOP = 62.0


def sample() -> float:
    """Wall time of LOOPS iterations of a fixed loop, relative to the idle host."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return (time.perf_counter_ns() - t0) / LOOPS / REF_NS_PER_LOOP

