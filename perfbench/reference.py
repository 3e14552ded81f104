"""A fixed reference workload that measures how fast the host runs Python.

The host's speed drifts by tens of percent over minutes when other
tenants share its CPUs, which moves every raw timing with it.  The
benchmark runs :func:`reference_seconds` between workload runs and
scales each run's timings by ``REFERENCE_S / reference time``: the result
reads as seconds on a host that runs this loop in ``REFERENCE_S``.  The
loop is a small discrete-event simulation (heap, slotted objects, bound
method calls, dict updates) so that it slows down the way the simulator
does.  It belongs to the benchmark, not to the program, so no change to
the program can move it; keep it unchanged, or every recorded number
changes scale.
"""

from __future__ import annotations

import heapq
import time

#: the loop's duration on the reference host (2-vCPU x86-64 VM at
#: 2.0 GHz, Python 3.11.7), in seconds
REFERENCE_S = 0.4
#: events the loop fires
EVENTS = 120_000
#: checksum of a correct run (queueing delay summed per job kind)
CHECKSUM = 92097653


class _Job:
    __slots__ = ("arrival", "size", "kind")

    def __init__(self, arrival: int, size: int, kind: int) -> None:
        self.arrival = arrival
        self.size = size
        self.kind = kind


class _Core:
    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue = []

    def start(self, loop: "_Loop", now: int, job: _Job) -> None:
        self.busy = True
        loop.post(now + job.size, self.done, job)

    def done(self, loop: "_Loop", now: int, job: _Job) -> None:
        self.busy = False
        loop.delay[job.kind] = loop.delay.get(job.kind, 0) + now - job.arrival
        if self.queue:
            self.start(loop, now, self.queue.pop())


class _Loop:
    def __init__(self) -> None:
        self.heap = []
        self.seq = 0
        self.delay = {}
        self.state = 12345

    def post(self, when: int, fn, arg) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, fn, arg))

    def rand(self, n: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state % n

    def arrive(self, loop: "_Loop", now: int, cores) -> None:
        job = _Job(now, 200 + self.rand(1800), self.rand(4))
        core = min(cores, key=lambda c: (c.busy, len(c.queue)))
        if core.busy:
            core.queue.append(job)
        else:
            core.start(self, now, job)
        self.post(now + 50 + self.rand(100), self.arrive, cores)


def reference_seconds() -> float:
    """Run the reference loop once; returns its duration in seconds."""
    loop = _Loop()
    cores = [_Core() for _ in range(8)]
    loop.post(0, loop.arrive, cores)
    heap = loop.heap
    pop = heapq.heappop
    start = time.perf_counter()
    for _ in range(EVENTS):
        when, _, fn, arg = pop(heap)
        fn(loop, when, arg)
    elapsed = time.perf_counter() - start
    if sum(loop.delay.values()) != CHECKSUM:
        raise RuntimeError("reference loop did not do its fixed work")
    return elapsed
