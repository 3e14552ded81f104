"""LoadShaper on direct-submit sources, plain Poisson and bursty."""

import random

import pytest

from repro.overload.trace import LoadPhase, LoadShaper, LoadTrace
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.workloads.base import BurstySource, OpenLoopSource
from repro.workloads.memcached import memcached_app

RATE_MOPS = 4.0


def _arrival_times(source_cls, multipliers=None, seed=42, sim_ms=10):
    """Arrival times of one source over ``sim_ms``, optionally shaped by
    a trace with one phase per entry of ``multipliers``."""
    sim = Simulator()
    arrivals = []
    source = source_cls(sim, memcached_app(),
                        lambda request: arrivals.append(request.arrival_ns),
                        RATE_MOPS, lambda: 1_000, random.Random(seed))
    if multipliers is not None:
        step_ms = sim_ms / len(multipliers)
        shaper = LoadShaper(sim, LoadTrace(phases=tuple(
            LoadPhase(at_ms=index * step_ms, multiplier=multiplier)
            for index, multiplier in enumerate(multipliers))))
        shaper.attach_source(source)
        shaper.start()
    sim.run(until=sim_ms * MS)
    return arrivals


@pytest.mark.parametrize("source_cls", [OpenLoopSource, BurstySource])
def test_flat_trace_is_identical_to_no_trace(source_cls):
    assert _arrival_times(source_cls, [1.0]) == _arrival_times(source_cls)


@pytest.mark.parametrize("source_cls", [OpenLoopSource, BurstySource])
@pytest.mark.parametrize("seed", [7, 42])
def test_constant_half_trace_halves_the_offered_load(source_cls, seed):
    # A bursty source used to reset its rate from the unshaped base at
    # every calm/burst toggle (every 20-80 us), so after the first toggle
    # the trace was lost and the load did not drop (ratio 1.01-1.06).  The
    # tolerance covers how the ~100 calm/burst cycles fall in each run.
    full = len(_arrival_times(source_cls, seed=seed))
    half = len(_arrival_times(source_cls, [0.5], seed=seed))
    assert full > 30_000
    assert half / full == pytest.approx(0.5, abs=0.08)


def test_bursty_trace_scales_the_base_and_keeps_the_burst_factor():
    sim = Simulator()
    source = BurstySource(sim, memcached_app(), lambda request: None,
                          RATE_MOPS, lambda: 1_000, random.Random(3),
                          burst_factor=4.0)
    base = source.rate_mops
    shaper = LoadShaper(sim, LoadTrace(phases=(LoadPhase(0.0, 0.25),)))
    shaper.attach_source(source)
    shaper.start()
    seen = set()
    for until_us in range(50, 2_000, 50):
        sim.run(until=until_us * 1_000)
        assert source.rate_mops == base * 0.25
        assert source._phase_factor == (4.0 if source._in_burst else 1.0)
        seen.add(source._in_burst)
    assert seen == {False, True}  # both phases were checked
