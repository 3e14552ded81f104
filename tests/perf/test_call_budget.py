"""Call-count gate for the VESSEL hot path.

Wall-clock gates on a shared CI runner are noisier than the regressions
they are meant to catch; the number of Python calls the simulator makes
per event is exact.  This test counts them with ``sys.setprofile`` over
one small VESSEL cell (8 workers, 1 ms, bursty memcached beside linpack,
seed 42) and fails when the count grows past a pinned ceiling.

Only calls into ``repro``'s own code are counted, so differences in
standard-library internals (``random.lognormvariate`` and friends)
between Python versions cannot move the count.  CPython 3.12 inlines
comprehensions, which can only lower it, so one ceiling serves the
whole CI matrix.

When a change lowers the count, re-measure with ``measure()`` and lower
``MEASURED``; when a change has to raise it, say why in the change log.
"""

import os
import sys

import repro
from repro.experiments.common import (
    ExperimentConfig, l_capacity_mops, run_colocation)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

#: repro-code Python calls per event on the cell below (CPython 3.11)
MEASURED = 13.61
#: the gate: the measured value plus 3%
CEILING = MEASURED * 1.03

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def measure():
    """Run the cell; return ``(repro_calls, events)`` inside ``sim.run``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and \
                frame.f_code.co_filename.startswith(_REPRO_DIR):
            calls += 1

    def count_run(sim, machine, system):
        run = sim.run

        def counted_run(until=None):
            sys.setprofile(profile)
            try:
                run(until)
            finally:
                sys.setprofile(None)

        sim.run = counted_run

    cfg = ExperimentConfig(num_workers=8, sim_ms=1, warmup_ms=0, seed=42,
                           bursty=True)
    rate = 0.6 * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    report = run_colocation("vessel", cfg,
                            l_specs=[("memcached", "memcached", rate)],
                            b_specs=("linpack",), setup_hook=count_run)
    return calls, report.events_fired


def test_vessel_calls_per_event_within_budget():
    calls, events = measure()
    assert events > 10_000  # the cell really ran
    per_event = calls / events
    assert per_event <= CEILING, (
        f"{calls} repro calls over {events} events = {per_event:.3f} "
        f"calls/event, above the ceiling {CEILING:.3f} "
        f"(measured {MEASURED})")
