"""Call-count gate for the VESSEL and Caladan hot paths.

Wall-clock gates on a shared CI runner are noisier than the regressions
they are meant to catch; the number of Python calls the simulator makes
per event is exact.  This test counts them with ``sys.setprofile`` over
one small cell (8 workers, 1 ms, bursty memcached beside linpack,
seed 42), run under VESSEL and under Caladan, and fails when a system's
count grows past its pinned ceiling.

Only calls into ``repro``'s own code are counted, so differences in
standard-library internals (``random.lognormvariate`` and friends)
between Python versions cannot move the count.  CPython 3.12 inlines
comprehensions, which can only lower it, so one ceiling serves the
whole CI matrix.

When a change lowers a count, re-measure with ``measure(system)`` and
lower its ``MEASURED`` entry; when a change has to raise it, say why in
the change log.
"""

import os
import sys

import repro
from repro.experiments.common import (
    ExperimentConfig, l_capacity_mops, run_colocation)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

#: repro-code Python calls per event on the cell below, per system
#: (CPython 3.11)
MEASURED = {"vessel": 12.80, "caladan": 10.46}
#: the gate: the measured value plus 3%
CEILING_FACTOR = 1.03
#: fewer events than this means the cell did not really run (it fires
#: 16,856 events under VESSEL and 9,618 under Caladan)
MIN_EVENTS = {"vessel": 10_000, "caladan": 5_000}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def measure(system):
    """Run the cell under ``system``; return ``(repro_calls, events)``
    counted inside ``sim.run``."""
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
    report = run_colocation(system, cfg,
                            l_specs=[("memcached", "memcached", rate)],
                            b_specs=("linpack",), setup_hook=count_run)
    return calls, report.events_fired


def _check_budget(system):
    calls, events = measure(system)
    assert events > MIN_EVENTS[system]
    per_event = calls / events
    ceiling = MEASURED[system] * CEILING_FACTOR
    assert per_event <= ceiling, (
        f"{system}: {calls} repro calls over {events} events = "
        f"{per_event:.3f} calls/event, above the ceiling {ceiling:.3f} "
        f"(measured {MEASURED[system]})")


def test_vessel_calls_per_event_within_budget():
    _check_budget("vessel")


def test_caladan_calls_per_event_within_budget():
    _check_budget("caladan")
