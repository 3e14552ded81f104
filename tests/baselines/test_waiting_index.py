"""The per-app index of waiting cores in Caladan and Arachne.

Both two-level baselines keep, per application, the cores waiting for
its next request (Caladan: spinning, Arachne: idle-held) so an arrival
finds one without scanning every core.  These tests hold the index to
the definition it replaces: at every probe it must equal a full
recomputation over the system's cores, and an arrival must wake the
first waiting core in core order.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, US
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.baselines.arachne import ArachneSystem
from repro.baselines.caladan import CaladanSystem
from repro.workloads.base import BurstySource, Request
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app, UsrServiceSampler

#: system -> (waiting-core index attribute, waiting state kind)
WAITING = {CaladanSystem: ("_spinning", "spin"),
           ArachneSystem: ("_idle_held", "idle-held")}

#: Arachne's stock 50 ms estimator window would pin every app at one
#: core for a short run; 200 us lets grants ramp so cores share an app.
#: Its load stays low so granted cores actually go idle.
FAST_ESTIMATOR = CostModel(arachne_estimator_interval_ns=200_000)
ARACHNE_LOAD = 0.2


def build(system_cls, workers=32, reverse_cores=False, costs=None,
          apps=("mc0",), load=0.6, seed=42):
    """A bursty memcached colocation on ``workers`` cores, not yet run.

    ``reverse_cores`` hands the system its worker cores in descending id
    order, so core order and core id disagree.
    """
    sim = Simulator()
    machine = Machine(sim, costs or CostModel(), workers + 1)
    rngs = RngStreams(seed)
    cores = machine.cores[1:]
    if reverse_cores:
        cores = cores[::-1]
    system = system_cls(sim, machine, rngs, worker_cores=cores)
    for name in apps:
        system.add_app(memcached_app(name))
    system.add_app(linpack_app())
    system.start()
    rate = load * workers / len(apps)  # memcached serves ~1 us requests
    for app in system.latency_apps:
        BurstySource(sim, app, system.submit, rate,
                     UsrServiceSampler(rngs.stream(f"svc/{app.name}")),
                     rngs.stream(f"arrivals/{app.name}"), connections=10)
    return sim, system


def index_of(system):
    attr, _ = WAITING[type(system)]
    return getattr(system, attr)


def recomputed(system, app):
    """The waiting cores of ``app`` by a full scan, keyed like the index."""
    _, kind = WAITING[type(system)]
    return {pos: state for pos, state in enumerate(system._cores.values())
            if state.owner is app and state.kind == kind}


def every(sim, interval_ns, fn):
    def tick():
        fn()
        sim.post(interval_ns, tick)
    sim.post(interval_ns, tick)


@pytest.mark.parametrize("system_cls,costs,load,apps", [
    (CaladanSystem, None, 0.6, ("mc0",)),
    (CaladanSystem, None, 0.6, ("mc0", "mc1", "mc2")),
    (ArachneSystem, FAST_ESTIMATOR, ARACHNE_LOAD, ("mc0",)),
    (ArachneSystem, FAST_ESTIMATOR, ARACHNE_LOAD, ("mc0", "mc1", "mc2")),
], ids=["caladan", "caladan-3apps", "arachne", "arachne-3apps"])
def test_index_equals_full_recomputation(system_cls, costs, load, apps):
    sim, system = build(system_cls, costs=costs, load=load, apps=apps)
    seen = {"probes": 0, "crowded": 0}

    def probe():
        seen["probes"] += 1
        index = index_of(system)
        for app in system.latency_apps:
            expected = recomputed(system, app)
            assert index.get(app.name, {}) == expected, (sim.now, app.name)
            if len(expected) >= 2:
                seen["crowded"] += 1
        assert set(index) <= {app.name for app in system.latency_apps}

    every(sim, 3 * US, probe)
    sim.run(until=3 * MS)
    assert seen["probes"] >= 900
    # Several cores of one app waiting at once is the case where the
    # pick order matters; the run must reach it often.
    assert seen["crowded"] >= 50


@pytest.mark.parametrize("system_cls,costs,load", [
    (CaladanSystem, None, 0.6),
    (ArachneSystem, FAST_ESTIMATOR, ARACHNE_LOAD)],
    ids=["caladan", "arachne"])
@pytest.mark.parametrize("reverse_cores", [False, True],
                         ids=["id-order", "reversed"])
def test_arrival_wakes_first_waiting_core_in_core_order(
        system_cls, costs, load, reverse_cores):
    sim, system = build(system_cls, workers=16, costs=costs, load=load,
                        reverse_cores=reverse_cores)
    _, kind = WAITING[type(system)]
    app = system.latency_apps[0]
    woken = []

    def probe():
        waiting = list(recomputed(system, app).values())
        if len(waiting) < 2:
            return
        system.submit(Request(app, sim.now, 1000, 0))
        assert waiting[0].kind != kind
        assert all(state.kind == kind for state in waiting[1:])
        woken.append(waiting[0])

    every(sim, 5 * US, probe)
    sim.run(until=3 * MS)
    assert len(woken) >= 20
