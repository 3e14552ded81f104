"""``UProcess.running`` always equals a recount of RUNNING threads.

``UThread.state`` is the one place a thread enters or leaves RUNNING,
and its setter keeps the owning uProcess's counter in step, so VESSEL's
arrival path reads the count in O(1) instead of scanning every thread.
These tests hold the counter to a recount: directly on each transition
of the switch layer, and at every scheduler scan of randomly composed
runs (zoo policy x tenant churn x fault plan).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.experiments.common import (
    ExperimentConfig, l_capacity_mops, run_colocation)
from repro.faults import FaultPlan
from repro.overload.churn import ChurnConfig
from repro.sim.units import US
from repro.uprocess.threads import UThread, UThreadState
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS


def recount(uproc) -> int:
    return sum(1 for t in uproc.threads if t.state is UThreadState.RUNNING)


def assert_in_step(*uprocs) -> None:
    for uproc in uprocs:
        assert uproc.running == recount(uproc), uproc.name


# ----------------------------------------------------------------------
# Direct transitions
# ----------------------------------------------------------------------
def test_switch_layer_transitions_keep_count(domain, two_uprocs, machine):
    a, b = two_uprocs
    switcher = domain.switcher
    t1, t2, t3 = UThread(a), UThread(a), UThread(b)
    assert (a.running, b.running) == (0, 0)

    switcher.install(machine.cores[0], t1)
    assert (a.running, b.running) == (1, 0)
    switcher.install(machine.cores[0], t1)        # already RUNNING there
    assert a.running == 1

    switcher.switch(machine.cores[1], t2)
    switcher.switch(machine.cores[2], t3, preempt=True)
    assert (a.running, b.running) == (2, 1)
    assert_in_step(a, b)

    switcher.park_current(machine.cores[1])
    assert (a.running, t2.state) == (1, UThreadState.PARKED)
    switcher.park_current(machine.cores[1])       # nothing running: no-op
    assert a.running == 1
    switcher.switch(machine.cores[1], t2)         # resume the parked one
    assert a.running == 2
    assert_in_step(a, b)


def test_same_state_twice_counts_once(two_uprocs):
    a, _ = two_uprocs
    thread = UThread(a)
    thread.state = UThreadState.RUNNING
    thread.state = UThreadState.RUNNING
    assert a.running == 1
    thread.state = UThreadState.PARKED
    thread.state = UThreadState.PARKED
    assert a.running == 0
    thread.state = UThreadState.RUNNABLE
    assert a.running == 0
    assert_in_step(a)


def test_destroy_and_terminate_leave_running(two_uprocs):
    a, b = two_uprocs
    running = [UThread(a) for _ in range(3)]
    for thread in running:
        thread.state = UThreadState.RUNNING
    assert a.running == 3
    running[0].destroy()
    assert a.running == 2
    running[0].destroy()                          # already DEAD
    assert a.running == 2
    a.terminate()
    assert a.running == 0
    assert_in_step(a, b)


# ----------------------------------------------------------------------
# Scheduler paths under random compositions
# ----------------------------------------------------------------------
POLICIES = ("default", "mlfq", "sjf", "priority", "trust-group",
            "autoscale")


def run_checked(policy, churn, faults, seed):
    """One small VESSEL run with the counter checked at every scan tick,
    after every L-request preemption and kernel-IPI eviction, and at the
    end.  Returns a count of the checkpoints each path reached."""
    seen = {}
    paths = Counter()
    captured = {}

    def check_all(system):
        for state in system._apps.values():
            seen[state.uproc.uid] = state.uproc
            assert state.uproc.running == sum(
                1 for t in state.threads if t.state is UThreadState.RUNNING)
        assert_in_step(*seen.values())

    def hook(sim, machine, system):
        captured["system"] = system
        scan = system._scan
        l_preempt = system._exec_l_preempt
        fallback_ipi = system._on_fallback_ipi

        def checked_scan():
            check_all(system)
            paths["scan"] += 1
            scan()

        def checked_l_preempt(state, decision):
            executed = l_preempt(state, decision)
            paths["l_preempt"] += executed
            check_all(system)
            return executed

        def checked_fallback_ipi(core_id):
            victim = system._cores[core_id].thread
            if core_id in system._pending_preempts and victim is not None:
                paths["ipi_kill" if victim.rogue else "ipi_park"] += 1
            fallback_ipi(core_id)
            check_all(system)

        # The mechanism looks these up on the instance at call time.
        system._scan = checked_scan
        system._exec_l_preempt = checked_l_preempt
        system._on_fallback_ipi = checked_fallback_ipi

    cfg = ExperimentConfig(num_workers=4, sim_ms=3, warmup_ms=1, seed=seed,
                           bursty=True, policy=policy)
    rate = 0.7 * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    plan = FaultPlan(seed=seed)
    for kind, at_us in faults:
        at_ns = int(at_us * US)
        if kind == "drop_uintr":
            plan.drop_uintr(0.5, at_ns=at_ns)
        elif kind == "delay_uintr":
            plan.delay_uintr(4_000, probability=0.5, at_ns=at_ns)
        elif kind == "crash":
            plan.crash("silo", at_ns=at_ns)
        elif kind == "rogue_l":
            plan.rogue_thread("mc", at_ns=at_ns)
        elif kind == "rogue_b":
            plan.rogue_thread("linpack", at_ns=at_ns)
        else:
            plan.stall_scheduler(at_ns=at_ns)
    run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "mc", rate), ("silo", "silo", 0.05)],
        b_specs=("linpack",),
        churn=ChurnConfig(tenants=2, lifetime_us=300.0,
                          respawn_gap_us=80.0, rate_mops=0.2)
        if churn else None,
        fault_plan=plan if faults else None,
        setup_hook=hook)
    check_all(captured["system"])
    return paths


def test_every_running_transition_path_is_checked():
    # A fixed composition that drives every scheduler path moving a
    # thread in or out of RUNNING: L-request preemption, the kernel-IPI
    # fallback's rogue kill and its park of a cooperative victim, and
    # uProcess teardown (crash plus churn).
    paths = run_checked("default", True,
                        [("drop_uintr", 870), ("rogue_b", 1810),
                         ("crash", 2205)], seed=3876)
    assert paths["scan"] > 0
    assert paths["l_preempt"] > 0
    assert paths["ipi_kill"] > 0
    assert paths["ipi_park"] > 0


FAULT = st.tuples(
    st.sampled_from(("drop_uintr", "delay_uintr", "crash", "rogue_l",
                     "rogue_b", "stall")),
    st.integers(min_value=200, max_value=2_800))


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(POLICIES), churn=st.booleans(),
       faults=st.lists(FAULT, max_size=3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_running_count_matches_recount_under_chaos(policy, churn, faults,
                                                   seed):
    paths = run_checked(policy, churn, faults, seed)
    assert paths["scan"] > 0  # checked during the run, not only after
