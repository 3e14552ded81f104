"""Tests for the pluggable-policy framework: registry, mechanism
validation (containment of buggy policies), and backwards compatibility
of the pre-framework ``VesselSystem`` surface."""

from types import SimpleNamespace

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.obs.ledger import OpLedger
from repro.sched.policy import (
    DEFAULT_L_PREEMPT_QUANTUM_NS, DEFAULT_ROTATION_QUANTUM_NS,
    Preempt, Rotate, SchedPolicy, available_policies, make_policy,
    register_policy)
from repro.sched.queues import FifoQueue
from repro.vessel import scheduler as vessel_scheduler
from repro.vessel.scheduler import VesselSystem
from repro.vessel.policy import VesselDefaultPolicy
from repro.workloads.base import OpenLoopSource
from repro.experiments.common import make_l_app


def run_system(policy=None, rate=1.0, sim_ms=6, **system_kwargs):
    """One small memcached run; returns (system, report, ledger)."""
    sim = Simulator()
    ledger = OpLedger(sim=sim)
    machine = Machine(sim, CostModel(), 4, ledger=ledger)
    rngs = RngStreams(42)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:],
                          policy=policy, **system_kwargs)
    app, sampler = make_l_app("memcached", "memcached", rngs)
    system.add_app(app)
    system.start()
    OpenLoopSource(sim, app, system.submit, rate, sampler,
                   rngs.stream("arrivals/memcached"))
    sim.at(1 * MS, system.begin_measurement)
    sim.run(until=sim_ms * MS)
    return system, system.report(), ledger


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_policies_registered():
    names = available_policies()
    for name in ("default", "mlfq", "sjf", "trust-group", "priority"):
        assert name in names
    assert "abstract" not in names  # the base class is not a policy


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        make_policy("no-such-policy")


def test_make_policy_forwards_params():
    policy = make_policy("mlfq", levels=5, base_quantum_ns=7_000)
    assert policy.levels == 5
    assert policy.base_quantum_ns == 7_000
    policy = make_policy("default", rotation_quantum_ns=1_234)
    assert policy.rotation_quantum_ns == 1_234


def test_register_requires_concrete_name():
    with pytest.raises(ValueError):
        @register_policy
        class Nameless(SchedPolicy):
            pass  # inherits name == "abstract"


# ----------------------------------------------------------------------
# Backwards compatibility of the VesselSystem surface
# ----------------------------------------------------------------------
def test_default_policy_is_the_vessel_policy(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs)
    assert isinstance(system.policy, VesselDefaultPolicy)
    assert system.rotation_quantum_ns == DEFAULT_ROTATION_QUANTUM_NS
    assert system.l_preempt_quantum_ns == DEFAULT_L_PREEMPT_QUANTUM_NS


def test_policy_accepts_registry_name(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs, policy="mlfq")
    assert system.policy.name == "mlfq"


def test_quantum_ctor_params_override_policy(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs,
                          rotation_quantum_ns=5_000,
                          l_preempt_quantum_ns=40_000)
    assert system.policy.rotation_quantum_ns == 5_000
    assert system.policy.l_preempt_quantum_ns == 40_000
    # the old attribute surface still reads and writes through
    system.rotation_quantum_ns = 9_000
    assert system.policy.rotation_quantum_ns == 9_000


def test_module_constant_aliases_unchanged():
    assert vessel_scheduler.ROTATION_QUANTUM_NS == 20_000
    assert vessel_scheduler.L_PREEMPT_QUANTUM_NS == 20_000
    # pre-framework private names some tests/tools reach for
    assert vessel_scheduler._CoreState is vessel_scheduler.CoreState
    assert vessel_scheduler._AppState is vessel_scheduler.AppState


# ----------------------------------------------------------------------
# Containment: a buggy policy is rejected, not obeyed
# ----------------------------------------------------------------------
class BuggyIdlePolicy(SchedPolicy):
    """Emits Rotate from on_core_idle — never valid there (rotation is
    only meaningful at a request boundary)."""

    name = "test-buggy-idle"

    def on_core_idle(self, core_state):
        return Rotate(core_state.core.id)


def test_invalid_decision_is_rejected_and_counted():
    system, report, ledger = run_system(policy=BuggyIdlePolicy())
    assert system.policy_rejects > 0
    assert ledger.op_counts().get("policy:rejected", 0) > 0
    # The system survives the buggy policy: placement still happens via
    # on_arrival, so requests keep completing.
    assert report.completed.get("memcached", 0) > 0


def test_default_policy_never_rejected():
    system, report, ledger = run_system()
    assert system.policy_rejects == 0
    assert "policy:rejected" not in ledger.op_counts()
    assert report.completed.get("memcached", 0) > 0


# ----------------------------------------------------------------------
# §4.4 long-request check
# ----------------------------------------------------------------------
def _long_request_view(start_ns, now):
    """A policy bound to a fake context at ``now``, and an "L" core
    serving a request that started at ``start_ns`` with one thread
    queued behind it."""
    policy = SchedPolicy()
    policy.bind(SimpleNamespace(now=now))
    fifo = FifoQueue()
    fifo.append("queued-thread")
    core_state = SimpleNamespace(
        core=SimpleNamespace(id=3), fifo=fifo, kind="L",
        thread="running-thread", request=SimpleNamespace(start_ns=start_ns))
    return policy, core_state


def test_long_request_started_at_time_zero_is_preempted():
    quantum = DEFAULT_L_PREEMPT_QUANTUM_NS
    policy, core_state = _long_request_view(start_ns=0, now=quantum)
    decision = policy.check_long_request(core_state)
    assert isinstance(decision, Preempt)
    assert (decision.core_id, decision.victim, decision.incoming) \
        == (3, "running-thread", "queued-thread")


def test_long_request_check_respects_quantum_and_unstarted_requests():
    quantum = DEFAULT_L_PREEMPT_QUANTUM_NS
    policy, core_state = _long_request_view(start_ns=0, now=quantum - 1)
    assert policy.check_long_request(core_state) is None
    policy, core_state = _long_request_view(start_ns=None, now=10 * quantum)
    assert policy.check_long_request(core_state) is None
    policy, core_state = _long_request_view(start_ns=5, now=quantum + 5)
    assert isinstance(policy.check_long_request(core_state), Preempt)
