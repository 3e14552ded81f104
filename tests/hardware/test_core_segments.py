"""Tests for ``Core.run``'s callback-argument convention.

``Core.run(category, ns, fn, *args)`` stores ``args`` beside ``fn`` the
way ``Simulator.after`` does, so hot callers pass a bound method plus
arguments instead of building a closure per segment.  A preempted or
wedged segment must drop both, or it would keep (say) its request alive.
"""

import gc
import weakref

from repro.sim.engine import Simulator
from repro.hardware.machine import Core
from repro.hardware.timing import CostModel
from repro.kernel.kschedule import KernelReallocPipeline
from repro.sim.trace import Tracer


class _Payload:
    """Stands in for a request a segment's callback would receive."""


# ----------------------------------------------------------------------
# Arguments are passed through
# ----------------------------------------------------------------------
def test_run_passes_args_to_callback(sim):
    core = Core(sim, 0)
    calls = []
    core.run("app:x", 700, lambda *args: calls.append((sim.now, args)),
             "state", 42)
    sim.run()
    assert calls == [(700, ("state", 42))]


def test_run_with_bound_method_and_args_chains_segments(sim):
    core = Core(sim, 0)
    seen = []

    class Server:
        def step(self, label, left):
            seen.append((sim.now, label))
            if left:
                core.run("app:x", 100, self.step, label + "'", left - 1)

    core.run("app:x", 100, Server().step, "r", 2)
    sim.run()
    core.settle()
    assert seen == [(100, "r"), (200, "r'"), (300, "r''")]
    assert core.acct.buckets["app:x"] == 300


def test_completion_forgets_args(sim):
    core = Core(sim, 0)
    payload = _Payload()
    ref = weakref.ref(payload)
    core.run("app:x", 100, lambda p: None, payload)
    del payload
    sim.run()
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------------
# Preempt and wedge clear the stored callback and its args
# ----------------------------------------------------------------------
def test_preempt_clears_callback_args(sim):
    core = Core(sim, 0)
    payload = _Payload()
    ref = weakref.ref(payload)
    fired = []
    core.run("app:x", 1000, lambda p: fired.append(p), payload)
    del payload
    sim.run(until=400)
    assert core.preempt() == 600
    gc.collect()
    assert ref() is None          # the preempted segment let go of it
    sim.run()
    assert fired == []


def test_wedge_clears_callback_args(sim):
    core = Core(sim, 0)
    payload = _Payload()
    ref = weakref.ref(payload)
    fired = []
    core.run("app:x", 1000, lambda p: fired.append(p), payload)
    del payload
    sim.run(until=250)
    core.wedge()
    gc.collect()
    assert ref() is None
    sim.run(until=2000)
    core.settle()
    assert fired == []
    assert core.acct.buckets["app:x"] == 250
    assert core.acct.buckets["wedged"] == 1750


def test_args_of_a_preempted_segment_do_not_leak_into_the_next(sim):
    core = Core(sim, 0)
    calls = []
    core.run("app:x", 1000, lambda *args: calls.append(args), "old")
    sim.run(until=10)
    core.preempt()
    core.run("app:x", 50, lambda *args: calls.append(args))
    sim.run()
    assert calls == [()]


# ----------------------------------------------------------------------
# Zero-argument callers (baselines, kernel) behave as before
# ----------------------------------------------------------------------
def test_zero_arg_lambda_and_keyword_callback(sim):
    core = Core(sim, 0)
    done = []
    core.run("kernel", 100, lambda: done.append(("lambda", sim.now)))
    sim.run()
    core.run("runtime", 50, on_done=lambda: done.append(("kw", sim.now)))
    sim.run()
    core.run("idle", 25, None)
    sim.run()
    assert done == [("lambda", 100), ("kw", 150)]
    core.settle()
    assert core.acct.buckets == {"kernel": 100, "runtime": 50, "idle": 25}


def test_kernel_realloc_pipeline_still_chains_zero_arg_lambdas():
    sim = Simulator()
    costs = CostModel()
    core = Core(sim, 0)
    pipeline = KernelReallocPipeline(costs)
    done = []
    pipeline.run(core, lambda: done.append(sim.now))
    sim.run()
    assert done == [pipeline.total_ns()]
    core.settle()
    by_category = {}
    for phase in pipeline.phases():
        by_category[phase.category] = \
            by_category.get(phase.category, 0) + phase.duration_ns
    assert {k: core.acct.buckets[k] for k in by_category} == by_category


def test_inline_accounting_records_tracer_spans(sim):
    # run() and _complete() repeat _switch_category's bucket update
    # inline; the tracer must see the same spans either way.
    core = Core(sim, 0)
    tracer = Tracer(sim)
    core.tracer = tracer
    sim.after(100, core.run, "app:x", 300, None)
    sim.run()
    sim.run(until=500)
    core.settle()
    assert tracer.spans[0] == [(0, 100, "idle"), (100, 400, "app:x"),
                               (400, 500, "idle")]
