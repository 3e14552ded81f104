"""The VESSEL core scheduler as a colocation system (§4.5, Figure 7b).

One-level, global policy: cores are not owned by applications.  Each
worker core has a FIFO queue of runnable threads (possibly from different
uProcesses) plus there is one global best-effort queue.  The scheduler —
a dedicated busy-polling core, like Caladan's IOKernel but far lighter —
reacts to arrivals and periodically rebalances:

* a latency app with pending requests gets more server threads, placed on
  idle cores first (UMWAIT wake + userspace install), then on cores
  running best-effort work (Uintr preemption: command queue push +
  ``senduipi``; the victim's handler passes the call gate and switches in
  ~0.36 µs), then queued on the shortest per-core FIFO;
* a core whose thread parks switches to the next FIFO thread (0.16 µs
  park switch), else pops the global BE queue, else UMWAITs;
* at request boundaries a core rotates to its FIFO head once the current
  thread has run a quantum — this is what keeps dense colocation fair
  (Figure 10) at 0.16 µs per rotation instead of 5.3 µs.

Every switch goes through the functional layer (`UserspaceSwitch`), so
PKRU values and CPUID_TO_TASK_MAP stay correct during performance runs —
the simulation would fault (MpkFault) if the mechanism were wired wrong.

Since the policy split (ghOSt-style), this module is the *mechanism*
half only: it delivers events to a pluggable :class:`SchedPolicy` and
executes the decisions the policy returns, through the same Uintr /
call-gate / containment machinery and charging the same ledger ops.
``VesselDefaultPolicy`` reproduces the behaviour described above
byte-for-byte; pass ``policy=`` to swap in a zoo policy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Union

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.kernel.signals import KernelSignals, SIGSEGV, Signal
from repro.sched.base import ColocationSystem
from repro.sched.policy import (
    DEFAULT_ACTIVATION_BURST, DEFAULT_L_PREEMPT_QUANTUM_NS,
    DEFAULT_ROTATION_QUANTUM_NS, Decision, Enqueue, Idle, Place, Preempt,
    Rotate, Run, SchedPolicy, Steal, make_policy)
from repro.uprocess.loader import ProgramImage
from repro.uprocess.manager import Manager
from repro.uprocess.threads import UThread, UThreadState
from repro.uprocess.usignals import Command, CommandKind
from repro.vessel.runtime import VesselRuntime
from repro.workloads.base import App, Request

#: backwards-compatible aliases — the quanta are policy parameters now
#: (see ``repro.sched.policy``); these names keep old imports working.
ROTATION_QUANTUM_NS = DEFAULT_ROTATION_QUANTUM_NS
L_PREEMPT_QUANTUM_NS = DEFAULT_L_PREEMPT_QUANTUM_NS
ACTIVATION_BURST = DEFAULT_ACTIVATION_BURST
#: how long the scheduler waits for a preemption command to be acted on
#: before escalating (normal Uintr ack is ~0.2 µs; the deadline leaves
#: an order of magnitude of slack before the watchdog interferes)
PREEMPT_ACK_NS = 3_000
#: scheduler-liveness watchdog period (a stalled scheduler core is
#: detected and kicked within one period)
HEARTBEAT_INTERVAL_NS = 50_000


class _PendingPreempt:
    """One unacknowledged preemption command awaiting its deadline."""

    __slots__ = ("thread", "event", "sent_at", "attempt")

    def __init__(self, thread: UThread, event: Optional[Event],
                 sent_at: int, attempt: int) -> None:
        self.thread = thread
        self.event = event
        self.sent_at = sent_at
        self.attempt = attempt


class CoreState:
    """Scheduler-side view of one worker core (read-only to policies)."""

    __slots__ = ("core", "fifo", "kind", "thread", "batch_run", "request",
                 "run_started", "uitt_index")

    def __init__(self, core: Core, fifo) -> None:
        self.core = core
        #: run queue; discipline chosen by the policy (FIFO by default)
        self.fifo = fifo
        self.kind: Optional[str] = None  # None | "L" | "B" | "switch"
        self.thread: Optional[UThread] = None
        self.batch_run = None
        self.request: Optional[Request] = None
        self.run_started = 0
        self.uitt_index = -1


class AppState:
    """Scheduler-side view of one application (read-only to policies)."""

    __slots__ = ("app", "uproc", "threads", "parked", "queued_servers")

    def __init__(self, app: App, uproc) -> None:
        self.app = app
        self.uproc = uproc
        self.threads: List[UThread] = []
        self.parked: Deque[UThread] = deque()
        #: threads sitting in some core run queue (activated, not running)
        self.queued_servers = 0


#: old private names, kept for callers that poked at internals
_CoreState = CoreState
_AppState = AppState


class PolicyContext:
    """The mechanism state a policy may *read* (see ``SchedPolicy.bind``).

    Policies get no direct reference to the system: every mutation goes
    through a returned :class:`Decision`, which the mechanism validates
    before executing — a buggy policy is contained the same way a buggy
    application is (§4.3).
    """

    __slots__ = ("_system",)

    def __init__(self, system: "VesselSystem") -> None:
        self._system = system

    @property
    def now(self) -> int:
        return self._system.sim.now

    @property
    def ledger(self):
        """The mechanism's op ledger, for charging policy-side control
        actions (read ``ledger.enabled`` before building arguments)."""
        return self._system.ledger

    def core_states(self):
        """Per-core states, in the fixed worker-core order."""
        return self._system._cores.values()

    def core_state(self, core_id: int) -> Optional[CoreState]:
        return self._system._cores.get(core_id)

    def app_states(self):
        """Per-app states, in app-registration order."""
        return self._system._apps.values()

    def app_state(self, name: str) -> Optional[AppState]:
        return self._system._apps.get(name)

    def next_be_thread(self) -> Optional[UThread]:
        """Runnable head of the global best-effort queue (suspended
        applications skipped), without dequeuing it."""
        system = self._system
        for thread in system._be_queue:
            if thread.payload.name not in system._suspended_apps:
                return thread
        return None

    def sibling_of(self, core_id: int) -> Optional[CoreState]:
        """SMT sibling's core state: worker cores pair up in order
        (first with second, third with fourth, ...); ``None`` for an
        unpaired trailing core."""
        cores = list(self._system._cores.values())
        for index, state in enumerate(cores):
            if state.core.id == core_id:
                mate = index + 1 if index % 2 == 0 else index - 1
                if 0 <= mate < len(cores):
                    return cores[mate]
                return None
        return None


class VesselSystem(ColocationSystem):
    """VESSEL over a scheduling domain of uProcesses."""

    name = "vessel"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None,
                 policy: Union[SchedPolicy, str, None] = None,
                 rotation_quantum_ns: Optional[int] = None,
                 l_preempt_quantum_ns: Optional[int] = None,
                 containment: bool = True,
                 preempt_ack_ns: int = PREEMPT_ACK_NS,
                 heartbeat_interval_ns: int = HEARTBEAT_INTERVAL_NS) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        if policy is None:
            policy = make_policy("default")
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        # Explicit quanta override whatever the policy was built with
        # (backwards-compatible with the pre-framework constructor).
        if rotation_quantum_ns is not None:
            policy.rotation_quantum_ns = rotation_quantum_ns
        if l_preempt_quantum_ns is not None:
            policy.l_preempt_quantum_ns = l_preempt_quantum_ns
        #: failure-containment machinery (preemption watchdog, SIGSEGV
        #: teardown, scheduler-liveness heartbeat); the ablation toggle
        #: for fault-injection experiments
        self.containment = containment
        self.preempt_ack_ns = preempt_ack_ns
        self.heartbeat_interval_ns = heartbeat_interval_ns
        self.rng = rngs.stream("vessel")
        self.manager = Manager(costs=self.costs, rng=self.rng,
                               ledger=self.ledger)
        self.signals = KernelSignals(sim, self.costs, ledger=self.ledger)
        self.domain = self.manager.create_domain(self.worker_cores,
                                                 name="vessel-domain")
        self.runtime = VesselRuntime(self.domain)
        self.switcher = self.domain.switcher
        self.policy.bind(PolicyContext(self))
        self._cores: Dict[int, CoreState] = {
            core.id: CoreState(core, self.policy.make_core_queue())
            for core in self.worker_cores
        }
        self._apps: Dict[str, AppState] = {}
        self._be_queue: Deque[UThread] = deque()
        self._scheduler_core_id = 0  # the dedicated busy-polling core
        self._suspended_apps: set = set()
        self._suspended_threads: Deque[UThread] = deque()
        self.preemptions = 0
        self.rotations = 0
        #: decisions the mechanism refused to execute (buggy policy)
        self.policy_rejects = 0
        self._started = False
        # --- containment state -------------------------------------------
        self._pending_preempts: Dict[int, _PendingPreempt] = {}
        self._sched_stalled = False
        self._last_scan_ns = 0
        self._scan_event: Optional[Event] = None
        self.fallback_retries = 0
        self.fallback_ipis = 0
        self.contained_crashes = 0
        self.sched_restarts = 0
        self.rogue_kills = 0
        #: scheduler-core reaction delay to an arrival: half a scan on
        #: average, stretched by control-plane congestion.  Every input
        #: is fixed per system, so it is computed once, here rather than
        #: in start() because requests may be submitted before start().
        self._react_ns = int(max(self.costs.sched_react_ns,
                                 self.effective_scan_ns // 2)
                             * self.control_plane_factor)

    # The quanta are policy parameters now; these properties keep the
    # old ``system.rotation_quantum_ns`` attribute access working.
    @property
    def rotation_quantum_ns(self) -> int:
        return self.policy.rotation_quantum_ns

    @rotation_quantum_ns.setter
    def rotation_quantum_ns(self, value: int) -> None:
        self.policy.rotation_quantum_ns = value

    @property
    def l_preempt_quantum_ns(self) -> int:
        return self.policy.l_preempt_quantum_ns

    @l_preempt_quantum_ns.setter
    def l_preempt_quantum_ns(self, value: int) -> None:
        self.policy.l_preempt_quantum_ns = value

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_app(self, app: App) -> None:
        super().add_app(app)
        uproc = self.manager.create_uprocess(
            self.domain, ProgramImage(app.name), name=app.name)
        if self.containment:
            # Fault shielding (§4.3): a SIGSEGV on this uProcess's boot
            # kProcess lands in the runtime's handler, which tears the
            # uProcess down without touching co-located ones.  Without
            # containment the kernel's default action applies.
            self.signals.register(
                uproc.boot_kprocess, SIGSEGV,
                lambda proc, sig, u=uproc: self._on_sigsegv(u))
        state = AppState(app, uproc)
        self._apps[app.name] = state
        count = len(self.worker_cores)
        for i in range(count):
            thread = self.runtime.pthread_create(uproc, f"{app.name}/w{i}")
            thread.state = UThreadState.PARKED
            thread.payload = app
            state.threads.append(thread)
            if app.is_latency:
                state.parked.append(thread)
            else:
                self._be_queue.append(thread)
        self.policy.on_app_added(state)

    @property
    def effective_scan_ns(self) -> int:
        """Scan interval, stretched when the per-core pass outgrows it."""
        per_pass = len(self.worker_cores) * self.costs.vessel_sched_per_core_ns
        return max(self.costs.vessel_scan_interval_ns, per_pass)

    @property
    def control_plane_factor(self) -> float:
        """Reaction-latency multiplier from scheduler-core congestion.

        One scheduler core does ``vessel_sched_per_core_ns`` of work per
        managed core per scan; as its utilization approaches 1 the time
        until it acts on a fresh signal grows like 1/(1-rho) — this is
        the Figure 12 scaling knee (~42 cores for VESSEL).
        """
        rho = (len(self.worker_cores) * self.costs.vessel_sched_per_core_ns
               / self.costs.vessel_scan_interval_ns)
        return 1.0 / (1.0 - min(rho, 0.97))

    def start(self) -> None:
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        uintr = self.machine.uintr
        for state in self._cores.values():
            core_id = state.core.id
            uintr.register_handler(core_id,
                                   lambda vec, cid=core_id: self._on_uintr(cid))
            uintr.on_user_resume(core_id)
            state.uitt_index = uintr.register_sender(
                self._scheduler_core_id, core_id, vector=1)
            if self.containment:
                # Kernel-IPI escape hatch for preemptions the Uintr path
                # never acknowledges (dropped delivery, rogue thread).
                self.machine.ipi.register_handler(
                    core_id,
                    lambda vec, cid=core_id: self._on_fallback_ipi(cid))
        # Prime every core with best-effort work.
        for state in self._cores.values():
            self._fill_core(state)
        self._last_scan_ns = self.sim.now
        self._scan_event = self.sim.after(self.effective_scan_ns, self._scan)
        if self.containment:
            self.sim.post(self.heartbeat_interval_ns, self._heartbeat)

    # ------------------------------------------------------------------
    # Arrival path
    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        # The busy-polling scheduler notices new work within one poll
        # iteration; the reaction itself happens out-of-band, the worker
        # core pays only for its own switch.
        state = self._apps.get(app.name)
        if state is None:
            # The application was destroyed; clients see resets (§5.1).
            app.queue.clear()
            return
        if self._sched_stalled:
            # The scheduler core is not polling; requests pile up in the
            # app queue until the liveness watchdog restarts the scan.
            return
        self.sim.post(self._react_ns, self._dispatch_app, state)

    def _dispatch_app(self, state: AppState) -> None:
        """Ensure enough server threads are active for this app's queue."""
        if not state.app.queue:
            return
        self._run_decisions(self.policy.on_arrival(state))

    def _return_be(self, thread: UThread) -> None:
        """Park a best-effort thread back into the global queue."""
        thread.state = UThreadState.PARKED
        thread.core_id = None
        self._be_queue.append(thread)

    # ------------------------------------------------------------------
    # Decision execution.  The policy computes one decision at a time
    # against live state; the mechanism validates and executes it before
    # the policy's generator resumes — so the sequential behaviour is
    # exactly the pre-framework inline code's, and an invalid decision
    # from a buggy policy is rejected instead of corrupting state.
    # ------------------------------------------------------------------
    def _run_decisions(self, decisions) -> None:
        for decision in decisions:
            if decision is not None:
                self._execute(decision)

    def _reject(self, decision: Decision) -> bool:
        self.policy_rejects += 1
        if self.ledger.enabled:
            self.ledger.count_op("policy:rejected", domain="policy")
        return False

    def _execute(self, decision: Decision) -> bool:
        """Validate + execute one decision; False if it was rejected."""
        if isinstance(decision, Place):
            return self._exec_place(decision)
        if isinstance(decision, Preempt):
            return self._exec_preempt(decision)
        if isinstance(decision, Enqueue):
            return self._exec_enqueue(decision)
        if isinstance(decision, Run):
            return self._exec_run(decision)
        if isinstance(decision, Steal):
            return self._exec_steal(decision)
        if isinstance(decision, Idle):
            return self._exec_idle(decision)
        # Rotate is only meaningful at a request boundary; the serving
        # loop consumes it directly (see _serve_next).
        return self._reject(decision)

    def _take_parked(self, thread: UThread) -> Optional[AppState]:
        """Claim a parked latency thread for placement, or None."""
        app_state = self._apps.get(thread.payload.name)
        if app_state is None or thread not in app_state.parked:
            return None
        app_state.parked.remove(thread)
        return app_state

    def _exec_place(self, decision: Place) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy:
            return self._reject(decision)
        if self._take_parked(decision.thread) is None:
            return self._reject(decision)
        self._wake_core_with(state, decision.thread)
        return True

    def _exec_preempt(self, decision: Preempt) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or decision.victim is not state.thread:
            return self._reject(decision)
        if state.kind == "B":
            if decision.incoming is None:
                return self._exec_force_idle(state)
            if self._take_parked(decision.incoming) is None:
                return self._reject(decision)
            self._preempt_for(state, decision.incoming)
            return True
        if state.kind == "L":
            return self._exec_l_preempt(state, decision)
        return self._reject(decision)

    def _exec_force_idle(self, state: CoreState) -> bool:
        """Evict a best-effort thread with no replacement (the forced
        idle of Linux core scheduling: a mismatched SMT sibling must
        not run)."""
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        if state.batch_run is not None:
            state.batch_run.preempt()
            state.batch_run = None
        thread = state.thread
        state.thread = None
        state.kind = None
        if thread is not None:
            self._return_be(thread)
        state.core.set_idle()
        return True

    def _exec_enqueue(self, decision: Enqueue) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind != "L":
            return self._reject(decision)
        app_state = self._take_parked(decision.thread)
        if app_state is None:
            return self._reject(decision)
        state.fifo.append(decision.thread)
        app_state.queued_servers += 1
        return True

    def _exec_run(self, decision: Run) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy \
                or state.batch_run is not None:
            return self._reject(decision)
        thread = decision.thread
        if thread in state.fifo:
            state.fifo.remove(thread)
            self._apps[thread.payload.name].queued_servers -= 1
            self._start_thread(state, thread, preempt=False)
            return True
        if thread in self._be_queue:
            if thread.payload.name in self._suspended_apps:
                return self._reject(decision)
            # Suspended threads queued ahead of the chosen one step
            # aside (exactly the old _fill_core pop-and-skip loop).
            while self._be_queue and self._be_queue[0] is not thread \
                    and self._be_queue[0].payload.name in self._suspended_apps:
                self._suspended_threads.append(self._be_queue.popleft())
            self._be_queue.remove(thread)
            self._start_thread(state, thread, preempt=False)
            return True
        return self._reject(decision)

    def _exec_steal(self, decision: Steal) -> bool:
        state = self._cores.get(decision.core_id)
        source = self._cores.get(decision.from_core_id)
        if state is None or source is None or source is state \
                or state.kind is not None or state.core.busy \
                or not source.fifo:
            return self._reject(decision)
        thread = source.fifo.popleft()
        self._apps[thread.payload.name].queued_servers -= 1
        self._start_thread(state, thread, preempt=False)
        return True

    def _exec_idle(self, decision: Idle) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy:
            return self._reject(decision)
        # Threads of suspended apps at the BE queue's head move to the
        # held list (the old _fill_core drained them while searching).
        while self._be_queue \
                and self._be_queue[0].payload.name in self._suspended_apps:
            self._suspended_threads.append(self._be_queue.popleft())
        state.kind = None
        state.thread = None
        state.core.set_idle()
        return True

    # ------------------------------------------------------------------
    # Periodic scan (rebalance + BE filling)
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        if self._sched_stalled:
            return
        self._last_scan_ns = self.sim.now
        self._run_decisions(self.policy.on_tick())
        self._scan_event = self.sim.after(self.effective_scan_ns, self._scan)

    # ------------------------------------------------------------------
    # Scheduler-core liveness (containment for fault class "d")
    # ------------------------------------------------------------------
    def stall_scheduler(self) -> None:
        """Fault injection: the dedicated scheduler core stops polling.

        Arrivals and rebalancing cease; worker cores keep draining what
        they already have.  With containment on, the kernel-side
        heartbeat notices within one period and restarts the scan loop.
        """
        self._sched_stalled = True
        if self._scan_event is not None and self._scan_event.alive:
            self._scan_event.cancel()
        self._scan_event = None
        if self.ledger.enabled:
            self.ledger.count_op("fault:sched_stall",
                                 core=self._scheduler_core_id, domain="fault")

    def _heartbeat(self) -> None:
        now = self.sim.now
        if self._sched_stalled \
                or now - self._last_scan_ns > self.heartbeat_interval_ns:
            self.sched_restarts += 1
            if self.ledger.enabled:
                self.ledger.count_op("fallback:sched_restart",
                                     core=self._scheduler_core_id,
                                     domain="fallback")
            # The kernel watchdog kicks the scheduler process back onto
            # its core (modeled as one ioctl on the manager's kProcess).
            self.manager.syscalls.ioctl(self.manager.kprocess,
                                        "watchdog_restart")
            self._sched_stalled = False
            self._last_scan_ns = now
            self._scan_event = self.sim.call_soon(self._scan)
        self.sim.post(self.heartbeat_interval_ns, self._heartbeat)

    def _exec_l_preempt(self, state: CoreState, decision: Preempt) -> bool:
        """§4.4 preemption: a long request is hogging a core other
        latency threads are queued on.  The request is suspended (its
        remaining service returns to the front of its app's queue) and
        the core rotates via a Uintr-priced switch."""
        if state.request is None or decision.incoming not in state.fifo:
            return self._reject(decision)
        request = state.request
        remaining = state.core.preempt()
        request.service_ns = max(1, remaining)
        if self.flight.enabled:
            self.flight.mark(request, "preempt", core=state.core.id)
        request.app.queue.appendleft(request)
        state.request = None
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        thread = state.thread
        app_state = self._apps[thread.payload.name]
        thread.state = UThreadState.PARKED
        state.fifo.append(thread)
        app_state.queued_servers += 1
        state.thread = None
        state.kind = None
        self.switcher.park_current(state.core)
        next_thread = decision.incoming
        state.fifo.remove(next_thread)
        self._apps[next_thread.payload.name].queued_servers -= 1
        self._start_thread(state, next_thread, preempt=True)
        return True

    def _fill_core(self, state: CoreState) -> None:
        """Idle core: ask the policy what to run (queue head first, then
        the global BE queue, else UMWAIT, under the default policy)."""
        decision = self.policy.on_core_idle(state)
        if decision is None or not self._execute(decision):
            # A policy that answers nothing executable leaves the core
            # in UMWAIT; the next scan asks again.
            state.kind = None
            state.thread = None
            state.core.set_idle()

    # ------------------------------------------------------------------
    # Switching machinery
    # ------------------------------------------------------------------
    def _wake_core_with(self, state: _CoreState, thread: UThread) -> None:
        """UMWAIT wake + install (the core was idle)."""
        state.kind = "switch"
        state.thread = thread
        if self.ledger.enabled:
            self.ledger.charge("umwait_wake", self.costs.umwait_wake_ns,
                               core=state.core.id, domain="vessel")
        cost = self.costs.umwait_wake_ns + self.switcher.switch(
            state.core, thread, preempt=False)
        state.core.run("runtime", cost, self._begin_run, state)

    def _preempt_for(self, state: _CoreState, thread: UThread) -> None:
        """Preempt the BE thread on ``state.core`` in favour of ``thread``.

        Functional path: push a command, ``senduipi``; the handler fires
        after the hardware delivery latency and performs the switch.
        """
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        self.domain.queues.of(state.core.id).push(
            Command(CommandKind.RUN_THREAD, thread))
        # Reserve the core so concurrent dispatches pick other victims.
        state.kind = "switch"
        self.machine.uintr.senduipi(self._scheduler_core_id, state.uitt_index)
        if self.containment:
            self._arm_watchdog(state, thread, attempt=1)

    # ------------------------------------------------------------------
    # Preemption watchdog (containment for fault classes "a" and "c")
    # ------------------------------------------------------------------
    def _arm_watchdog(self, state: _CoreState, thread: UThread,
                      attempt: int) -> None:
        pending = self._pending_preempts.get(state.core.id)
        sent_at = pending.sent_at if pending is not None else self.sim.now
        event = self.sim.after(self.preempt_ack_ns, self._preempt_deadline,
                               state, thread, attempt)
        self._pending_preempts[state.core.id] = _PendingPreempt(
            thread, event, sent_at, attempt)

    def _ack_preempt(self, core_id: int) -> None:
        pending = self._pending_preempts.pop(core_id, None)
        if pending is not None and pending.event is not None \
                and pending.event.alive:
            pending.event.cancel()

    def _preempt_deadline(self, state: _CoreState, thread: UThread,
                          attempt: int) -> None:
        core_id = state.core.id
        pending = self._pending_preempts.get(core_id)
        if pending is None or pending.thread is not thread:
            return
        if thread.state is UThreadState.DEAD or not thread.uproc.alive:
            # The target vanished (its app was torn down); release the
            # core reservation so the scan can refill it.
            del self._pending_preempts[core_id]
            if state.kind == "switch" and state.batch_run is None \
                    and not state.core.busy:
                state.kind = None
                state.thread = None
                self._fill_core(state)
            return
        if attempt == 1:
            # First escalation: the notification may have been lost in
            # flight, but the vector is still posted in the PIR, so a
            # fresh senduipi re-raises it at Uintr cost.
            self.fallback_retries += 1
            if self.ledger.enabled:
                self.ledger.count_op("fallback:uintr_retry", core=core_id,
                                     domain="fallback")
            self.machine.uintr.senduipi(self._scheduler_core_id,
                                        state.uitt_index)
            self._arm_watchdog(state, thread, attempt=2)
            return
        # Second escalation: give up on the userspace path; trap into the
        # kernel and interrupt the victim core with an IPI (~15x the
        # Uintr cost — visible in the fallback breakdown rows).
        del self._pending_preempts[core_id]
        self.fallback_ipis += 1
        if self.ledger.enabled:
            self.ledger.count_op("fallback:kernel_ipi", core=core_id,
                                 domain="fallback")
        self.manager.syscalls.ioctl(self.manager.kprocess, "vessel_kick")
        self._pending_preempts[core_id] = _PendingPreempt(
            thread, None, pending.sent_at, attempt=3)
        self.machine.ipi.send(core_id, op="fallback:ipi_deliver",
                              domain="fallback")

    def _on_fallback_ipi(self, core_id: int) -> None:
        """Kernel IPI handler: forcibly evict the occupant and install
        the stuck preemption's target thread via a kernel context switch."""
        pending = self._pending_preempts.pop(core_id, None)
        if pending is None:
            return  # the Uintr path won the race after all
        state = self._cores[core_id]
        victim = state.thread
        if state.batch_run is not None:
            state.batch_run.preempt()
            state.batch_run = None
        elif state.core.busy:
            remaining = state.core.preempt()
            if state.request is not None:
                # An in-flight request survives the forced switch: its
                # unfinished service returns to the front of its queue.
                state.request.service_ns = max(1, remaining)
                if self.flight.enabled:
                    self.flight.mark(state.request, "preempt",
                                     core=state.core.id)
                state.request.app.queue.appendleft(state.request)
        state.thread = None
        state.request = None
        if victim is not None and victim.state is not UThreadState.DEAD:
            if victim.rogue:
                # A thread that ignores the preemption protocol loses its
                # right to run (§4.3's non-cooperative case): destroy it
                # rather than return it to the best-effort queue.
                victim.core_id = None
                victim.destroy()
                self.rogue_kills += 1
                if self.ledger.enabled:
                    self.ledger.count_op("fault:rogue_kill", core=core_id,
                                         domain="fault")
            elif not victim.payload.is_latency:
                self._return_be(victim)
            else:
                victim.state = UThreadState.PARKED
                victim.core_id = None
                self._apps[victim.payload.name].parked.append(victim)
        # Consume whatever commands are still queued in kernel-forced
        # privileged mode; the stuck thread itself installs below, any
        # other still-live RUN_THREAD target goes to the FIFO.
        thread = pending.thread
        for command in self.domain.process_commands(core_id):
            if command.kind is not CommandKind.RUN_THREAD:
                continue
            other = command.payload
            if other is not thread and other.state is not UThreadState.DEAD \
                    and other.uproc.alive:
                state.fifo.append(other)
                self._apps[other.payload.name].queued_servers += 1
        if thread.state is UThreadState.DEAD or not thread.uproc.alive:
            state.kind = None
            self._fill_core(state)
            return
        state.kind = "switch"
        cost = self.costs.kernel_ctx_switch_ns
        if self.ledger.enabled:
            self.ledger.charge("fallback:forced_switch", cost, core=core_id,
                               domain="fallback")
        state.core.run("kernel", cost, self._forced_switch_done, state, thread)

    def _forced_switch_done(self, state: _CoreState,
                            thread: UThread) -> None:
        if thread.state is UThreadState.DEAD or not thread.uproc.alive:
            state.kind = None
            state.thread = None
            self._fill_core(state)
            return
        self._start_thread(state, thread, preempt=False)

    def _on_uintr(self, core_id: int) -> None:
        """Uintr handler: runs on the victim core, in privileged mode."""
        state = self._cores[core_id]
        current = state.thread
        if current is not None and current.rogue:
            # Non-cooperative thread: it runs with user interrupts masked,
            # so the handler never executes and commands stay queued.  The
            # watchdog escalates to the kernel-IPI path.
            if self.ledger.enabled:
                self.ledger.count_op("fault:rogue_ignore", core=core_id,
                                     domain="fault")
            return
        self._ack_preempt(core_id)
        commands = self.domain.process_commands(core_id)
        for command in commands:
            if command.kind is not CommandKind.RUN_THREAD:
                continue
            thread = command.payload
            if thread.state is UThreadState.DEAD or not thread.uproc.alive:
                continue
            if state.batch_run is not None:
                state.batch_run.preempt()
                be_thread, state.batch_run = state.thread, None
                if be_thread is not None:
                    self._return_be(be_thread)
            elif state.core.busy:
                # The core moved on (e.g. started an L thread) between
                # send and delivery; queue the thread instead.
                state.fifo.append(thread)
                self._apps[thread.payload.name].queued_servers += 1
                continue
            self._start_thread(state, thread, preempt=True)
        # Every command may have targeted a since-dead thread (its app
        # was torn down between send and delivery): release the core
        # reservation or a batch chunk's completion would wait forever
        # for an install that is never coming.
        self._release_switch_reservation(state)
        if state.kind is None and not state.core.busy:
            self._fill_core(state)

    def _release_switch_reservation(self, state: _CoreState) -> None:
        """Clear a stale "switch" reservation whose incoming thread is
        gone (command consumed, or its app died mid-protocol).  A still
        running batch chunk keeps the core; an empty idle core returns
        to the pool for the next scan."""
        if state.kind != "switch":
            return
        if state.batch_run is not None:
            state.kind = "B"
        elif not state.core.busy:
            state.kind = None
            state.thread = None

    def _start_thread(self, state: _CoreState, thread: UThread,
                      preempt: bool) -> None:
        state.kind = "switch"
        state.thread = thread
        cost = self.switcher.switch(state.core, thread, preempt=preempt)
        if preempt:
            # senduipi + delivery already elapsed as event time.
            cost = max(1, cost - self.costs.uintr_send_ns
                       - self.costs.uintr_deliver_ns)
        state.core.run("runtime", cost, self._begin_run, state)

    def _begin_run(self, state: _CoreState) -> None:
        thread = state.thread
        assert thread is not None
        app: App = thread.payload
        state.run_started = self.sim.now
        if app.is_latency:
            state.kind = "L"
            self._serve_next(state)
        else:
            state.kind = "B"
            self._run_batch_chunk(state)

    # ------------------------------------------------------------------
    # Latency-app serving loop
    # ------------------------------------------------------------------
    def _serve_next(self, state: CoreState) -> None:
        thread = state.thread
        app: App = thread.payload
        # Time-sliced rotation: at a request boundary, yield to the run
        # queue's head once this thread has held the core for its
        # policy-set quantum.  The slice ends early anyway whenever the
        # app's queue drains, so the quantum only binds for backlogged
        # applications.
        quantum = self.policy.quantum_ns(state)
        if state.fifo and quantum is not None \
                and self.sim.now - state.run_started >= quantum:
            decision = self.policy.on_quantum_expiry(state)
            if isinstance(decision, Rotate) \
                    and decision.core_id == state.core.id:
                self.rotations += 1
                if self.ledger.enabled:
                    self.ledger.count_op("sched_rotation",
                                         core=state.core.id,
                                         domain="vessel")
                self._park_thread(state, requeue=bool(app.queue))
                return
            # None (or anything else): the policy lets the thread keep
            # the core past its quantum.
        request = self.policy.pick_request(state, app)
        if request is None:
            self.policy.on_thread_park(state, thread)
            self._park_thread(state, requeue=False)
            return
        state.request = request
        self.begin_service(request, core_id=state.core.id)
        state.core.run(app.category, self.effective_service_ns(request),
                       self._request_done, state, request)

    def _request_done(self, state: CoreState, request: Request) -> None:
        state.request = None
        if request.io_wait_ns > 0 and not request.io_done:
            # Park on the device (§4.4): the IO proceeds asynchronously
            # through the runtime's dataplane while this core serves
            # other threads; the completion re-queues the CPU tail.
            request.io_done = True
            if self.flight.enabled:
                self.flight.mark(request, "io_park")
            self.sim.post(request.io_wait_ns, self._io_complete, request)
            self._serve_next(state)
            return
        request.app.complete(request, self.sim.now)
        if self.flight.enabled:
            self.flight.on_complete(request)
        self.policy.on_request_done(state, request)
        self._serve_next(state)

    def _io_complete(self, request: Request) -> None:
        state = self._apps.get(request.app.name)
        if state is None:
            return  # app destroyed while the IO was in flight
        request.service_ns = max(1, request.post_io_service_ns)
        if self.flight.enabled:
            self.flight.mark(request, "io_done")
        request.app.queue.appendleft(request)
        self._dispatch_app(state)

    def _park_thread(self, state: _CoreState, requeue: bool) -> None:
        """The current thread parks (queue empty) or rotates (requeue)."""
        thread = state.thread
        app_state = self._apps[thread.payload.name]
        thread.state = UThreadState.PARKED
        if requeue:
            state.fifo.append(thread)
            app_state.queued_servers += 1
        else:
            app_state.parked.append(thread)
        state.thread = None
        state.kind = None
        # The park's call-gate traversal is part of the switch cost the
        # next _start_thread charges (that composite is what Table 1's
        # ping-pong experiment measures).
        self.switcher.park_current(state.core)
        self._fill_core(state)

    # ------------------------------------------------------------------
    # Batch chunks
    # ------------------------------------------------------------------
    def _run_batch_chunk(self, state: _CoreState) -> None:
        thread = state.thread
        app: App = thread.payload
        work = app.batch_work
        state.batch_run = work.start(
            state.core, on_done=lambda: self._batch_chunk_done(state))

    def _batch_chunk_done(self, state: _CoreState) -> None:
        state.batch_run = None
        if state.thread is not None and state.thread.rogue \
                and state.thread.state is not UThreadState.DEAD:
            # A rogue thread never yields at chunk boundaries either: it
            # immediately starts more work, holding the core until the
            # kernel-IPI fallback evicts it.  (kind is left untouched so
            # an in-flight "switch" reservation stays visible.)
            self._run_batch_chunk(state)
            return
        if state.kind == "switch":
            # A preemption Uintr is in flight; hand the BE thread back and
            # let the handler install the latency thread on arrival.
            if state.thread is not None:
                self._return_be(state.thread)
                state.thread = None
            return
        if state.kind != "B" or state.thread is None:
            return
        # Yield to queued latency threads at chunk boundaries for free.
        if state.fifo:
            be_thread = state.thread
            self._return_be(be_thread)
            state.kind = None
            state.thread = None
            self._fill_core(state)
            return
        self._run_batch_chunk(state)

    # ------------------------------------------------------------------
    # uProcess termination (manager kill path, fault shielding §4.3)
    # ------------------------------------------------------------------
    def inject_fault(self, core_id: int):
        """A fault signal arrived on ``core_id`` (e.g. SIGSEGV).

        The runtime identifies the faulty uProcess via CPUID_TO_TASK_MAP
        and broadcasts kill commands (§4.3); the scheduler then detaches
        the application.  Returns the terminated app, or None if the core
        was not running one.
        """
        condemned = self.domain.handle_fault(core_id)
        if condemned is None:
            return None
        state = next((s for s in self._apps.values()
                      if s.uproc is condemned), None)
        if state is None:
            return None
        self._detach_app(state)
        return state.app

    def crash_uproc(self, app_name: str) -> bool:
        """Fault injection: an MPK fault fires inside a running thread of
        ``app_name`` (a wild store hit another slot's pkey).

        The faulting instruction raises SIGSEGV on the uProcess's boot
        kProcess.  With containment the runtime's registered handler
        (§4.3) tears the uProcess down and every resource is reclaimed;
        without it the kernel's default action kills the whole kProcess
        and the core is lost (wedged) — the ablation shows exactly what
        fault shielding buys.  Returns False if no core is currently
        running the app.
        """
        state = self._apps.get(app_name)
        if state is None:
            return False
        cs = next((c for c in self._cores.values()
                   if c.thread is not None and c.thread.payload is state.app
                   and c.kind in ("L", "B")), None)
        if cs is None:
            return False
        if self.ledger.enabled:
            self.ledger.count_op("fault:uproc_crash", core=cs.core.id,
                                 domain="fault")
        # The faulting instruction aborts the in-flight segment; the
        # request it was serving is lost (clients see resets, §5.1).
        if cs.batch_run is not None:
            cs.batch_run.preempt()
            cs.batch_run = None
        elif cs.core.busy:
            cs.core.preempt()
        cs.request = None
        self.signals.post(state.uproc.boot_kprocess, Signal(SIGSEGV))
        if not self.containment:
            # No handler registered: the kProcess dies and takes the core
            # with it.  Slot, pkey, and descriptors all leak.
            cs.core.wedge()
            cs.kind = "wedged"
            cs.thread = None
        return True

    def _on_sigsegv(self, uproc) -> None:
        """Runtime SIGSEGV handler (§4.3): full crash containment."""
        self.contained_crashes += 1
        if self.ledger.enabled:
            self.ledger.count_op("fault:crash_contained", domain="fault")
        state = next((s for s in self._apps.values() if s.uproc is uproc),
                     None)
        if state is not None:
            self._detach_app(state)
        else:
            self.domain.reap(uproc)

    def make_rogue(self, app_name: str) -> bool:
        """Fault injection: mark ``app_name``'s currently running thread
        non-cooperative — it stops acting on preemption commands and
        never yields, until the kernel-IPI fallback evicts and kills it.
        Returns False if the app has no thread on a core right now.
        """
        state = self._apps.get(app_name)
        if state is None:
            return False
        thread = next((t for t in state.threads
                       if t.state is UThreadState.RUNNING
                       and t.core_id is not None), None)
        if thread is None:
            cs = next((c for c in self._cores.values()
                       if c.thread is not None
                       and c.thread.payload is state.app
                       and c.kind in ("L", "B")), None)
            if cs is None:
                return False
            thread = cs.thread
        thread.rogue = True
        if self.ledger.enabled:
            self.ledger.count_op("fault:rogue_thread", domain="fault")
        return True

    def remove_app(self, app_name: str):
        """Destroy an application (the §5.1 manager kill flow)."""
        state = self._apps.get(app_name)
        if state is None:
            raise KeyError(f"no app named {app_name!r}")
        self.manager.destroy_uprocess(self.domain, state.uproc)
        self._detach_app(state)
        return state.app

    def _detach_app(self, state: AppState) -> None:
        app = state.app
        self.policy.on_app_removed(state)
        # Preempt every core currently running (or switching to) it and
        # consume the pending kill commands in privileged mode.
        for cs in self._cores.values():
            cs.fifo.purge(lambda t: t.payload is app)
            if cs.thread is not None and cs.thread.payload is app:
                if cs.batch_run is not None:
                    cs.batch_run.preempt()
                    cs.batch_run = None
                elif cs.core.busy:
                    cs.core.preempt()
                cs.thread = None
                cs.request = None
                cs.kind = None
            if cs.kind != "wedged":
                # Consuming the kill commands drains the whole queue, so
                # a RUN_THREAD for a *surviving* app must be re-routed to
                # the core's FIFO — dropping it would strand a thread
                # that was already claimed out of its app's parked list.
                for command in self.domain.process_commands(cs.core.id):
                    if command.kind is not CommandKind.RUN_THREAD:
                        continue
                    other = command.payload
                    if other.state is UThreadState.DEAD \
                            or not other.uproc.alive:
                        continue
                    cs.fifo.append(other)
                    self._apps[other.payload.name].queued_servers += 1
                    pending = self._pending_preempts.get(cs.core.id)
                    if pending is not None and pending.thread is other:
                        # The preemption protocol resolved by requeueing;
                        # escalation would install the thread twice.
                        self._ack_preempt(cs.core.id)
                        self._release_switch_reservation(cs)
            pending = self._pending_preempts.get(cs.core.id)
            if pending is not None and pending.thread.payload is app:
                self._ack_preempt(cs.core.id)
                self._release_switch_reservation(cs)
        # Full teardown: threads, queued commands, proxied descriptors,
        # SMAS slot + pkey (revoked until the slot is reused), and the
        # runtime's SIGSEGV registration for the departing boot kProcess.
        self.signals.unregister(state.uproc.boot_kprocess, SIGSEGV)
        self.domain.reap(state.uproc)
        self._be_queue = deque(t for t in self._be_queue
                               if t.payload is not app)
        self._suspended_threads = deque(t for t in self._suspended_threads
                                        if t.payload is not app)
        # In-flight requests of a dead application are dropped (clients
        # observe connection resets).
        app.queue.clear()
        self._apps.pop(app.name, None)
        if app in self.apps:
            self.apps.remove(app)
        state.parked.clear()
        state.queued_servers = 0
        for cs in self._cores.values():
            if cs.kind is None and not cs.core.busy:
                self._fill_core(cs)

    # ------------------------------------------------------------------
    # Batch-app duty cycling (used by bandwidth regulation, Figure 13b)
    # ------------------------------------------------------------------
    def suspend_batch_app(self, app_name: str) -> None:
        """Stop scheduling this B-app; running chunks are preempted now.

        Core reallocation in VESSEL is cheap enough (~0.16 µs) that
        suspending and resuming at tens-of-microseconds windows is viable
        — this is exactly what makes its bandwidth regulation accurate.
        """
        if app_name in self._suspended_apps:
            return
        self._suspended_apps.add(app_name)
        for state in self._cores.values():
            if state.kind == "B" and state.thread is not None \
                    and state.thread.payload.name == app_name:
                if state.batch_run is not None:
                    state.batch_run.preempt()
                    state.batch_run = None
                state.thread.state = UThreadState.PARKED
                state.thread.core_id = None
                self._suspended_threads.append(state.thread)
                state.thread = None
                state.kind = None
                self._fill_core(state)

    def resume_batch_app(self, app_name: str) -> None:
        """Allow the B-app to be scheduled again."""
        if app_name not in self._suspended_apps:
            return
        self._suspended_apps.discard(app_name)
        held = [t for t in self._suspended_threads
                if t.payload.name == app_name]
        self._suspended_threads = deque(
            t for t in self._suspended_threads
            if t.payload.name != app_name)
        self._be_queue.extend(held)
        for state in self._cores.values():
            if state.kind is None and not state.core.busy:
                self._fill_core(state)
