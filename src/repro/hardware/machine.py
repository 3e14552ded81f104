"""Cores and machine topology.

A :class:`Core` is the execution resource every scheduler in this repo
multiplexes.  It runs one *segment* of work at a time (a request, a slice
of batch work, a stretch of runtime spinning, a kernel pipeline phase...),
attributes elapsed time to accounting categories (``app`` / ``runtime`` /
``kernel`` / ``idle``), and supports preemption: cancelling the in-flight
segment returns how much work was left, which the scheduler re-queues.

Cores also carry the architectural state the functional layer needs: the
PKRU register (MPK) and the user/kernel/runtime mode used by the Uintr
controller's suppress/resume logic.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import BusyAccounter
from repro.hardware.mpk import PkruRegister
from repro.hardware.timing import CostModel
from repro.obs.ledger import NULL_LEDGER, OpLedger


class CoreMode(enum.Enum):
    """Privilege mode of a core, as the uProcess design sees it."""

    USER = "user"          #: running application code
    RUNTIME = "runtime"    #: inside the userspace privileged mode (call gate)
    KERNEL = "kernel"      #: trapped into the Linux kernel
    IDLE = "idle"          #: UMWAIT / halted


class Core:
    """One hardware thread."""

    def __init__(self, sim: Simulator, core_id: int) -> None:
        self.sim = sim
        self.id = core_id
        self.pkru = PkruRegister(PkruRegister.ALL_DENIED_EXCEPT_0)
        self.mode = CoreMode.IDLE
        self.acct = BusyAccounter()
        self._category = "idle"
        self._since = sim.now
        self._segment_event: Optional[Event] = None
        self._segment_end = 0
        self._on_done: Optional[Callable[..., None]] = None
        #: positional arguments ``_on_done`` is called with
        self._on_done_args: tuple = ()
        #: opaque scheduler-owned state (current thread, app, ...)
        self.context: Any = None
        #: optional execution tracer (repro.sim.trace.Tracer)
        self.tracer = None
        #: True once the core is lost to an uncontained fault
        self.wedged = False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _switch_category(self, category: str) -> None:
        # The cold-path category change; :meth:`run` and
        # :meth:`_complete` repeat this bucket update inline because
        # they fire on every segment of every core.  ``acct.charge``'s
        # negative check is redundant: ``elapsed > 0`` guards it.
        now = self.sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.acct.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = category
        self._since = now

    def settle(self) -> None:
        """Flush accrued time in the current category into the accounter."""
        self._switch_category(self._category)

    @property
    def category(self) -> str:
        return self._category

    # ------------------------------------------------------------------
    # Segment execution
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._segment_event is not None

    def run(self, category: str, duration_ns: int,
            on_done: Optional[Callable[..., None]] = None,
            *args: Any) -> None:
        """Execute ``duration_ns`` of work attributed to ``category``.

        ``on_done(*args)`` fires when the segment completes (not if
        preempted); passing the arguments here, the way
        :meth:`Simulator.after` takes them, spares hot callers a
        closure per segment.  Starting a segment while one is in flight
        is a scheduler bug.
        """
        if self.wedged:
            raise SimulationError(f"core {self.id} is wedged")
        if self._segment_event is not None:
            raise SimulationError(f"core {self.id} is already busy")
        if duration_ns < 0:
            raise SimulationError(f"negative duration {duration_ns}")
        sim = self.sim
        now = sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.acct.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = category
        self._since = now
        self._on_done = on_done
        self._on_done_args = args
        self._segment_end = now + duration_ns
        self._segment_event = sim.after(duration_ns, self._complete)

    def _drop_segment(self) -> None:
        """Cancel the in-flight segment and forget its callback (and
        the arguments, which may hold a request alive)."""
        self._segment_event.cancel()
        self._segment_event = None
        self._on_done = None
        self._on_done_args = ()

    def preempt(self) -> int:
        """Cancel the in-flight segment; returns remaining nanoseconds."""
        if self._segment_event is None:
            raise SimulationError(f"core {self.id} has no segment to preempt")
        self._drop_segment()
        remaining = self._segment_end - self.sim.now
        self._switch_category("idle")
        return max(0, remaining)

    def set_idle(self) -> None:
        """Mark the core idle (UMWAIT); it must not have a running segment."""
        if self._segment_event is not None:
            raise SimulationError(f"core {self.id} is busy; preempt() first")
        self._switch_category("idle")
        self.mode = CoreMode.IDLE

    def wedge(self) -> None:
        """Lose the core to an uncontained fault.

        Any in-flight segment is abandoned, all further time accrues to
        the "wedged" category, and :meth:`run` refuses new segments.
        Used by fault-injection ablations to make the cost of *missing*
        containment visible in the accounting buckets.
        """
        if self._segment_event is not None:
            self._drop_segment()
        self.wedged = True
        self._switch_category("wedged")
        self.mode = CoreMode.KERNEL

    def _complete(self) -> None:
        self._segment_event = None
        now = self.sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.acct.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = "idle"
        self._since = now
        callback = self._on_done
        if callback is not None:
            args = self._on_done_args
            self._on_done = None
            self._on_done_args = ()
            callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.id} {self._category} mode={self.mode.value}>"


class Machine:
    """Cores plus the shared controllers every scheduler uses."""

    def __init__(self, sim: Simulator, costs: CostModel, num_cores: int,
                 membus_gbps: float = 40.0,
                 ledger: Optional[OpLedger] = None,
                 flight=None) -> None:
        from repro.hardware.ipi import IpiController
        from repro.hardware.membus import MemoryBus
        from repro.hardware.uintr import UintrController
        from repro.obs.flight import NULL_FLIGHT

        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive: {num_cores}")
        self.sim = sim
        self.costs = costs
        self.ledger = ledger or NULL_LEDGER
        #: per-request lifecycle recorder; systems built on this machine
        #: pick it up at construction time (NULL_FLIGHT records nothing)
        self.flight = flight or NULL_FLIGHT
        self.cores: List[Core] = [Core(sim, i) for i in range(num_cores)]
        self.uintr = UintrController(sim, costs, ledger=self.ledger)
        self.ipi = IpiController(sim, costs, ledger=self.ledger)
        self.membus = MemoryBus(sim, membus_gbps)
        self._propagate_ledger()

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def attach_tracer(self, tracer) -> None:
        """Record every core's activity spans into ``tracer``."""
        for core in self.cores:
            core.tracer = tracer

    def attach_ledger(self, ledger: OpLedger) -> None:
        """Route the hardware controllers' op charging through ``ledger``.

        Call before building a scheduler system on this machine so the
        system's own layers pick the ledger up at construction time.
        """
        self.ledger = ledger
        self._propagate_ledger()

    def _propagate_ledger(self) -> None:
        self.uintr.ledger = self.ledger
        self.ipi.ledger = self.ledger
        for core in self.cores:
            core.pkru.attach_ledger(self.ledger, core.id)

    def settle_all(self) -> None:
        for core in self.cores:
            core.settle()

    def total_accounting(self) -> BusyAccounter:
        """Aggregate per-core accounting into one accounter."""
        self.settle_all()
        total = BusyAccounter()
        for core in self.cores:
            for category, elapsed in core.acct.buckets.items():
                total.charge(category, elapsed)
        return total
