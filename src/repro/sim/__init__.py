"""Deterministic discrete-event simulation kernel.

All simulated time is integer nanoseconds.  The engine provides cancellable
events, deterministic named RNG streams, and the measurement primitives
(latency recorders, time-weighted values, busy-time accounting) used by
every experiment in the reproduction.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.rng import RngStreams
from repro.sim.stats import (
    BusyAccounter,
    Counter,
    LatencyRecorder,
    TimeWeightedValue,
    summarize_ns,
)
from repro.sim.trace import Tracer, render_timeline
from repro.sim.units import NS, US, MS, SEC

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RngStreams",
    "LatencyRecorder",
    "Counter",
    "TimeWeightedValue",
    "BusyAccounter",
    "summarize_ns",
    "Tracer",
    "render_timeline",
    "NS",
    "US",
    "MS",
    "SEC",
]
