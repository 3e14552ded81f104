"""Shared experiment infrastructure.

The paper's testbed (32 hyperthreads, seconds-long runs, up to 16 Mops/s)
is too large for a Python discrete-event simulator to sweep in CI, so
configurations are reduced: the default "smoke" profile uses 8 worker
cores and tens of milliseconds of simulated time, and the "paper" profile
uses 32 workers and longer windows.  Latency percentiles and orderings
transfer across profiles; the efficiency fractions are calibrated at the
smoke scale (with more cores a pooled queue smooths scheduler churn, so
Caladan's modeled waste shrinks below the paper's testbed numbers — see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import summarize_ns
from repro.sim.trace import Tracer
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.net import NetConfig, NetFabric
from repro.obs.flight import FlightRecorder, format_breakdown
from repro.obs.ledger import OpLedger
from repro.obs.timeseries import GaugeSeries
from repro.hardware.timing import CostModel
from repro.sched.base import ColocationSystem, SystemReport
from repro.vessel.scheduler import VesselSystem
from repro.baselines.arachne import ArachneSystem
from repro.baselines.caladan import CaladanSystem, caladan_dr_l, caladan_dr_h
from repro.baselines.ideal import IdealSystem
from repro.baselines.linux_cfs import LinuxCfsSystem
from repro.workloads.base import BurstySource, OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.membench import membench_app
from repro.workloads.memcached import (
    memcached_app,
    UsrPayloadSampler,
    UsrServiceSampler,
)
from repro.workloads.silo import TpccPayloadSampler, silo_app, \
    silo_service_sampler


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment."""

    num_workers: int = 8
    sim_ms: int = 30
    warmup_ms: int = 5
    seed: int = 42
    membus_gbps: float = 40.0
    bursty: bool = False
    connections_per_app: int = 10
    costs: CostModel = field(default_factory=CostModel)
    #: print the per-op ledger breakdown after each run
    op_breakdown: bool = False
    #: write a Chrome trace_event JSON file after each run
    trace_out: Optional[str] = None
    #: simulate clients/link/NIC (None = direct submit, the seed-faithful
    #: default); set to a NetConfig to measure client-observed latency
    net: Optional[NetConfig] = None
    #: worker processes for sweep fan-out (run_colocation_batch); results
    #: and captured stdout merge in task order, so any value produces
    #: byte-identical output to jobs=1 under the same seed
    jobs: int = 1
    #: scheduling policy for VESSEL runs (see ``repro.sched.policy``);
    #: None = the stock policy.  Baselines ignore it — their policies
    #: ARE the comparison.
    policy: Optional[str] = None
    #: constructor kwargs for the policy (e.g. MLFQ levels, priorities)
    policy_params: Dict = field(default_factory=dict)
    #: print the per-app per-stage latency decomposition after each run
    #: (turns the per-request FlightRecorder on)
    latency_breakdown: bool = False
    #: capture the K slowest requests' full flight-mark lists
    trace_requests: int = 0
    #: retired engine knobs: kept because perfbench/workloads.py pins them
    fluid: str = "off"
    engine: str = "heap"

    def __post_init__(self) -> None:
        if self.fluid != "off":
            raise ValueError(f"fluid={self.fluid!r}: the fluid engine was "
                             f"removed; only 'off' is accepted")
        if self.engine != "heap":
            raise ValueError(f"engine={self.engine!r}: the calendar queue "
                             f"was removed; only 'heap' is accepted")

    @property
    def observability(self) -> bool:
        """True when a run needs a real (non-null) operation ledger."""
        return self.op_breakdown or self.trace_out is not None

    @property
    def flight_on(self) -> bool:
        """True when a run records per-request flights (strictly opt-in:
        default runs stay byte-identical with the recorder off)."""
        return self.latency_breakdown or self.trace_requests > 0

    @property
    def measure_ns(self) -> int:
        return (self.sim_ms - self.warmup_ms) * MS

    def scaled(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


#: the "paper" profile: closer to the testbed scale (slow; not used in CI)
PAPER_PROFILE = dict(num_workers=32, sim_ms=120, warmup_ms=20)


def system_factory(name: str) -> Callable[..., ColocationSystem]:
    factories = {
        "ideal": IdealSystem,
        "vessel": VesselSystem,
        "caladan": CaladanSystem,
        "caladan-dr-l": caladan_dr_l,
        "caladan-dr-h": caladan_dr_h,
        "arachne": ArachneSystem,
        "linux-cfs": LinuxCfsSystem,
    }
    try:
        return factories[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; "
                         f"choose from {sorted(factories)}") from None


def make_l_app(kind: str, name: str, rngs: RngStreams):
    """Returns (app, service_sampler) for an L-app kind."""
    if kind == "memcached":
        return (memcached_app(name),
                UsrServiceSampler(rngs.stream(f"svc/{name}")))
    if kind == "silo":
        return silo_app(name), silo_service_sampler(rngs.stream(f"svc/{name}"))
    raise ValueError(f"unknown L-app kind {kind!r}")


def make_payload_sampler(kind: str, name: str, rngs: RngStreams):
    """Wire-size sampler for an L-app kind (only the net path draws from
    it, on its own ``net/payload/*`` stream, so direct-submit runs see
    unchanged randomness)."""
    if kind == "memcached":
        return UsrPayloadSampler(rngs.stream(f"net/payload/{name}"))
    if kind == "silo":
        return TpccPayloadSampler(rngs.stream(f"net/payload/{name}"))
    raise ValueError(f"unknown L-app kind {kind!r}")


def run_colocation(system_name: str, cfg: ExperimentConfig,
                   l_specs: Sequence[Tuple[str, str, float]],
                   b_specs: Sequence[str] = ("linpack",),
                   bus_sensitivity: float = 0.0,
                   caladan_bw_cap: Optional[Tuple[str, float]] = None,
                   vessel_bw_cap: Optional[Tuple[str, float]] = None,
                   setup_hook: Optional[Callable] = None,
                   admission=None, trace=None, churn=None,
                   fault_plan=None,
                   track_queues: bool = False,
                   rng_namespace: Optional[str] = None) -> SystemReport:
    """Build and run one colocation simulation.

    ``l_specs`` rows are ``(kind, name, rate_mops)``; ``b_specs`` are
    B-app kinds ("linpack" / "membench").  Bandwidth caps (Figure 13) are
    ``(app_name, gbps)`` and are applied with each system's native
    mechanism: core-granular ticks for Caladan, duty-cycling for VESSEL.

    Overload/robustness extras (all picklable, so batch sweeps fan out):
    ``admission`` (an ``AdmissionConfig``) interposes load shedding on
    the submit boundary and NIC ingress; ``trace`` (a ``LoadTrace``)
    shapes every generator's offered rate; ``churn`` (a ``ChurnConfig``)
    runs continuous tenant create/destroy; ``fault_plan`` attaches a
    chaos plan (churn alone also attaches an empty-plan injector, purely
    for the post-run containment audit); ``track_queues`` samples L-app
    queue depths through the measurement window for the
    graceful-degradation signal (``queue_peak`` / ``queue_final``).

    ``rng_namespace`` spawns the run's RNG streams from a named child
    root instead of the raw seed, so many runs sharing one seed (the
    cluster layer's per-server simulations) draw fully independent
    randomness while staying reproducible.  ``None`` — the default —
    is byte-identical to the historical behaviour.
    """
    sim = Simulator()
    # Observability must be wired before the system is built: layers
    # capture the machine's ledger at construction time.
    ledger = None
    tracer = None
    if cfg.observability:
        tracer = Tracer(sim) if cfg.trace_out is not None else None
        ledger = OpLedger(sim=sim, tracer=tracer,
                          capture_events=cfg.trace_out is not None)
    flight = None
    gauges = None
    if cfg.flight_on:
        flight = FlightRecorder(sim,
                                reservoir_k=max(cfg.trace_requests, 4))
        gauges = GaugeSeries(sim)
    machine = Machine(sim, cfg.costs, cfg.num_workers + 1,
                      membus_gbps=cfg.membus_gbps, ledger=ledger,
                      flight=flight)
    if tracer is not None:
        machine.attach_tracer(tracer)
    rngs = RngStreams(cfg.seed)
    if rng_namespace is not None:
        rngs = rngs.spawn(rng_namespace)
    workers = machine.cores[1:]

    factory = system_factory(system_name)
    kwargs = {}
    if system_name == "vessel" and cfg.policy is not None:
        from repro.sched.policy import make_policy
        kwargs["policy"] = make_policy(cfg.policy, **cfg.policy_params)
    if system_name in ("caladan", "caladan-dr-l", "caladan-dr-h") \
            and caladan_bw_cap is not None:
        if system_name == "caladan":
            kwargs = {"bw_cap_app": caladan_bw_cap[0],
                      "bw_cap_gbps": caladan_bw_cap[1]}
        else:
            raise ValueError("bandwidth caps only wired for plain caladan")
    system = factory(sim, machine, rngs, worker_cores=workers, **kwargs)
    system.bus_sensitivity = bus_sensitivity

    # Admission control must interpose before anything snapshots the
    # system's bound ``submit`` (direct sources and fabric.connect both
    # capture the reference), so it attaches immediately.
    admission_ctl = None
    if admission is not None:
        from repro.overload.admission import AdmissionControl
        admission_ctl = AdmissionControl(sim, admission, ledger=ledger)
        admission_ctl.attach(system)

    # Load delivery: direct submit (the seed-faithful default) or the
    # simulated client/link/NIC fabric (client-observed percentiles).
    fabric = None
    if cfg.net is not None:
        fabric = NetFabric(sim, cfg.net, rngs, num_workers=len(workers),
                           ledger=ledger, flight=flight)
    sources = []
    for kind, name, rate in l_specs:
        app, sampler = make_l_app(kind, name, rngs)
        system.add_app(app)
        if fabric is not None:
            fabric.add_workload(app, rate, sampler,
                                make_payload_sampler(kind, name, rngs),
                                cfg.connections_per_app)
        else:
            source_cls = BurstySource if cfg.bursty else OpenLoopSource
            sources.append(source_cls(
                sim, app, system.submit, rate, sampler,
                rngs.stream(f"arrivals/{name}"),
                connections=cfg.connections_per_app,
            ))
    for kind in b_specs:
        if kind == "linpack":
            system.add_app(linpack_app())
        elif kind == "membench":
            system.add_app(membench_app(machine.membus))
        else:
            raise ValueError(f"unknown B-app kind {kind!r}")

    if fabric is not None:
        fabric.connect(system)
        if admission_ctl is not None:
            fabric.admission = admission_ctl
    system.start()
    injector = None
    if fault_plan is not None or churn is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        injector = FaultInjector(fault_plan if fault_plan is not None
                                 else FaultPlan(seed=cfg.seed))
        injector.attach(system)
    churn_driver = None
    if churn is not None:
        from repro.overload.churn import ChurnDriver
        churn_driver = ChurnDriver(sim, system, rngs, churn)
        churn_driver.start()
    if trace is not None:
        from repro.overload.trace import LoadShaper
        shaper = LoadShaper(sim, trace)
        if fabric is not None:
            shaper.attach_fabric(fabric)
        for source in sources:
            shaper.attach_source(source)
        shaper.start()
    queue_peaks: Dict[str, int] = {}
    if track_queues:
        def _sample_queues() -> None:
            for app in system.apps:
                if app.is_latency and \
                        len(app.queue) > queue_peaks.get(app.name, 0):
                    queue_peaks[app.name] = len(app.queue)
            sim.post(50_000, _sample_queues)
        sim.at(cfg.warmup_ms * MS, _sample_queues)
    if vessel_bw_cap is not None and system_name == "vessel":
        from repro.vessel.regulation import VesselBandwidthRegulator
        regulator = VesselBandwidthRegulator(
            sim, system, machine.membus,
            app_name=vessel_bw_cap[0], target_gbps=vessel_bw_cap[1])
        regulator.start()
    if setup_hook is not None:
        setup_hook(sim, machine, system)
    if gauges is not None:
        _wire_gauges(gauges, system, workers, fabric, admission_ctl)
        gauges.start()

    sim.at(cfg.warmup_ms * MS, system.begin_measurement)
    if fabric is not None:
        sim.at(cfg.warmup_ms * MS, fabric.begin_measurement)
    if admission_ctl is not None:
        sim.at(cfg.warmup_ms * MS, admission_ctl.begin_measurement)
    if flight is not None:
        sim.at(cfg.warmup_ms * MS, flight.begin_measurement)
        if gauges is not None:
            sim.at(cfg.warmup_ms * MS, gauges.begin_measurement)
    sim.run(until=cfg.sim_ms * MS)
    if ledger is not None:
        if cfg.op_breakdown:
            print(f"\n[{system_name}] per-op breakdown "
                  f"(measurement window)")
            print(ledger.breakdown_table())
        if cfg.trace_out is not None:
            ledger.write_chrome_trace(cfg.trace_out, flight=flight,
                                      gauges=gauges)
            print(f"[{system_name}] wrote Chrome trace to {cfg.trace_out}")
    report = system.report()
    report.events_fired = sim.events_fired
    if flight is not None:
        report.latency_stages = flight.stage_summaries()
        report.flight_counts = flight.outcome_counts()
        report.slow_traces = flight.slowest_traces()
        report.flight_audit = flight.audit() \
            + _flight_conservation(flight, fabric, system)
        if gauges is not None:
            report.gauges = gauges.summary()
        if cfg.latency_breakdown:
            samples = _authoritative_samples(fabric, system)
            print(format_breakdown(system_name, report.latency_stages,
                                   client_samples=samples))
            if report.flight_audit:
                print(f"[{system_name}] TRACE AUDIT FAILED:")
                for violation in report.flight_audit:
                    print(f"  {violation}")
        if cfg.trace_requests > 0:
            shown = report.slow_traces[:cfg.trace_requests]
            print(f"[{system_name}] {len(shown)} slowest requests:")
            for trace in shown:
                path = " -> ".join(
                    f"{label}@{ts}" + (f"/c{core}" if core is not None
                                       else "")
                    for label, ts, core in trace["marks"])
                print(f"  {trace['app']} "
                      f"{trace['total_ns'] / 1000.0:.1f}us: {path}")
    from repro.obs.hist import LogHistogram
    for app in system.apps:
        if app.is_latency:
            report.latency_hist[app.name] = \
                LogHistogram.from_samples(app.latency.samples)
    if fabric is not None:
        for name, recorder in fabric.client_latency.items():
            report.client_latency[name] = summarize_ns(recorder.samples)
            report.client_hist[name] = \
                LogHistogram.from_samples(recorder.samples)
        report.net_ops = fabric.counters_snapshot()
        report.net_conservation = fabric.conservation()
    if admission_ctl is not None:
        report.admission = admission_ctl.snapshot()
    if injector is not None:
        report.uncontained = injector.uncontained()
        report.fault_injected = {kind.value: count for kind, count
                                 in injector.injected.items() if count}
    if churn_driver is not None:
        report.churn = churn_driver.snapshot()
    if track_queues:
        report.queue_peak = dict(sorted(queue_peaks.items()))
        report.queue_final = {app.name: len(app.queue)
                              for app in system.apps if app.is_latency}
    policy_obj = getattr(system, "policy", None)
    if policy_obj is not None and hasattr(policy_obj, "scaling_snapshot"):
        report.autoscale = policy_obj.scaling_snapshot()
    return report


def _wire_gauges(gauges, system, workers, fabric, admission_ctl) -> None:
    """Register the standard system-state probes on ``gauges``.

    Probes are pure reads over components that already exist, so the
    sampled run differs from an unsampled one only by the tick events.
    """
    gauges.add_probe(
        "busy_cores",
        lambda: sum(1 for core in workers if core.busy))
    for app in system.apps:
        if app.is_latency:
            gauges.add_probe(f"queue:{app.name}",
                             lambda a=app: len(a.queue))
    if fabric is not None:
        gauges.add_probe(
            "net_inflight",
            lambda: sum(fabric.inflight.values()))
    if admission_ctl is not None:
        last_shed = [0]

        def _shed_rate() -> int:
            total = admission_ctl.total_shed()
            delta = total - last_shed[0]
            last_shed[0] = total
            # begin_measurement resets the counter mid-run; clamp the
            # one negative delta that produces.
            return max(0, delta)

        gauges.add_probe("shed_per_tick", _shed_rate)
    policy = getattr(system, "policy", None)
    if policy is not None and hasattr(policy, "be_allowed"):
        gauges.add_probe(
            "be_core_cap",
            lambda: -1 if policy.be_allowed is None else policy.be_allowed)


def _authoritative_samples(fabric, system) -> Dict[str, List[int]]:
    """Per-app latency samples of the independent (non-flight) recorder:
    client-observed when a fabric ran, server-side otherwise."""
    if fabric is not None:
        return {name: recorder.samples
                for name, recorder in fabric.client_latency.items()}
    return {app.name: app.latency.samples
            for app in system.apps if app.is_latency}


def _flight_conservation(flight, fabric, system) -> List[str]:
    """Cross-check flight aggregates against the independent recorders.

    Every ``done`` flight must correspond one-to-one with a sample of
    the authoritative latency recorder, with *exactly* equal integer
    sums — the span-conservation half of the trace-invariant audit (the
    other half, NetFabric's offered/completed/in-flight identity, is
    checked by ``report.net_conservation``).
    """
    violations: List[str] = []
    for name, samples in sorted(_authoritative_samples(fabric,
                                                       system).items()):
        totals = flight.done_totals(name)
        if len(totals) != len(samples):
            violations.append(
                f"{name}: {len(totals)} done flights but "
                f"{len(samples)} recorded latencies")
        elif sum(totals) != sum(samples):
            violations.append(
                f"{name}: flight latency sum {sum(totals)} != "
                f"recorded sum {sum(samples)}")
    return violations


# ----------------------------------------------------------------------
# Sweep fan-out
# ----------------------------------------------------------------------
def _colocation_worker(task):
    """Pool worker: one run_colocation call with stdout captured."""
    import contextlib
    import io

    system_name, cfg, kwargs = task
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report = run_colocation(system_name, cfg, **kwargs)
    return report, buffer.getvalue()


def run_colocation_batch(tasks: Sequence[Tuple[str, "ExperimentConfig",
                                               Dict]],
                         jobs: int = 1) -> List[SystemReport]:
    """Run independent :func:`run_colocation` calls, fanned out over
    ``jobs`` worker processes.

    ``tasks`` rows are ``(system_name, cfg, kwargs)`` with ``kwargs``
    passed through to :func:`run_colocation` (they must be picklable, so
    no closures as ``setup_hook``).  Reports come back in task order and
    each run's captured stdout is re-printed in task order, so a batch
    is byte-identical to the equivalent serial loop — each run owns its
    Simulator and seeded RNG streams, parallelism only changes wall
    time.  ``jobs <= 1`` runs everything in-process.
    """
    from repro.perf.parallel import parallel_map

    results = parallel_map(_colocation_worker, list(tasks), jobs)
    reports = []
    for report, text in results:
        if text:
            print(text, end="")
        reports.append(report)
    return reports


def merged_latency_summary(reports: Sequence[SystemReport], app_name: str,
                           client: bool = True) -> Dict[str, float]:
    """Latency summary for one app pooled *exactly* across many runs.

    Folds the per-run log-histograms (client-observed when ``client``,
    server-side otherwise) with the exact bucket merge — identical to
    histogramming the concatenated sample streams, with none of the
    percentile-of-percentiles bias that averaging per-run p99s would
    introduce.  This is how batch sweeps and the cluster layer roll a
    fleet of runs into one figure.
    """
    from repro.obs.hist import LogHistogram
    hists = []
    for report in reports:
        source = report.client_hist if client else report.latency_hist
        hist = source.get(app_name)
        if hist is not None:
            hists.append(hist)
    return LogHistogram.merged(hists).summary()


# ----------------------------------------------------------------------
# Normalization helpers (the footnote-1 formula)
# ----------------------------------------------------------------------
def l_capacity_mops(cfg: ExperimentConfig, mean_service_ns: float) -> float:
    """Max throughput of an L-app alone on all workers (ideal RTC)."""
    return cfg.num_workers * 1000.0 / mean_service_ns


def normalized_total(report: SystemReport, cfg: ExperimentConfig,
                     l_mean_service: Dict[str, float],
                     b_alone_useful: Optional[Dict[str, float]] = None) -> float:
    """Sum of per-app T_cur/T_max (footnote 1 of the paper).

    For L-apps T_max is the alone capacity; for B-apps T_max is all
    worker cores busy for the whole window unless ``b_alone_useful``
    supplies a measured alone run (needed for membench, whose alone
    throughput is bus-limited).
    """
    total = 0.0
    for name, mean_ns in l_mean_service.items():
        total += report.throughput_mops(name) / l_capacity_mops(cfg, mean_ns)
    denom_default = report.elapsed_ns * report.num_worker_cores
    for name, useful in report.useful_ns.items():
        alone = (b_alone_useful or {}).get(name, denom_default)
        if alone > 0:
            total += useful / alone
    return total


# ----------------------------------------------------------------------
# Pretty printing
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table (the bench harness prints these)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(headers))))
    return "\n".join(lines)


def parse_profile(argv: Optional[List[str]] = None) -> ExperimentConfig:
    """--scale smoke|paper command-line handling for __main__ blocks."""
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=["smoke", "paper"],
                        default="smoke")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--op-breakdown", action="store_true",
                        help="print the per-op ledger breakdown")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON file")
    parser.add_argument("--net", action="store_true",
                        help="deliver load through the simulated "
                             "client/link/NIC fabric (repro.net)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for sweep fan-out "
                             "(byte-identical output to --jobs 1)")
    parser.add_argument("--policy", default=None, metavar="NAME",
                        help="scheduling policy for VESSEL runs "
                             "(default/mlfq/sjf/trust-group/priority; "
                             "see 'python -m repro policies')")
    parser.add_argument("--latency-breakdown", action="store_true",
                        help="record per-request flights and print the "
                             "per-app per-stage latency decomposition")
    parser.add_argument("--trace-requests", type=int, default=0,
                        metavar="K",
                        help="capture and print the K slowest requests' "
                             "full stage-span lists")
    args = parser.parse_args(argv)
    cfg = ExperimentConfig(seed=args.seed, op_breakdown=args.op_breakdown,
                           trace_out=args.trace_out,
                           net=NetConfig() if args.net else None,
                           jobs=max(1, args.jobs), policy=args.policy,
                           latency_breakdown=args.latency_breakdown,
                           trace_requests=max(0, args.trace_requests))
    if args.scale == "paper":
        cfg = cfg.scaled(**PAPER_PROFILE)
    return cfg
