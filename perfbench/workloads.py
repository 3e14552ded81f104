"""The benchmark's three workloads, pinned here rather than imported.

Each workload is one ``run_colocation`` call on the exact engine
(``fluid="off"``, ``engine="heap"``), built only from the simulator's
public primitives.  The constants are copied, not imported from the
experiment modules, so that editing an experiment cannot silently change
what the benchmark measures.

``build(name, seed)`` returns ``(system_name, ExperimentConfig, kwargs)``
ready for ``run_colocation(system_name, cfg, **kwargs)``.  It imports
``repro`` lazily, so the parent process of the benchmark never needs it.
"""

from __future__ import annotations

#: workload name -> one-line description (also in BENCHMARK.json)
NAMES = ("vessel-scale", "caladan-scale", "net-overload")

#: primary (latency-critical) L-app per workload; its latency is the
#: l_p*_us metrics
PRIMARY_APP = {
    "vessel-scale": "memcached",
    "caladan-scale": "memcached",
    "net-overload": "mc",
}

#: scale workloads: the fig09/fig12-class cell (32 workers, bursty USR
#: memcached at 0.6 of L-app capacity beside linpack, direct submit)
SCALE_WORKERS = 32
SCALE_LOAD = 0.6
SCALE_SIM_MS = 6
SCALE_WARMUP_MS = 2

#: net-overload: the flash-crowd chaos arm plus churn and a silo L-app
NET_WORKERS = 8
NET_SIM_MS = 5
NET_WARMUP_MS = 2
NET_BASE_LOAD = 0.25          # of L-app capacity, before the trace
NET_SPIKE_FACTOR = 10.0       # flash-crowd peak multiplier
NET_SLO_P99_US = 200.0        # autoscale policy target
NET_SILO_MOPS = 0.05


def build(name: str, seed: int):
    """Return ``(system_name, cfg, run_colocation kwargs)`` for a workload."""
    from repro.experiments.common import ExperimentConfig, l_capacity_mops
    from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

    if name in ("vessel-scale", "caladan-scale"):
        cfg = ExperimentConfig(num_workers=SCALE_WORKERS,
                               sim_ms=SCALE_SIM_MS,
                               warmup_ms=SCALE_WARMUP_MS, seed=seed,
                               bursty=True, fluid="off", engine="heap")
        rate = SCALE_LOAD * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
        system = "vessel" if name == "vessel-scale" else "caladan"
        return system, cfg, dict(l_specs=[("memcached", "memcached", rate)],
                                 b_specs=("linpack",))
    if name == "net-overload":
        return _net_overload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _net_overload(seed: int):
    from repro.experiments.common import ExperimentConfig, l_capacity_mops
    from repro.faults.plan import FaultPlan
    from repro.net import NetConfig
    from repro.overload.admission import AdmissionConfig
    from repro.overload.churn import ChurnConfig
    from repro.overload.trace import flash_crowd_trace
    from repro.sim.units import MS, US
    from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

    # Clients hardened against retry storms: seeded exponential backoff
    # and a retry budget.
    net = NetConfig(backoff_base_ns=20 * US, backoff_jitter=0.5,
                    retry_budget=0.1)
    # trace_requests > 0 turns the flight recorder and gauges on without
    # the per-run breakdown table.
    cfg = ExperimentConfig(num_workers=NET_WORKERS, sim_ms=NET_SIM_MS,
                           warmup_ms=NET_WARMUP_MS, seed=seed, net=net,
                           policy="autoscale",
                           policy_params={"slo_p99_us": NET_SLO_P99_US},
                           trace_requests=2, fluid="off", engine="heap")
    base_rate = NET_BASE_LOAD * l_capacity_mops(cfg,
                                                MEMCACHED_MEAN_SERVICE_NS)
    spike_ns = int(0.5 * NET_SIM_MS * MS)
    chaos = (FaultPlan(seed=seed)
             .drop_packets(0.02)
             .delay_packets(2 * US, probability=0.05, at_ns=spike_ns)
             .drop_uintr(0.05, at_ns=spike_ns))
    admission = AdmissionConfig(max_queue_depth=16 * NET_WORKERS,
                                max_oldest_wait_ns=150 * US)
    churn = ChurnConfig(tenants=3, lifetime_us=400.0, respawn_gap_us=100.0,
                        rate_mops=0.2)
    return "vessel", cfg, dict(
        l_specs=[("memcached", "mc", base_rate),
                 ("silo", "silo", NET_SILO_MOPS)],
        b_specs=("linpack",),
        trace=flash_crowd_trace(NET_SIM_MS, NET_SPIKE_FACTOR),
        admission=admission, churn=churn, fault_plan=chaos,
        track_queues=True)
