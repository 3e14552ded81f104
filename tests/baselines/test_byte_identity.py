"""Byte-identity regression for the two-level baselines (Caladan, Arachne).

``golden_baseline_reports.json`` was captured at commit ``c6bdb1b``,
before the per-request core scan on Caladan's and Arachne's arrival
path was replaced by a per-app index of waiting cores.  The scenarios
span the paths an index could drift on: bursty arrivals waking spinning
or idle-held cores, several L-apps competing for cores, requests that
park on storage IO and re-enter through Caladan's ``_io_complete``, the
core-granular bandwidth cap, and packet delivery through the simulated
NIC.  Reports, ledger op counts, the systems' own counters and the
engine's event count are compared *exactly*, floats included.
"""

import json
import os
import random

import pytest

from repro.experiments.common import ExperimentConfig, run_colocation
from repro.hardware.timing import CostModel
from repro.net import NetConfig
from repro.workloads.storage import StorageRequestSource

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_baseline_reports.json")

SYSTEMS = ("caladan", "caladan-dr-l", "caladan-dr-h", "arachne")

#: scenario -> (systems it runs on, run_one kwargs)
SCENARIOS = {
    "bursty_memcached": (SYSTEMS, dict(
        l_specs=[("memcached", "memcached", 4.8)], bursty=True)),
    "three_memcached_silo": (SYSTEMS, dict(
        l_specs=[("memcached", f"mc{i}", 1.6) for i in range(3)]
        + [("silo", "silo", 0.05)])),
    "storage_io": (SYSTEMS, dict(
        l_specs=[("memcached", "kv", 1.0)], storage_mops=1.0)),
    # Bandwidth caps are only wired for plain Caladan.  On a 42 GB/s
    # bus the first per-core sample is 6.0 GB/s, where the smoothing
    # expression 0.7 * x + 0.3 * x rounds to 5.999999999999999.
    "membench_bw_cap": (("caladan",), dict(
        l_specs=[("memcached", "memcached", 2.0)], b_specs=("membench",),
        caladan_bw_cap=("membench", 10.0), membus_gbps=42.0)),
    "net": (SYSTEMS, dict(
        l_specs=[("memcached", "memcached", 3.0)], net=NetConfig())),
    # A 200 us estimator window (50 ms stock) lets Arachne's grants ramp
    # within the run, so several idle-held cores per app coexist.
    "arachne_fast_estimator": (("arachne",), dict(
        l_specs=[("memcached", "memcached", 4.8)], bursty=True,
        costs=CostModel(arachne_estimator_interval_ns=200_000))),
}

#: system counters recorded alongside the report, when a system has them
COUNTERS = ("reallocations", "rebinds", "parks")

#: when a bandwidth cap is set, Caladan's smoothed GB/s-per-core estimate
#: is read half a 10 us allocation tick after each of its first ticks
BW_PROBE_NS = tuple(15_000 + 10_000 * k for k in range(5))


def run_one(system_name, l_specs, b_specs=("linpack",), num_workers=8,
            sim_ms=6, warmup_ms=2, seed=42, bursty=False, net=None,
            caladan_bw_cap=None, storage_mops=0.0, costs=None,
            membus_gbps=40.0):
    """One baseline colocation run, serialized like the golden capture.

    ``storage_mops`` adds an open-loop stream of storage-style requests
    (CPU, park on a ~10 us IO, CPU) to the first L-app.
    """
    cfg = ExperimentConfig(num_workers=num_workers, sim_ms=sim_ms,
                           warmup_ms=warmup_ms, seed=seed, bursty=bursty,
                           net=net, op_breakdown=True,
                           costs=costs or CostModel(),
                           membus_gbps=membus_gbps)
    captured = {"bw_per_core": []}

    def hook(sim, machine, system):
        captured["ledger"] = machine.ledger
        captured["system"] = system
        if storage_mops:
            StorageRequestSource(sim, system.latency_apps[0], system.submit,
                                 storage_mops, random.Random(seed),
                                 miss_fraction=0.5)
        if caladan_bw_cap is not None:
            for at_ns in BW_PROBE_NS:
                sim.at(at_ns, lambda: captured["bw_per_core"].append(
                    getattr(system, "_bw_per_core", None)))

    report = run_colocation(system_name, cfg, l_specs, b_specs=b_specs,
                            caladan_bw_cap=caladan_bw_cap, setup_hook=hook)
    system = captured["system"]
    result = {
        "system": report.system,
        "elapsed_ns": report.elapsed_ns,
        "buckets": dict(sorted(report.buckets.items())),
        "latency": {k: dict(sorted(v.items()))
                    for k, v in sorted(report.latency.items())},
        "client_latency": {k: dict(sorted(v.items()))
                           for k, v in sorted(report.client_latency.items())},
        "completed": dict(sorted(report.completed.items())),
        "useful_ns": dict(sorted(report.useful_ns.items())),
        "ledger_ops": dict(sorted(captured["ledger"].op_counts().items())),
        "counters": {name: getattr(system, name) for name in COUNTERS
                     if hasattr(system, name)},
        "events_fired": report.events_fired,
    }
    if caladan_bw_cap is not None:
        result["bw_per_core"] = captured["bw_per_core"]
    return result


def cases():
    for scenario, (systems, _) in sorted(SCENARIOS.items()):
        for system in systems:
            yield f"{scenario}/{system}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", list(cases()))
def test_baseline_matches_golden(golden, case):
    scenario, system = case.split("/")
    actual = json.loads(json.dumps(run_one(system, **SCENARIOS[scenario][1])))
    assert actual == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


def test_golden_scenarios_exercise_the_interesting_paths(golden):
    # The goldens only bar drift if the paths an index touches fired.
    for system in ("caladan", "caladan-dr-l", "caladan-dr-h"):
        counters = golden[f"bursty_memcached/{system}"]["counters"]
        assert counters["parks"] > 0 and counters["rebinds"] > 0
    assert golden["bursty_memcached/caladan"]["counters"]["reallocations"] > 0
    assert golden["net/caladan"]["client_latency"]["memcached"]["count"] > 0
    assert 5.999999999999999 in golden["membench_bw_cap/caladan"][
        "bw_per_core"]
    for case, result in golden.items():
        assert sum(result["completed"].values()) > 0, case
