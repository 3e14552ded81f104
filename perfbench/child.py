"""One workload run in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src``::

    python3 perfbench/child.py --workload vessel-scale --seed 42 \\
        [--setup-only] [--trace [--spans PATH]]

It stamps ``time.monotonic_ns()`` (one clock for every process on the
host) when the first ``Simulator.run`` call starts, when it returns and
when the report is in hand; the parent subtracts its own spawn stamp.
``--setup-only`` stops at the first ``Simulator.run`` call.  ``--trace``
runs the workload under :class:`layertrace.LayerTracer`, from building
the workload to the report, adds the per-layer counters to the JSON line
and, with ``--spans``, writes the spans to ``PATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads


def _canon(obj):
    """JSON-friendly form of report contents (slots objects included)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {name: getattr(obj, name) for name in slots}
    return repr(obj)


def report_digest(report) -> str:
    text = json.dumps(report, default=_canon, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def correctness_failures(report) -> list:
    """Names of the checks this run's report fails (empty == correct)."""
    failures = []
    if report.events_fired <= 0:
        failures.append("events_fired == 0 (not an exact-engine report)")
    window = report.num_worker_cores * report.elapsed_ns
    if sum(report.buckets.values()) != window:
        failures.append(f"buckets sum {sum(report.buckets.values())} != "
                        f"worker cores x window {window}")
    for app, row in sorted(report.net_conservation.items()):
        if row["balance"] != 0:
            failures.append(f"net conservation {app}: balance "
                            f"{row['balance']}")
    if report.flight_audit:
        failures.append(f"flight audit: {report.flight_audit[:3]}")
    if report.uncontained:
        failures.append(f"uncontained faults: {report.uncontained[:3]}")
    return failures


def modeled_metrics(name: str, report) -> dict:
    """The simulated (seed-determined) metrics read from the report."""
    app = workloads.PRIMARY_APP[name]
    latency = report.client_latency.get(app) or report.latency.get(app, {})
    core_time = report.num_worker_cores * report.elapsed_ns
    offered = sum(ops["offered"] for ops in report.net_ops.values())
    # Requests, not attempts: a request that is shed, dropped or timed out
    # and then retried to completion is not a failure; one whose retries
    # ran out (or were suppressed) ends as exactly one loss.
    primary = report.net_conservation.get(app)
    l_fail_frac = (primary["losses"] / (primary["offered"]
                                        + primary["in_flight_at_reset"])
                   if primary else 0.0)
    buckets = report.buckets
    app_ns = sum(v for k, v in buckets.items() if k.startswith("app:"))
    admitted = sum(report.admission.get("admitted", {}).values())
    shed = sum(sum(per.values())
               for per in report.admission.get("shed", {}).values())
    return {
        "l_p50_us": latency.get("p50_us", float("nan")),
        "l_p99_us": latency.get("p99_us", float("nan")),
        "l_p999_us": latency.get("p999_us", float("nan")),
        "l_samples": int(latency.get("count", 0)),
        "b_core_share": sum(report.useful_ns.values()) / core_time,
        "waste_frac": report.waste_fraction(),
        "l_fail_frac": l_fail_frac,
        "hardware.core_app_frac": app_ns / core_time,
        "hardware.core_runtime_frac": buckets.get("runtime", 0) / core_time,
        "hardware.core_kernel_frac": buckets.get("kernel", 0) / core_time,
        "hardware.core_idle_frac": buckets.get("idle", 0) / core_time,
        "net.retry_frac": (sum(ops["retries"] for ops in
                               report.net_ops.values()) / offered
                           if offered else 0.0),
        "net.timeouts": sum(ops["timeouts"]
                            for ops in report.net_ops.values()),
        "overload.shed_frac": (shed / (admitted + shed)
                               if admitted + shed else 0.0),
        "faults.injected": sum(report.fault_injected.values()),
        "uprocess.tenants_created": report.churn.get("created", 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", metavar="PATH", default=None)
    args = parser.parse_args()

    import repro
    from repro.experiments.common import run_colocation
    from repro.sim.engine import Simulator

    stamps = {}
    captured = {}
    real_run = Simulator.run

    def timed_run(sim, until=None):
        stamps["run_start"] = time.monotonic_ns()
        if args.setup_only:
            # stdout is redirected while the workload runs
            print(json.dumps({"run_start": stamps["run_start"]}),
                  file=sys.__stdout__, flush=True)
            os._exit(0)
        if tracer is not None:
            captured["before"] = tracer.snapshot()
        start_ns = sim.now
        real_run(sim, until)
        if tracer is not None:
            captured["after"] = tracer.snapshot()
        stamps["run_end"] = time.monotonic_ns()
        captured["sim"] = sim
        captured["sim_ns"] = sim.now - start_ns

    def keep_system(sim, machine, system):
        captured["system"] = system

    Simulator.run = timed_run
    tracer = None
    if args.trace:
        from layertrace import LayerTracer
        tracer = LayerTracer(os.path.dirname(repro.__file__))
        tracer.start()
    system_name, cfg, kwargs = workloads.build(args.workload, args.seed)
    with contextlib.redirect_stdout(io.StringIO()):
        report = run_colocation(system_name, cfg, setup_hook=keep_system,
                                **kwargs)
    stamps["report"] = time.monotonic_ns()
    if tracer is not None:
        tracer.stop()

    result = {
        **stamps,
        "events": report.events_fired,
        "sim_ns": captured["sim_ns"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": report_digest(report),
        "failures": correctness_failures(report),
        "modeled": modeled_metrics(args.workload, report),
    }
    if tracer is not None:
        result["trace"] = layer_counters(tracer, captured)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


def layer_counters(tracer, captured) -> dict:
    """Per-layer counters of a traced run, plus the exact counts that the
    modeled per-layer ratios need."""
    before, after = captured["before"], captured["after"]
    system = captured["system"]
    decisions = tracer.code_calls("VesselSystem._execute",
                                  os.path.join("vessel", "scheduler.py"))
    rejects = getattr(system, "policy_rejects", 0)
    return {
        "layers": tracer.layers,
        "calls": tracer.calls(),
        "entries": tracer.entries,
        "self_ns": tracer.self_ns,
        "c_calls": tracer.c_calls,
        "in_run_calls": [b - a for a, b in zip(before["calls"],
                                               after["calls"])],
        "in_run_entries": [b - a for a, b in zip(before["entries"],
                                                 after["entries"])],
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "cancels": tracer.code_calls("Event.cancel",
                                     os.path.join("sim", "engine.py")),
        "scheduled": captured["sim"]._seq,
        "decisions": decisions,
        "policy_reject_frac": rejects / decisions if decisions else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
