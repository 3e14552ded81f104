"""The repository benchmark: three simulator workloads, one JSON verdict.

Run from the repository root::

    python3 perfbench/run.py --workload vessel-scale --seed 42 --trace 0
    python3 perfbench/run.py --workload all --seed 42     # every workload

Every workload run is a fresh ``python3`` process (``child.py``), so a
run's wall time covers interpreter start, ``repro`` imports, building
the system and simulating.  With ``--trace 0`` the benchmark sets up
``SETUP_SAMPLES`` times, then repeats full runs for ``--seconds``, one
after another with the reference loop (``reference.py``) between them,
and reports medians of the host metrics in reference-host seconds.
With ``--trace 1`` it makes one untraced run and then two traced runs
side by side, and reports the per-layer and modeled metrics.

Every run is checked (see ``child.correctness_failures``) and every run
of one seed must produce the same report digest; a run that fails counts
in ``failed``.  The last line of standard output is the JSON verdict;
the full record, including raw timings, sample counts and quartiles,
goes to ``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.

The exit code is 0 when the benchmark ran, whatever the verdict; it is 2
(without a verdict) when the simulator's sources are missing or when
``BENCHMARK.json`` declares other metrics than this script reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from reference import REFERENCE_S, reference_seconds  # noqa: E402

#: setup-only processes per measured invocation (plus one per full run)
SETUP_SAMPLES = 9
#: full runs a measured invocation makes even past ``--seconds``
MIN_RUNS = 3
#: per-child limit; a child past it is killed and its run fails
CHILD_TIMEOUT_S = 120

#: end-to-end metrics (--trace 0)
HOST = ("wall_s", "setup_s", "sim_ms_per_s", "peak_rss_mb")
#: layers reported per-layer (src/repro packages; stdlib = everything
#: outside repro, C calls included)
LAYERS = ("sim", "hardware", "kernel", "uprocess", "vessel", "sched",
          "baselines", "workloads", "net", "overload", "faults", "obs",
          "experiments", "stdlib")
#: per-layer metrics of each layer L, named ``L.<stat>``
LAYER_STATS = ("self_s", "self_frac", "calls", "entries", "calls_per_event")
#: per-layer metrics of the engine and the run as a whole
TOTALS = ("sim.events", "sim.host_us_per_event", "sim.cancel_frac",
          "py_calls_per_event", "c_calls_per_event", "trace_overhead",
          "vessel.policy_reject_frac")
#: modeled metrics read from the report.  They repeat exactly for a
#: seed, so they guard the model rather than measure the host; they are
#: reported with the per-layer metrics because across seeds they spread
#: far wider than any relative bound (vessel-scale p99: 25-59 us).
MODELED = ("l_p50_us", "l_p99_us", "l_p999_us", "l_samples",
           "b_core_share", "waste_frac", "l_fail_frac",
           "hardware.core_app_frac", "hardware.core_runtime_frac",
           "hardware.core_kernel_frac", "hardware.core_idle_frac",
           "net.retry_frac", "net.timeouts", "overload.shed_frac",
           "faults.injected", "uprocess.tenants_created")
#: predicted shape, counted inside Simulator.run: (workload, layer)
#: pairs that must make no Python calls
ZERO_CALLS = (("caladan-scale", "vessel"), ("vessel-scale", "baselines"),
              ("net-overload", "baselines"), ("vessel-scale", "net"),
              ("caladan-scale", "net"))


def metric_names(trace: bool) -> set:
    """Names of the metrics a verdict holds; BENCHMARK.json must declare
    exactly these (checked at start-up)."""
    if not trace:
        return set(HOST)
    return ({f"{layer}.{stat}" for layer in LAYERS for stat in LAYER_STATS}
            | set(TOTALS) | set(MODELED))


def child_env(hash_seed: int) -> dict:
    """Environment of a workload process: the simulator on the path,
    bytecode cached under .perfbench_out (warmed before timing, as a
    user's repeated runs would find it), a fixed hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(workload: str, seed: int, hash_seed: int, *extra: str):
    """Start one child; returns (process, spawn stamp in monotonic ns)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed), *extra]
    stamp = time.monotonic_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(hash_seed), cwd=ROOT)
    return proc, stamp


def collect(proc, stamp: int) -> dict:
    """Wait for a child; its JSON line with times relative to spawn, or
    ``{"error": ...}`` when it failed."""
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = (result["run_start"] - stamp) / 1e9
    if "report" in result:
        result["wall_s"] = (result["report"] - stamp) / 1e9
        result["run_s"] = (result["run_end"] - result["run_start"]) / 1e9
    return result


def run_child(workload: str, seed: int, hash_seed: int, *extra: str):
    return collect(*spawn(workload, seed, hash_seed, *extra))


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": values[0], "max": values[-1]}


def check_runs(runs) -> tuple:
    """(failed run count, failure notes): errors, failed checks, and
    digests that differ from the first run's."""
    notes = []
    failed = 0
    digests = [run["digest"] for run in runs if "digest" in run]
    reference = digests[0] if digests else None
    for index, run in enumerate(runs):
        problems = ([run["error"]] if "error" in run
                    else list(run["failures"]))
        if "digest" in run and run["digest"] != reference:
            problems.append(f"report digest {run['digest'][:12]} != "
                            f"{reference[:12]} of the first run")
        if problems:
            failed += 1
            notes.append({"run": index, "problems": problems})
    return failed, notes


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: int) -> dict:
    """Untraced runs, each between two reference loops: host medians and
    the seed's modeled metrics."""
    warm = run_child(workload, seed, 0, "--setup-only")
    if "error" in warm:
        return {"runs": [warm], "setup": [], "references": []}
    references = [reference_seconds()]
    setups = [run_child(workload, seed, index + 1, "--setup-only")
              for index in range(SETUP_SAMPLES)]
    references.append(reference_seconds())
    for setup in setups:
        setup["scale"] = REFERENCE_S / statistics.mean(references)
    runs = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        run = run_child(workload, seed, len(runs) + 1)
        references.append(reference_seconds())
        run["scale"] = REFERENCE_S / statistics.mean(references[-2:])
        runs.append(run)
        took = time.monotonic() - began
        if "error" in run or (len(runs) >= MIN_RUNS and
                              time.monotonic() - start + took > seconds):
            break
    return {"runs": runs, "setup": setups, "references": references}


def measured_metrics(workload: str, record: dict) -> dict:
    """Medians of the host metrics, each run scaled to reference-host
    seconds; the raw medians and quartiles go to the record."""
    good = [run for run in record["runs"] if "error" not in run]
    setups = [run for run in good + record["setup"] if "setup_s" in run]
    raw = {
        "wall_s": [(run["wall_s"], run["scale"]) for run in good],
        "setup_s": [(run["setup_s"], run["scale"]) for run in setups],
        "sim_ms_per_s": [(run["sim_ns"] / 1e6 / run["run_s"],
                          1 / run["scale"]) for run in good],
        "peak_rss_mb": [(run["peak_rss_mb"], 1.0) for run in good],
    }
    stats = {name: quartiles([value * scale for value, scale in pairs])
             for name, pairs in raw.items() if pairs}
    raw_stats = {name: quartiles([value for value, _ in pairs])
                 for name, pairs in raw.items() if pairs}
    if record["references"]:
        raw_stats["reference_s"] = quartiles(record["references"])
    return {"metrics": {name: stats[name]["median"] for name in stats},
            "stats": stats, "raw_stats": raw_stats,
            "modeled": good[0]["modeled"] if good else {}}


def traced(workload: str, seed: int, spans_path: str) -> dict:
    """An untraced run, then two traced runs side by side (one per CPU;
    their counts must match exactly, their times are averaged)."""
    warm = run_child(workload, seed, 0, "--setup-only")
    if "error" in warm:
        return {"runs": [warm], "traced": []}
    runs = [run_child(workload, seed, 1)]
    pair = [spawn(workload, seed, 100, "--trace", "--spans", spans_path),
            spawn(workload, seed, 101, "--trace")]
    return {"runs": runs, "traced": [collect(*child) for child in pair]}


def layer_metrics(workload: str, record: dict) -> dict:
    runs = [run for run in record["runs"] if "error" not in run]
    pair = [run for run in record["traced"] if "trace" in run]
    metrics, extra = {}, {}
    if not runs or len(pair) != 2:
        return {"metrics": metrics, "extra": extra}
    traces = [run["trace"] for run in pair]
    layers = traces[0]["layers"]
    events = runs[0]["events"]
    inexact = [layer for i, layer in enumerate(layers)
               if traces[0]["calls"][i] != traces[1]["calls"][i]
               or traces[0]["entries"][i] != traces[1]["entries"][i]]
    if traces[0]["c_calls"] != traces[1]["c_calls"]:
        inexact.append("c_calls")
    self_ns = [sum(t["self_ns"][i] for t in traces) / 2
               for i in range(len(layers))]
    total_ns = sum(self_ns)
    for name in LAYERS:
        i = layers.index(name)
        calls = traces[0]["calls"][i]
        metrics[f"{name}.self_s"] = self_ns[i] / 1e9
        metrics[f"{name}.self_frac"] = self_ns[i] / total_ns
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.entries"] = traces[0]["entries"][i]
        metrics[f"{name}.calls_per_event"] = calls / events
    untraced_wall = statistics.median(run["wall_s"] for run in runs)
    metrics["sim.events"] = events
    metrics["sim.host_us_per_event"] = statistics.median(
        run["run_s"] for run in runs) / events * 1e6
    metrics["sim.cancel_frac"] = traces[0]["cancels"] / traces[0]["scheduled"]
    metrics["py_calls_per_event"] = sum(traces[0]["calls"]) / events
    metrics["c_calls_per_event"] = traces[0]["c_calls"] / events
    metrics["trace_overhead"] = statistics.median(
        run["wall_s"] for run in pair) / untraced_wall
    for name in MODELED:
        metrics[name] = runs[0]["modeled"][name]
    metrics["vessel.policy_reject_frac"] = traces[0]["policy_reject_frac"]
    in_run = dict(zip(layers, traces[0]["in_run_calls"]))
    extra = {
        "inexact_layers": inexact,
        "in_run_calls": in_run,
        "in_run_entries": dict(zip(layers, traces[0]["in_run_entries"])),
        "all_layer_calls": dict(zip(layers, traces[0]["calls"])),
        "shape": {f"{layer}.calls == 0 inside Simulator.run":
                  in_run[layer] == 0
                  for wl, layer in ZERO_CALLS if wl == workload},
        "vessel_decisions": traces[0]["decisions"],
        "spans": {"kept": traces[0]["spans_kept"],
                  "dropped": traces[0]["spans_dropped"]},
    }
    return {"metrics": metrics, "extra": extra}


def trace_problems(extra: dict) -> list:
    """Failed shape predictions and inexact counts of a traced pair."""
    problems = [f"shape prediction failed: {name}"
                for name, held in extra.get("shape", {}).items() if not held]
    if extra.get("inexact_layers"):
        problems.append("counts differ between the two traced runs: "
                        + ", ".join(extra["inexact_layers"]))
    return problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 units: dict):
    """Run one workload; returns (verdict, summary, record path).  The
    verdict gives each metric as ``{"value": ..., "unit": ...}``."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    if trace:
        record = traced(workload, seed, stem + "-spans.json")
        runs = record["runs"] + record["traced"]
        summary = layer_metrics(workload, record)
    else:
        record = measure(workload, seed, seconds)
        runs = record["runs"]
        summary = measured_metrics(workload, record)
    failed, summary["failures"] = check_runs(runs)
    problems = trace_problems(summary["extra"]) if trace else []
    if problems:
        # the traced pair fails as a whole
        already = {note["run"] for note in summary["failures"]}
        failed += sum(index not in already
                      for index in range(len(record["runs"]), len(runs)))
        summary["failures"].append({"run": "traced pair",
                                    "problems": problems})
    correct = (failed == 0 and len(runs) >= 2
               and set(summary["metrics"]) == metric_names(trace))
    verdict = {"correct": correct, "attempted": len(runs),
               "failed": failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in summary["metrics"].items()}}
    with open(stem + ".json", "w") as handle:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "seconds": seconds, "verdict": verdict,
                   "run_fail_frac": failed / len(runs), **summary,
                   "record": record},
                  handle, indent=1, default=str)
    return verdict, summary, stem + ".json"


def print_table(workload: str, seed: int, verdict: dict, summary: dict,
                units: dict, path: str) -> None:
    print(f"== {workload} seed {seed}: attempted {verdict['attempted']} "
          f"failed {verdict['failed']} run_fail_frac "
          f"{verdict['failed'] / verdict['attempted']:.3f} "
          f"correct {verdict['correct']}")
    stats = summary.get("stats", {})
    raw = summary.get("raw_stats", {})
    for name, value in summary["metrics"].items():
        spread = ""
        if name in stats:
            row = stats[name]
            spread = (f"  n={row['n']} quartiles {row['q1']:.4g}..."
                      f"{row['q3']:.4g}, raw median {raw[name]['median']:.4g}")
        print(f"  {name:34s} {value:>14.6g} {units.get(name, ''):12s}"
              f"{spread}")
    if "reference_s" in raw:
        row = raw["reference_s"]
        print(f"  {'(reference loop)':34s} {row['median']:>14.6g} s"
              f"{'':11s}  n={row['n']} quartiles {row['q1']:.4g}..."
              f"{row['q3']:.4g}, scaled to {REFERENCE_S} s")
    modeled = summary.get("modeled")
    if modeled:
        print("  modeled, exact for this seed:")
        for name in MODELED:
            print(f"  {name:34s} {modeled[name]:>14.6g} "
                  f"{units.get(name, '')}")
    extra = summary.get("extra")
    if extra:
        for name, held in extra["shape"].items():
            print(f"  shape: {name}: {'holds' if held else 'FAILS'}")
        print("  counts of the two traced runs: "
              + ("differ in " + ", ".join(extra["inexact_layers"])
                 if extra["inexact_layers"] else "identical"))
    for failure in summary["failures"]:
        print(f"  FAILED run {failure['run']}: {failure['problems']}")
    print(f"  (full record: {os.path.relpath(path, ROOT)})")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {metric["name"] for metric in spec[section]}
        if declared != metric_names(trace):
            print(f"perfbench: BENCHMARK.json {section} names differ from "
                  f"the metrics run.py reports: "
                  f"{sorted(declared ^ metric_names(trace))}",
                  file=sys.stderr)
            return 2
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    verdicts = {}
    for name in names:
        verdict, summary, path = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), units)
        print_table(name, args.seed, verdict, summary, units, path)
        verdicts[name] = verdict
    print(json.dumps(verdicts[names[0]] if len(names) == 1 else verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
