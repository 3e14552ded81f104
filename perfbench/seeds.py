"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/seeds.py --workloads all --seeds 1-10
    python3 perfbench/seeds.py --workloads all --seeds 1-10 \\
        --record "parent of the change"
    python3 perfbench/seeds.py --workloads net-overload --seeds 42 --trace 1 \\
        --record "parent of the change"

Each (workload, seed) is one ``run.py`` invocation, run one after
another.  For every metric the summary prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  ``--record
LABEL`` appends the summary, the modeled metrics of every seed and, with
``--trace 1``, the per-layer metrics of every seed to
``perfbench/trajectory.json``, under a point named ``LABEL``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    names = (workloads.NAMES if args.workloads == "all"
             else tuple(args.workloads.split(",")))
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.record, "trace": args.trace, "seeds": seeds,
             "seconds": seconds,
             "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "host": {"machine": platform.machine(),
                      "cpus": os.cpu_count(),
                      "python": platform.python_version()},
             "workloads": {}}
    for name in names:
        per_seed, values = {}, {}
        for seed in seeds:
            began = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=True)
            verdict = json.loads(out.stdout.strip().splitlines()[-1])
            path = os.path.join(ROOT, ".perfbench_out",
                                f"{name}-seed{seed}-trace{args.trace}.json")
            with open(path) as handle:
                record = json.load(handle)
            per_seed[seed] = {"correct": verdict["correct"],
                              "attempted": verdict["attempted"],
                              "failed": verdict["failed"],
                              "modeled": record.get("modeled"),
                              **({"per_layer": record["metrics"],
                                  "extra": record.get("extra")}
                                 if args.trace else {})}
            for metric, entry in verdict["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {time.monotonic() - began:.0f}s "
                  f"correct {verdict['correct']} attempted "
                  f"{verdict['attempted']} failed {verdict['failed']}",
                  flush=True)
        summary = {metric: summarise(vals) for metric, vals in values.items()}
        for metric in bounds if not args.trace else ():
            row = summary[metric]
            print(f"  {metric:14s} median {row['median']:.5g} quartiles "
                  f"{row['q1']:.5g}..{row['q3']:.5g} spread "
                  f"{row['spread']:.3f} (bound {bounds[metric]})")
        point["workloads"][name] = {
            "summary": summary if not args.trace else None,
            "seeds": per_seed}
    if args.record is not None:
        points = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as handle:
                points = json.load(handle)
        points.append(point)
        with open(TRAJECTORY, "w") as handle:
            json.dump(points, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
