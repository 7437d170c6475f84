"""Record the benchmark's end-to-end metrics of one or more checkouts.

    python3 tools/bench_record.py --seeds 2,5 --seconds 15 --out BENCH.json PARENT CHANGE

Runs ``perfbench/run.py --trace 0`` of each checkout for each workload at
each seed.  The checkouts take turns, in reverse order at every other seed,
so that a drift of the machine's speed falls on all of them alike.  Writes,
per checkout, its source (the commit of a git work tree, else a hash of its
``src/``), and per workload the median and the runs of each end-to-end
metric, the number of runs and whether every run was correct.  Given two
checkouts, the first taken as the parent and the second as the change, it
also writes a ``comparison`` block: per workload and end-to-end metric, the
median over the seeds of the change's value over the parent's, and the
number of seeds where the change is better, in the direction that
``BENCHMARK.json`` gives the metric.  Prints one line per run while it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ("scatter-eval", "grid-table", "verify-sweep")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """(source id, result object) of one ``perfbench/run.py --trace 0`` run."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}", "--trace=0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return re.search(r"source=(\S+)", out).group(1), json.loads(out.strip().splitlines()[-1])


def comparison(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per workload and metric, the change's runs against the parent's, seed by seed.

    ``parent`` and ``change`` are checkout entries of a record, whose runs
    follow the same seeds; ``better`` maps each metric to "higher" or
    "lower".  Gives the median of the ratios change / parent (over the
    seeds where the parent's value is not 0), the number of seeds where the
    change is better and the number of seeds.
    """
    block = {}
    for workload, entry in change["workloads"].items():
        block[workload] = {}
        for metric, direction in better.items():
            pairs = list(zip(parent["workloads"][workload]["metrics"][metric]["runs"],
                             entry["metrics"][metric]["runs"]))
            ratios = [new / old for old, new in pairs if old]
            sign = 1 if direction == "higher" else -1
            block[workload][metric] = {
                "median_ratio": statistics.median(ratios) if ratios else None,
                "better": sum(sign * (new - old) > 0 for old, new in pairs),
                "seeds": len(pairs),
            }
    return block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", help="repository checkouts to measure")
    ap.add_argument("--seeds", required=True, help="comma list of workload seeds")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    sources = {}
    runs = {c: {w: [] for w in WORKLOADS} for c in args.checkouts}
    for i, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for checkout in args.checkouts[:: 1 if i % 2 == 0 else -1]:
                sources[checkout], result = run_once(checkout, workload, seed, args.seconds)
                runs[checkout][workload].append(result)
                values = {k: m["value"] for k, m in result["metrics"].items()}
                print(f"{sources[checkout]} {workload} seed={seed} correct={result['correct']} {values}",
                      flush=True)

    record = {"seeds": seeds, "seconds": args.seconds, "checkouts": []}
    for checkout in args.checkouts:
        entry = {"source": sources[checkout], "workloads": {}}
        for workload, results in runs[checkout].items():
            metrics = {}
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                metrics[name] = {"median": statistics.median(values), "runs": values,
                                 "unit": results[0]["metrics"][name]["unit"]}
            entry["workloads"][workload] = {
                "runs": len(results),
                "correct": all(r["correct"] for r in results),
                "metrics": metrics,
            }
        record["checkouts"].append(entry)
    if len(args.checkouts) == 2:
        with open(BENCHMARK, encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        record["comparison"] = comparison(*record["checkouts"], better)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
