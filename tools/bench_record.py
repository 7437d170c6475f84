"""Record the benchmark's end-to-end metrics of one or more checkouts.

    python3 tools/bench_record.py --seeds 2,5 --seconds 15 --out BENCH.json PARENT CHANGE

Runs ``perfbench/run.py --trace 0`` of each checkout for each workload at
each seed.  The checkouts take turns, in reverse order at every other seed,
so that a drift of the machine's speed falls on all of them alike.  Writes,
per checkout, its source (the commit of a git work tree, else a hash of its
``src/``), and per workload the median and the runs of each end-to-end
metric, the number of runs and whether every run was correct.  Prints one
line per run while it goes.
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


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """(source id, result object) of one ``perfbench/run.py --trace 0`` run."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}", "--trace=0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return re.search(r"source=(\S+)", out).group(1), json.loads(out.strip().splitlines()[-1])


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
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
