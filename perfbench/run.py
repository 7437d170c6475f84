"""jacobifn benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload scatter-eval --seed 1 --seconds 15 --trace 0

Runs the workload in its own fresh single-threaded process (see
``workload.py``, which also times the cold starts for ``setup_s``).  Prints every metric
by name with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits non-zero without a result when the checkout holds no jacobifn source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scatter-eval", "grid-table", "verify-sweep")
WORKLOAD_TIMEOUT_S = 140

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    """Library on the path; no thread pool in the CLI; one BLAS thread."""
    env = dict(os.environ)
    env.pop("JACOBI_FN_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def source_id() -> str:
    """The commit when the checkout is a git work tree, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    paths = []
    for base, dirs, files in os.walk(os.path.join(SRC, "jacobifn")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(args, env) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKLOAD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"workload process exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(args, r: dict) -> dict:
    """Print every metric with its unit; return the contract's result object."""
    attempted = max(r["attempted"], 1)
    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={r['numpy']} source={source_id()} JACOBI_FN_THREADS=unset BLAS threads=1"
    )
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"(closed loop, 1 caller, own process)"
    )
    print(
        f"  attempted={r['attempted']} ok={r['ok']} failed={r['failed']} wrong={r['wrong']} "
        f"unchecked={r['unchecked']}"
    )
    for kind, n in sorted(r["failures"].items()):
        print(f"  failures {kind}: {n}")
    print(
        f"  self-test: an accepted output, changed slightly, was "
        f"{'rejected' if r['probe_rejected'] else 'NOT rejected'} "
        f"(wrong_share {r['wrong'] / attempted:.6f} -> {(r['wrong'] + 1) / attempted:.6f})"
    )
    lines = [
        ("fail_share", r["failed"] / attempted, "ratio", "raised or exited non-zero"),
        ("wrong_share", r["wrong"] / attempted, "ratio", "rejected by the check"),
        ("unchecked_share", r["unchecked"] / attempted, "ratio", "no route could check"),
    ]
    correct = r["wrong"] == 0 and r["probe_rejected"] and r["attempted"] > 0
    if args.trace:
        metrics = {k: {"value": r["per_layer"][k], "unit": u} for k, u in _layer_units().items()}
        lines += [(k, m["value"], m["unit"], "") for k, m in metrics.items()]
    else:
        values = {
            "setup_s": r["setup_s"],
            "ops_per_s": r["ops_per_s"],
            "ok_share": r["ok"] / attempted,
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        correct = correct and all(v > 0 for v in values.values())
        beyond = "at least" if r["latency_n"] >= 1000 else "FEWER than"
        print(
            f"  machine slowdown {r['slowdown']:.4f} x reference speed "
            f"({r['calibrations']} calibration samples); timed work {r['busy_s']:.3f} s"
        )
        if r["truncated"]:
            print(f"  timed phase stopped early: it passed {r['max_slowdown']} x --seconds")
        lines += [
            ("setup_s", values["setup_s"], "s", f"median of {r['setup_runs']} cold starts, as measured"),
            ("ops_per_s", values["ops_per_s"], "1/s", "accepted ops / timed work, at reference speed"),
            ("raw_ops_per_s", r["raw_ops_per_s"], "1/s", "the same, as measured; not bounded"),
            ("op_p50_ms", r["op_p50_ms"], "ms", f"n={r['latency_n']}; " + (
                "identity samples; " if "verify_all_s" in r else "") + "as measured; not bounded"),
            ("op_p99_ms", r["op_p99_ms"], "ms", f"n={r['latency_n']}, {beyond} 10 beyond; as measured; not bounded"),
            ("ok_share", values["ok_share"], "ratio", "accepted / attempted"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", "workload process"),
        ]
        if "verify_all_s" in r:
            lines.append(("verify_all_s", r["verify_all_s"], "s", "median of verify --all commands; as measured"))
    for name, value, unit, note in lines:
        print(f"  {name:<48} {value:<12.6g} {unit:<6} {note}".rstrip())
    return {"correct": bool(correct), "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def _layer_units() -> dict[str, str]:
    sys.path.insert(0, HERE)
    from spans import metric_units

    return metric_units()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jacobifn", "__init__.py")):
        print(f"error: no jacobifn source under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    result = report(args, run_workload(args, env))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
