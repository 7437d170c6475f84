"""Check that two checkouts give the same bits on scalar calls and a verify report.

    python3 tools/same_bits.py [--calls 20000] [--seed 5] PARENT CHANGE

In a fresh process per checkout (its ``src/`` first on the path), makes
``--calls`` seeded scalar calls, ``jacobi_p`` and ``jacobi_q`` in turn, with
a fresh (alpha, beta, gamma) from the catalog box (Re in [-0.65, 2.8],
|Im| <= 0.45) and z uniform in |Re z| < 4, |Im z| < 2 (the box of the
benchmark's scatter-eval workload), and writes the report of
``jacobifn verify --all --seed 7 --samples 5``.  Prints how many calls
differ in the bits of their value, of their error estimate, in their
provenance or in the name of the error they raise, and whether the two
reports and their exit codes match.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

# Catalog parameter box: Re in [-0.65, 2.8], |Im| <= 0.45.
_RE_LO, _RE_W, _IM_W = -0.65, 3.45, 0.45


def dump(calls: int, seed: int) -> None:
    """Print one line per call: its value and estimate as hex floats and its provenance, or its error."""
    import numpy as np

    import jacobifn
    from jacobifn.errors import JacobiFnError

    rows = np.random.default_rng(seed).random((calls, 8)).tolist()
    out = []
    for i, u in enumerate(rows):
        params = jacobifn.JacobiParams(
            *(complex(_RE_LO + _RE_W * u[2 * j], _IM_W * (2.0 * u[2 * j + 1] - 1.0)) for j in range(3))
        )
        z = complex(-4.0 + 8.0 * u[6], -2.0 + 4.0 * u[7])
        fn = jacobifn.jacobi_p if i % 2 == 0 else jacobifn.jacobi_q
        try:
            r = fn(params, z)
        except JacobiFnError as exc:
            out.append(f"! {type(exc).__name__}")
            continue
        v = complex(r.value)
        out.append(f"{v.real.hex()} {v.imag.hex()}|{float(r.abs_error_estimate).hex()}|{r.provenance}")
    sys.stdout.write("\n".join(out) + "\n")


def _run(checkout: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def outputs(checkout: str, calls: int, seed: int) -> list[str]:
    """The dumped lines of ``calls`` scalar calls in a fresh process of the checkout."""
    proc = _run(checkout, [os.path.abspath(__file__), "--dump", f"--calls={calls}", f"--seed={seed}"])
    if proc.returncode:
        raise SystemExit(f"{checkout}: the scalar calls failed\n{proc.stderr}")
    return proc.stdout.splitlines()


def report(checkout: str, path: str) -> tuple[int, bytes | None]:
    """The exit code and JSON report of the checkout's ``verify --all --seed 7 --samples 5``."""
    args = ["-m", "jacobifn.cli", "verify", "--all", "--seed", "7", "--samples", "5", "--json", path]
    code = _run(checkout, args).returncode
    if not os.path.exists(path):
        return code, None
    with open(path, "rb") as fh:
        return code, fh.read()


def differences(first: list[str], second: list[str]) -> dict[str, int]:
    """Number of calls whose value, estimate, provenance or error differ."""
    counts = {"value": 0, "estimate": 0, "provenance": 0, "error": 0}
    for a, b in zip(first, second):
        if a == b:
            continue
        if a.startswith("!") or b.startswith("!"):
            counts["error"] += 1
            continue
        for key, x, y in zip(("value", "estimate", "provenance"), a.split("|"), b.split("|")):
            counts[key] += x != y
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", metavar="CHECKOUT", help="the parent and the change")
    ap.add_argument("--calls", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.calls, args.seed)
        return 0
    if len(args.checkouts) != 2:
        ap.error("give two checkouts, the parent and the change")
    parent, change = args.checkouts
    first, second = outputs(parent, args.calls, args.seed), outputs(change, args.calls, args.seed)
    counts = differences(first, second)
    with tempfile.TemporaryDirectory() as tmp:
        (code0, text0), (code1, text1) = (
            report(c, os.path.join(tmp, name)) for c, name in ((parent, "parent.json"), (change, "change.json"))
        )
    same_report = text0 is not None and text0 == text1 and code0 == code1
    differing = sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))
    print(f"scalar calls: {len(second)} (seed {args.seed}), differing outputs: {differing}")
    print("  " + ", ".join(f"{key} {n}" for key, n in counts.items()))
    print(f"verify --all --seed 7 --samples 5 reports: {'identical' if same_report else 'DIFFER'}"
          f" (exit codes {code0}, {code1})")
    return 0 if differing == 0 and same_report else 1


if __name__ == "__main__":
    sys.exit(main())
