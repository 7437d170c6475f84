"""Check that two checkouts give the same bits on scalar and array calls and a verify report.

    python3 tools/same_bits.py [--calls 20000] [--arrays 2000] [--seed 5] PARENT CHANGE

In a fresh process per checkout (its ``src/`` first on the path), makes
``--calls`` seeded scalar calls, ``jacobi_p`` and ``jacobi_q`` in turn, with
a fresh (alpha, beta, gamma) from the catalog box (Re in [-0.65, 2.8],
|Im| <= 0.45) and z uniform in |Re z| < 4, |Im z| < 2 (the box of the
benchmark's scatter-eval workload); then one explicit-representation call
per scalar call, of the same kind at the same triple and point, each kind
taking REP1 to REP4 in turn (the path of the 2F1 continuation); then
``--arrays`` seeded array calls, ``jacobi_p`` and ``jacobi_q`` in turn,
each with a fresh triple from the same box on a 16-point segment of the
benchmark's grid-table workload (P right of -1: Re in [-0.9, 4], |Im| <=
2; Q off [-1, 1]: |Re| <= 4, Im of one sign with 0.1 <= |Im| <= 2); and
writes the report of ``jacobifn verify --all --seed 7 --samples 5``.  Prints how many scalar, explicit
and array calls differ in the bits of their values, of their error
estimates, in their provenance or in the name of the error they raise,
then each transition of the outcome (provenance or error name) with its
count, as ``rep1 -> rep3: 7``, and whether the two reports and their exit
codes match.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import collections
import os
import subprocess
import sys
import tempfile

# Catalog parameter box: Re in [-0.65, 2.8], |Im| <= 0.45.
_RE_LO, _RE_W, _IM_W = -0.65, 3.45, 0.45


def _segment(u, kind: str):
    """The 16 points of a grid-table segment from four uniforms: P right of -1, Q off [-1, 1]."""
    import numpy as np

    if kind == "P":
        ends = [complex(-0.9 + 4.9 * u[0], -2.0 + 4.0 * u[1]), complex(-0.9 + 4.9 * u[2], -2.0 + 4.0 * u[3])]
    else:
        side = 1.0 if u[4] < 0.5 else -1.0
        ends = [complex(-4.0 + 8.0 * u[2 * j], side * (0.1 + 1.9 * u[2 * j + 1])) for j in range(2)]
    return np.linspace(ends[0], ends[1], 16)


def dump(calls: int, arrays: int, seed: int) -> None:
    """Print one line per call, the scalar calls first, then the explicit
    and the array calls: the values and estimates as hex floats and the
    provenance, or the error raised."""
    import numpy as np

    import jacobifn
    from jacobifn.errors import JacobiFnError

    def line(i: int, u: list[float], z, *rep) -> str:
        params = jacobifn.JacobiParams(
            *(complex(_RE_LO + _RE_W * u[2 * j], _IM_W * (2.0 * u[2 * j + 1] - 1.0)) for j in range(3))
        )
        fn = jacobifn.jacobi_p if i % 2 == 0 else jacobifn.jacobi_q
        try:
            r = fn(params, z(fn is jacobifn.jacobi_p), *rep)
        except JacobiFnError as exc:
            return f"! {type(exc).__name__}"
        v = np.atleast_1d(np.asarray(r.value, dtype=complex))
        e = np.atleast_1d(np.asarray(r.abs_error_estimate, dtype=float))
        hexes = (" ".join(x.hex() for x in part.tolist()) for part in (v.real, v.imag, e))
        return "{} {}|{}|".format(*hexes) + r.provenance

    def point(u: list[float]):
        return lambda _: complex(-4.0 + 8.0 * u[6], -2.0 + 4.0 * u[7])

    scalar = np.random.default_rng(seed).random((calls, 8)).tolist()
    out = [line(i, u, point(u)) for i, u in enumerate(scalar)]
    out += [line(i, u, point(u), jacobifn.Representation(i // 2 % 4 + 1)) for i, u in enumerate(scalar)]
    out += [
        line(i, u, lambda p: _segment(u[6:], "P" if p else "Q"))
        for i, u in enumerate(np.random.default_rng([seed, 1]).random((arrays, 11)).tolist())
    ]
    sys.stdout.write("\n".join(out) + "\n")


def _run(checkout: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def outputs(checkout: str, calls: int, arrays: int, seed: int) -> list[str]:
    """The dumped lines of ``calls`` scalar and explicit and ``arrays`` array calls in a fresh process of the checkout."""
    args = [os.path.abspath(__file__), "--dump", f"--calls={calls}", f"--arrays={arrays}", f"--seed={seed}"]
    proc = _run(checkout, args)
    if proc.returncode:
        raise SystemExit(f"{checkout}: the calls failed\n{proc.stderr}")
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


def _outcome(line: str) -> str:
    """The provenance of a dumped line, or the name of the error it raised."""
    return line[2:] if line.startswith("!") else line.rsplit("|", 1)[-1]


def transitions(first: list[str], second: list[str]) -> collections.Counter:
    """Number of calls per change of outcome, keyed "parent -> change"."""
    return collections.Counter(
        f"{_outcome(a)} -> {_outcome(b)}" for a, b in zip(first, second) if _outcome(a) != _outcome(b)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", metavar="CHECKOUT", help="the parent and the change")
    ap.add_argument("--calls", type=int, default=20_000)
    ap.add_argument("--arrays", type=int, default=2_000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.calls, args.arrays, args.seed)
        return 0
    if len(args.checkouts) != 2:
        ap.error("give two checkouts, the parent and the change")
    parent, change = args.checkouts
    first, second = (outputs(c, args.calls, args.arrays, args.seed) for c in (parent, change))
    with tempfile.TemporaryDirectory() as tmp:
        (code0, text0), (code1, text1) = (
            report(c, os.path.join(tmp, name)) for c, name in ((parent, "parent.json"), (change, "change.json"))
        )
    same_report = text0 is not None and text0 == text1 and code0 == code1
    total = 0
    parts = (
        ("scalar calls", slice(None, args.calls)),
        ("explicit calls", slice(args.calls, 2 * args.calls)),
        ("array calls", slice(2 * args.calls, None)),
    )
    for name, part in parts:
        a, b = first[part], second[part]
        differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        total += differing
        print(f"{name}: {len(b)} (seed {args.seed}), differing outputs: {differing}")
        print("  " + ", ".join(f"{key} {n}" for key, n in differences(a, b).items()))
        for move, n in sorted(transitions(a, b).items()):
            print(f"  {move}: {n}")
    print(f"verify --all --seed 7 --samples 5 reports: {'identical' if same_report else 'DIFFER'}"
          f" (exit codes {code0}, {code1})")
    return 0 if total == 0 and same_report else 1


if __name__ == "__main__":
    sys.exit(main())
