"""Time the layers of two checkouts in one process, in alternating rounds.

    python3 tools/layer_bench.py [--rounds 7] [--calls 2000] [--seed 3] [--out FILE] PARENT CHANGE

Loads the ``src/jacobifn`` package of each checkout under its own module
name (``jacobifn_parent`` and ``jacobifn_change``) and times each layer on
the same fixed seeded inputs:

* the gamma family: ``gamma``, ``log_gamma`` and ``reciprocal_gamma`` at
  the lower parameters the Jacobi layers form from the catalog box;
* the scalar regularized 2F1, ``hypergeom._continued_2f1``, by band of |x|;
* ``jacobi_p`` per route (rep1, rep3, connection) and ``jacobi_q``, scalar
  calls on the box of the benchmark's scatter-eval workload (Re of alpha,
  beta and gamma in [-0.65, 2.8], |Im| <= 0.45; |Re z| < 4, |Im z| < 2),
  grouped by the parent's provenance;
* the AUTO plans, ``jacobi_first._p_plan`` and ``jacobi_second._q_plan``
  (``plan.p``, ``plan.q``), at 16 and 151 points of the same box;
* the batched regularized 2F1 series, ``hypergeom._series_batch``, at 16,
  151 and 256 points with |x| <= 0.75, at the parameters of Q's REP1;
* ``jacobi_first._connection_batch`` at 16 and 151 points, its plan formed
  outside the timing and read by position (the connection is the plan's
  last entry).

Inputs where either checkout raises are dropped.  In each round the
checkouts take turns on each layer, the parent first in even rounds; a
layer's time is the minimum over the rounds of its time per call, and its
ratio the median over the rounds of change / parent.  A separate counting
pass, not timed with the rounds, records per call the Lanczos sums of the
gamma kernel, the 2F1 series terms, the microseconds spent in the series'
leading terms and the microseconds of the whole call under that
instrumentation (the fastest of three passes).  Prints a markdown table
and writes the JSON record to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import statistics
import sys
import time

import numpy as np

# Catalog parameter box: Re in [-0.65, 2.8], |Im| <= 0.45.
_RE_LO, _RE_W, _IM_W = -0.65, 3.45, 0.45
_BANDS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 0.95))


def load(checkout: str, name: str):
    """The ``jacobifn`` package of a checkout, imported as ``name``."""
    root = os.path.join(os.path.abspath(checkout), "src", "jacobifn")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("scalar_kernel", "hypergeom", "jacobi_first")}


def _triples(rng, n: int) -> list[tuple[complex, complex, complex]]:
    u = rng.random((n, 6))
    return [tuple(complex(_RE_LO + _RE_W * r[2 * j], _IM_W * (2.0 * r[2 * j + 1] - 1.0)) for j in range(3)) for r in u]


def _z(rng, n: int) -> list[complex]:
    u = rng.random((n, 2))
    return [complex(-4.0 + 8.0 * a, -2.0 + 4.0 * b) for a, b in u]


def _works(make, p: dict, x) -> bool:
    try:
        make(p, x)()
    except Exception:
        return False
    return True


def build(pkgs: dict, calls: int, seed: int) -> dict:
    """{layer: {checkout: list of no-argument calls}}, on inputs both checkouts evaluate."""
    rng = np.random.default_rng(seed)
    layers: dict[str, dict[str, list]] = {}

    def add(layer: str, make, inputs):
        kept = [x for x in inputs if all(_works(make, p, x) for p in pkgs.values())]
        if kept:
            layers[layer] = {name: [make(p, x) for x in kept] for name, p in pkgs.items()}

    # The lower parameters of P's REP1 (alpha+1), Q (alpha+beta+2 gamma+2)
    # and the connection's companion (-alpha-beta-2 gamma).
    lowers = []
    for a, b, g in _triples(rng, calls // 3 + 1):
        lowers += [a + 1.0, a + b + 2.0 * g + 2.0, -a - b - 2.0 * g]
    for fn in ("gamma", "log_gamma", "reciprocal_gamma"):
        add(f"gamma.{fn}", lambda p, w, fn=fn: (lambda: getattr(p["scalar_kernel"], fn)(w)), lowers)

    # 2F1 parameters of Q's REP1 at a box triple, and |x| by band.
    for lo, hi in _BANDS:
        args = []
        for (a, b, g), r, t in zip(_triples(rng, calls), lo + (hi - lo) * rng.random(calls), rng.random(calls)):
            args.append((g + 1.0, a + g + 1.0, a + b + 2.0 * g + 2.0, complex(r * math.cos(6.283 * t), r * math.sin(6.283 * t))))
        add(f"2f1.modulus {lo:.2f}-{hi:.2f}", lambda p, x: (lambda: p["hypergeom"]._continued_2f1(*x, True)), args)

    # P per route and Q: scalar calls on the scatter-eval box, by the parent's provenance.
    first = next(iter(pkgs.values()))["jacobi_first"]
    points = list(zip(_triples(rng, 2 * calls), _z(rng, 2 * calls)))
    routes: dict[str, list] = {"rep1": [], "rep3": [], "connection": []}
    for t, z in points[:calls]:
        try:
            routes[first.jacobi_p(first.JacobiParams(*t), z).provenance].append((t, z))
        except Exception:
            pass
    for route, inputs in routes.items():
        add(f"P.{route}", lambda p, x: (lambda: p["jacobi_first"].jacobi_p(p["jacobi_first"].JacobiParams(*x[0]), x[1])), inputs)
    add("Q", lambda p, x: (lambda: p["jacobi_first"]._second.jacobi_q(p["jacobi_first"].JacobiParams(*x[0]), x[1])),
        points[calls:])

    # The plans: per size, a few triples, each at points of the box.
    for size in (16, 151):
        inputs = [(t, np.array(_z(rng, size))) for t in _triples(rng, max(2, calls // 200))]
        add(f"plan.p.{size}", lambda p, x: _plan_call(p["jacobi_first"]._p_plan, p, x), inputs)
        add(f"plan.q.{size}", lambda p, x: _plan_call(p["jacobi_first"]._second._q_plan, p, x), inputs)

    # The batched series: per size, a few triples, each at points of the disk |x| <= 0.75.
    for size in (16, 151, 256):
        inputs = []
        for a, b, g in _triples(rng, max(2, calls // 200)):
            u = rng.random((size, 2))
            x = 0.75 * np.sqrt(u[:, 0]) * np.exp(6.283j * u[:, 1])
            inputs.append(((g + 1.0, a + g + 1.0, a + b + 2.0 * g + 2.0), x))
        add(f"series_batch.{size}", lambda p, x: (lambda: p["hypergeom"]._series_batch(*x[0], x[1], None)), inputs)

    # The batched connection: per size, a few triples, each at points its plan sends to the connection.
    for size in (16, 151):
        inputs = []
        for t in _triples(rng, max(2, calls // 200)):
            zs = np.array(_z(rng, 8 * size))
            params = first.JacobiParams(*t)
            try:
                with np.errstate(all="ignore"):
                    code = first._p_plan(params, zs)[0]
            except Exception:
                continue
            zs = zs[code == first.P_CONNECTION][:size]
            if zs.size == size:
                inputs.append((t, zs))
        add(f"connection_batch.{size}", _connection_batch_call, inputs)
    return layers


def _plan_call(plan, p: dict, x):
    """A call of an AUTO plan at the points x[1] for the triple x[0], as the array calls form it."""
    params, zs = p["jacobi_first"].JacobiParams(*x[0]), x[1]

    def call():
        with np.errstate(all="ignore"):
            return plan(params, zs)

    return call


def _connection_batch_call(p: dict, x):
    """A call of ``_connection_batch`` on its plan at the points x[1], the plan formed here."""
    first = p["jacobi_first"]
    params, zs = first.JacobiParams(*x[0]), x[1]
    with np.errstate(all="ignore"):
        connection = first._p_plan(params, zs)[-1]

    def call():
        with np.errstate(all="ignore"):
            return first._connection_batch(zs, *connection)

    return call


def _run(fns: list) -> float:
    """Microseconds per call of one pass over fns."""
    start = time.perf_counter()
    for fn in fns:
        fn()
    return (time.perf_counter() - start) * 1e6 / len(fns)


def counts(p: dict, fns: list, passes: int = 3) -> dict:
    """Per call: Lanczos sums, 2F1 terms, microseconds in the leading terms, and instrumented microseconds.

    Over ``passes`` passes; the instrumented time is the fastest pass's.
    """
    kernel, hyp = p["scalar_kernel"], p["hypergeom"]
    tally = {"lanczos": 0, "terms": 0, "leading_s": 0.0}
    lanczos, series, leading = kernel._lanczos_series, hyp._series, hyp._leading_terms

    def counted_lanczos(z):
        tally["lanczos"] += 1
        return lanczos(z)

    def counted_series(*args):
        out = series(*args)
        tally["terms"] += out.terms_used
        return out

    def timed_leading(*args):
        start = time.perf_counter()
        try:
            return leading(*args)
        finally:
            tally["leading_s"] += time.perf_counter() - start

    kernel._lanczos_series, hyp._series, hyp._leading_terms = counted_lanczos, counted_series, timed_leading
    try:
        us = min(_run(fns) for _ in range(passes))
    finally:
        kernel._lanczos_series, hyp._series, hyp._leading_terms = lanczos, series, leading
    n = passes * len(fns)
    return {"lanczos": tally["lanczos"] / n, "terms": tally["terms"] / n,
            "leading_us": tally["leading_s"] * 1e6 / n, "instrumented_us": us}


def measure(layers: dict, rounds: int) -> dict:
    """The record's ``layers`` block: per layer, calls, minimum us per call, median ratio and counts."""
    names = list(next(iter(layers.values())))
    times = {layer: {name: [] for name in names} for layer in layers}
    gc_was = gc.isenabled()
    gc.disable()
    try:
        for r in range(rounds):
            gc.collect()
            for layer, by_name in layers.items():
                for name in names[:: 1 if r % 2 == 0 else -1]:
                    times[layer][name].append(_run(by_name[name]))
    finally:
        if gc_was:
            gc.enable()
    block = {}
    for layer, by_name in layers.items():
        parent, change = (times[layer][name] for name in names)
        block[layer] = {
            "calls": len(by_name[names[0]]),
            "parent_us": min(parent),
            "change_us": min(change),
            "ratio": statistics.median(c / p for p, c in zip(parent, change)),
        }
    return block


def record(parent: str, change: str, rounds: int = 7, calls: int = 2000, seed: int = 3) -> dict:
    """Load both checkouts, build the inputs, time the layers and count their work."""
    pkgs = {"parent": load(parent, "jacobifn_parent"), "change": load(change, "jacobifn_change")}
    layers = build(pkgs, calls, seed)
    block = measure(layers, rounds)
    for layer, by_name in layers.items():
        for name, fns in by_name.items():
            block[layer][f"{name}_counts"] = counts(pkgs[name], fns)
    return {"rounds": rounds, "calls": calls, "seed": seed, "layers": block}


def table(rec: dict) -> str:
    """The record as a markdown table."""
    lines = [
        "| layer | calls | parent us | change us | ratio | Lanczos sums | 2F1 terms | leading-term us | instrumented us |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for layer, row in rec["layers"].items():
        pc, cc = row["parent_counts"], row["change_counts"]
        pair = "{:.2f} -> {:.2f}".format
        lines.append(
            f"| {layer} | {row['calls']} | {row['parent_us']:.1f} | {row['change_us']:.1f} | {row['ratio']:.3f} | "
            f"{pair(pc['lanczos'], cc['lanczos'])} | {pair(pc['terms'], cc['terms'])} | "
            f"{pair(pc['leading_us'], cc['leading_us'])} | {pair(pc['instrumented_us'], cc['instrumented_us'])} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--calls", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    rec = record(args.parent, args.change, args.rounds, args.calls, args.seed)
    print(table(rec))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
