"""One workload in one fresh, single-threaded process.

Run by ``run.py``; prints one JSON object as its last line of stdout.  The
process is a closed loop with one caller: each operation starts when the
previous one has returned.  Inputs come only from ``--seed``; the library sees
the generated inputs and nothing else.

Modes:
  ``--cold``      import jacobifn, complete the workload's first operation, exit
                  (``cold_start_s`` times this from spawn for ``setup_s``);
  ``--trace 0``   warm up, then time a fixed number of operations, about
                  ``--seconds`` of work on the reference machine (``rate``
                  of each workload), in equal chunks, checking each chunk's
                  outputs before the next chunk starts; the calibration loop
                  of ``speed.py`` samples the machine's speed between
                  operations, outside their times;
  ``--trace 1``   warm up, then run a fixed number of blocks of inputs,
                  each untraced and again traced, and reduce the first traced
                  block's spans to per-layer metrics.
The same seed and seconds give the same operations, so ``attempted`` and
``failed`` repeat exactly.
Correctness checks never run inside a timed chunk.  Outputs are held in
compact form until checked, so the peak resident memory does not grow with
the number of operations.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from array import array
from contextlib import redirect_stderr
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

import jacobifn  # noqa: E402  (run.py puts the checkout's src first on the path)
from jacobifn import cli, identity_engine  # noqa: E402
from jacobifn.errors import JacobiFnError  # noqa: E402

from checks import OK, UNCHECKED, WRONG, check_value  # noqa: E402
from speed import Clock  # noqa: E402

FAILED = "failed"
ROWS = 1024
COLD_TIMEOUT_S = 30
COLD_STARTS = 10
# A timed phase that has run this many times --seconds stops at the next
# chunk, so a much slower library still ends within the time limit.
MAX_SLOWDOWN = 5.0
# Catalog parameter box: Re in [-0.65, 2.8], |Im| <= 0.45.
_RE_LO, _RE_W, _IM_W = -0.65, 3.45, 0.45


def _params(u) -> jacobifn.JacobiParams:
    c = [complex(_RE_LO + _RE_W * u[2 * i], _IM_W * (2.0 * u[2 * i + 1] - 1.0)) for i in range(3)]
    return jacobifn.JacobiParams(*c)


def _uniform_rows(seed: int, stream: int, width: int):
    rng = np.random.default_rng([seed, stream])
    while True:
        yield from rng.random((ROWS, width)).tolist()


def _lit(x: complex) -> str:
    return f"{x.real!r},{x.imag!r}"


def _first_word(text: str) -> str:
    """Error name from the CLI's "<ErrorName>: ..." or "<ErrorName> at z=..." line."""
    return text.split(" ", 1)[0].rstrip(":")


# --- scatter-eval -------------------------------------------------------------


class Packed:
    """Outputs of jacobi_p / jacobi_q as four doubles each: label code, value, error.

    Kept this compact until checked, so the workload process's memory does
    not grow with the number of operations in a chunk.
    """

    def __init__(self, labels: list[str], buf: array):
        self.labels, self.buf = labels, buf

    def __len__(self) -> int:
        return len(self.buf) // 4

    def __getitem__(self, part: slice) -> "Packed":
        a, b, _ = part.indices(len(self))
        return Packed(self.labels, self.buf[4 * a:4 * b])

    def __iter__(self):
        b = self.buf
        for i in range(0, len(b), 4):
            yield self.labels[int(b[i])], complex(b[i + 1], b[i + 2]), b[i + 3]


class ScatterEval:
    """Alternating jacobi_p / jacobi_q calls, a fresh triple and z every call."""

    name = "scatter-eval"
    rate = 4500.0
    min_ops = chunks = 10
    block = 2000
    warmup_ops = 400

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self._labels: list[str] = []
        self._codes: dict[str, int] = {}
        self._buf = array("d")

    def inputs(self, stream: int):
        for i, u in enumerate(_uniform_rows(self.seed, stream, 8)):
            z = complex(-4.0 + 8.0 * u[6], -2.0 + 4.0 * u[7])
            yield ("P" if i % 2 == 0 else "Q"), _params(u), z

    def run(self, inp):
        kind, params, z = inp
        fn = jacobifn.jacobi_p if kind == "P" else jacobifn.jacobi_q
        try:
            return fn(params, z)
        except JacobiFnError as exc:
            return exc

    def _code(self, label: str) -> int:
        code = self._codes.get(label)
        if code is None:
            code = self._codes[label] = len(self._labels)
            self._labels.append(label)
        return code

    def store(self, out) -> None:
        if isinstance(out, JacobiFnError):
            self._buf.extend((self._code("!" + type(out).__name__), 0.0, 0.0, 0.0))
        else:
            v = out.value
            self._buf.extend((self._code(out.provenance), v.real, v.imag, out.abs_error_estimate))

    def drain(self) -> "Packed":
        outs, self._buf = Packed(list(self._labels), self._buf), array("d")
        return outs

    def check(self, inp, out) -> str:
        label, value, err = out
        if label.startswith("!"):
            return FAILED
        kind, params, z = inp
        return check_value(kind, params, z, value, err, label)[0]

    def probe(self, inp, out) -> bool:
        label, value, err = out
        return self.check(inp, (label, value * (1.0 + 1e-6), err)) == WRONG

    def failure_kind(self, inp, out) -> str:
        return f"{inp[0]}:{out[0][1:]}"


# --- grid-table ---------------------------------------------------------------


class GridTable:
    """`jacobifn table` commands in process, one triple on a 16-point grid each."""

    name = "grid-table"
    rate = 370.0
    min_ops = chunks = 10
    block = 60
    warmup_ops = 12
    points = 16
    # Table shapes in rotation: P on a real interval inside (-1, 1), Q on a
    # complex segment off [-1, 1], P on a complex segment right of -1, Q again.
    shapes = ("P-real", "Q-segment", "P-segment", "Q-segment")

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self._outs: list[tuple[int, str]] = []
        self._stderr = io.StringIO()

    def inputs(self, stream: int):
        for i, u in enumerate(_uniform_rows(self.seed, stream, 11)):
            shape = self.shapes[i % len(self.shapes)]
            if shape == "P-real":
                grid = f"{-0.95 + 0.35 * u[6]!r},{0.6 + 0.35 * u[7]!r},{self.points}"
            elif shape == "P-segment":
                a = complex(-0.9 + 4.9 * u[6], -2.0 + 4.0 * u[7])
                b = complex(-0.9 + 4.9 * u[8], -2.0 + 4.0 * u[9])
                grid = f"{_lit(a)}:{_lit(b)}:{self.points}"
            else:
                side = 1.0 if u[10] < 0.5 else -1.0
                a = complex(-4.0 + 8.0 * u[6], side * (0.1 + 1.9 * u[7]))
                b = complex(-4.0 + 8.0 * u[8], side * (0.1 + 1.9 * u[9]))
                grid = f"{_lit(a)}:{_lit(b)}:{self.points}"
            params = _params(u)
            out = os.path.join(self.tmpdir, f"s{stream}-{i}.json")
            # '=' keeps argparse from reading a leading '-' in a value as a flag.
            argv = [
                "table",
                f"--kind={shape[0]}",
                f"--alpha={_lit(params.alpha)}",
                f"--beta={_lit(params.beta)}",
                f"--gamma={_lit(params.gamma)}",
                f"--z-grid={grid}",
                "--format=json",
                f"--out={out}",
            ]
            yield shape[0], params, grid, out, argv

    def run(self, inp):
        with redirect_stderr(self._stderr):
            return cli.main(inp[4])

    def store(self, rc) -> None:
        self._outs.append((rc, _first_word(self._stderr.getvalue()) if rc else ""))
        self._stderr.seek(0)
        self._stderr.truncate()

    def drain(self) -> list:
        outs, self._outs = self._outs, []
        return outs

    @staticmethod
    def _rows(inp):
        with open(inp[3], encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, inp, out, rows=None) -> str:
        kind, params, grid, _, _ = inp
        if out[0] != 0:
            return FAILED
        rows = self._rows(inp) if rows is None else rows
        start, stop, count = cli._parse_grid(grid)
        step = (stop - start) / (count - 1)
        if [complex(*r["z"]) for r in rows] != [start + k * step for k in range(count)]:
            return WRONG
        verdict = OK
        for r in rows:
            v = check_value(kind, params, complex(*r["z"]), complex(*r["value"]),
                            r["err_estimate"], r["representation"])[0]
            if v == WRONG:
                return WRONG
            if v == UNCHECKED:
                verdict = UNCHECKED
        return verdict

    def probe(self, inp, out) -> bool:
        rows = self._rows(inp)
        rows[0]["value"] = [x * (1.0 + 1e-6) for x in rows[0]["value"]]
        return self.check(inp, out, rows) == WRONG

    def failure_kind(self, inp, out) -> str:
        return f"{inp[0]}:{out[1]}"


# --- verify-sweep -------------------------------------------------------------


class VerifySweep:
    """`jacobifn verify --all --seed <s> --samples 20 --json <tmp>` in process.

    One operation is one identity sample.  The timed commands use the
    verify seeds ``1000 * seed + k``, k = 0, 1, ...; the warm-up runs one
    sample per identity under ``1000 * seed + 999``.  Each timed command is
    run again, outside the timing, in a fresh worker process, and its report
    must be byte-identical (or the command must fail with the same error).
    Samples are observed at the ``eval_identity_sides`` boundary (time,
    pass); a command's failed samples are its report's run - passed, or, when
    the command exits without a report, the observed samples that did not
    pass, including the one that raised.
    """

    name = "verify-sweep"
    # Two commands, about 24 s on the reference machine: with one, the
    # seed's draw of costly FJ samples moves the rate by 10 % either way.
    rate = 1.0 / 12.0
    min_ops = 2
    chunks = 1
    block = 1
    warmup_ops = 1
    samples = 20

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.sample_ms = array("d")
        self.sample_ok = bytearray()
        self.clock: Clock | None = None
        self._outs: list[tuple[int, int, int, str]] = []
        self._stderr = io.StringIO()
        self._observe_samples()

    def _observe_samples(self) -> None:
        original = identity_engine.eval_identity_sides
        catalog = identity_engine.CATALOG
        ms, ok = self.sample_ms, self.sample_ok

        def observed(identity_id, params, z, n):
            t0 = perf_counter()
            if self.clock is not None:
                # Between samples: the command is one operation, too long to
                # sample the machine's speed only around it.
                self.clock.maybe(t0)
                t0 = perf_counter()
            try:
                check = original(identity_id, params, z, n)
            except JacobiFnError:
                ms.append((perf_counter() - t0) * 1e3)
                ok.append(0)
                raise
            ms.append((perf_counter() - t0) * 1e3)
            ok.append(check.residual <= catalog[identity_id].tolerance)
            return check

        identity_engine.eval_identity_sides = observed

    def inputs(self, stream: int):
        k = 0
        while True:
            out = os.path.join(self.tmpdir, f"v{stream}-{k}.json")
            seed, samples = (1000 * self.seed + k, self.samples) if stream == 0 else (1000 * self.seed + 999, 1)
            yield out, ["verify", "--all", f"--seed={seed}", f"--samples={samples}", f"--json={out}"]
            k += 1

    def run(self, inp):
        start = len(self.sample_ok)
        with redirect_stderr(self._stderr):
            rc = cli.main(inp[1])
        return rc, start, len(self.sample_ok)

    def store(self, out) -> None:
        self._outs.append(out + (self._stderr.getvalue(),))
        self._stderr.seek(0)
        self._stderr.truncate()

    def drain(self) -> list:
        outs, self._outs = self._outs, []
        return outs

    @staticmethod
    def _report(path: str) -> bytes | None:
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            return fh.read()

    def check_command(self, inp, out, again) -> tuple[str, int, int, str]:
        """(verdict, samples run, samples accepted, failure kind) of one command.

        ``again`` is (exit code, error text, report) of the same command run
        in another process.
        """
        rc, start, end, err = out
        report = self._report(inp[0])
        observed = end - start, sum(self.sample_ok[start:end])
        if report is None:
            run, passed = observed
            kind = "command:" + _first_word(err)
        else:
            entries = json.loads(report)
            run = sum(e["samples"]["run"] for e in entries)
            passed = sum(e["samples"]["passed"] for e in entries)
            kind = "sample:residual"
        if (rc, err, report) != again or (run, passed) != observed:
            return WRONG, run, 0, kind
        return (OK if run == passed else FAILED), run, passed, kind

    @staticmethod
    def probe(again) -> bool:
        """The repeat check must notice a one-byte change in a report."""
        rc, err, report = again
        changed = report.replace(b'"passed": ', b'"passed":  ', 1) if report else err + " "
        return (rc, err, changed) != again


def rerun_verify(argv: list[str]) -> tuple[int, str, bytes | None]:
    """Run a verify command again, in a check worker: (exit code, error text, report)."""
    path = argv[-1].split("=", 1)[1]
    again = path + ".again"
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        rc = cli.main(argv[:-1] + [f"--json={again}"])
    err = stderr.getvalue().replace(again, path)
    return rc, err, VerifySweep._report(again)


WORKLOADS = {w.name: w for w in (ScatterEval, GridTable, VerifySweep)}


# --- timing and checking ------------------------------------------------------


def timed_stream(w, traced: bool):
    """Inputs of the timed phase; a traced run sees each block twice."""
    return doubled(w.inputs(0), w.block) if traced else w.inputs(0)


def doubled(it, block: int):
    """Each block of inputs twice in a row: untraced, then traced."""
    while True:
        inputs = [next(it) for _ in range(block)]
        yield from inputs
        yield from inputs


def check_part(task):
    """Check outputs start, start+1, ... of the timed phase in a worker process.

    The worker regenerates the inputs from the seed, so the workload process
    holds only the outputs.  Returns (verdict, failure kind) per output and
    the self-test result on the first accepted output.
    """
    name, seed, tmpdir, traced, start, outs = task
    w = WORKLOADS[name](seed, tmpdir)
    it = timed_stream(w, traced)
    for _ in range(start):
        next(it)
    rows, probe = [], None
    for inp, out in zip(it, outs):
        v = w.check(inp, out)
        rows.append((v, w.failure_kind(inp, out) if v == FAILED else ""))
        if v == OK and probe is None:
            # The check must reject a 1e-6 relative change of an accepted output.
            probe = w.probe(inp, out)
    return rows, probe


class Tally:
    """Check results of all operations so far.

    The checks run in two worker processes while the workload process waits,
    so they take half the time and add nothing to the workload process's
    memory: scatter-eval and grid-table check values there, verify-sweep
    runs each command again there.
    """

    def __init__(self, w, pool, traced: bool):
        self.w = w
        self.pool = pool
        self.traced = traced
        self.checked = 0
        self.counts = {"attempted": 0, FAILED: 0, WRONG: 0, UNCHECKED: 0, OK: 0}
        self.failures: dict[str, int] = {}
        self.probe: bool | None = None

    def add(self, outs) -> list[int]:
        """Check the next outputs of the timed phase; accepted operations per output."""
        w, c = self.w, self.counts
        start, self.checked = self.checked, self.checked + len(outs)
        if isinstance(w, VerifySweep):
            it = timed_stream(w, self.traced)
            inputs = [next(it) for _ in range(self.checked)][start:]
            agains = self.pool.map(rerun_verify, [inp[1] for inp in inputs], chunksize=1)
            rows = [w.check_command(inp, out, again) for inp, out, again in zip(inputs, outs, agains)]
            self.probe = w.probe(agains[0])
        else:
            half = (len(outs) + 1) // 2
            tasks = [(w.name, w.seed, w.tmpdir, self.traced, start, outs[:half]),
                     (w.name, w.seed, w.tmpdir, self.traced, start + half, outs[half:])]
            rows = []
            for part, probe in self.pool.map(check_part, tasks):
                rows += [(v, 1, int(v == OK), kind) for v, kind in part]
                if self.probe is None:
                    self.probe = probe
        accepted = []
        for verdict, run, passed, kind in rows:
            c["attempted"] += run
            if verdict in (WRONG, UNCHECKED):
                c[verdict] += run
                accepted.append(0)
                continue
            c[OK] += passed
            c[FAILED] += run - passed
            if run > passed:
                self.failures[kind] = self.failures.get(kind, 0) + run - passed
            accepted.append(passed)
        return accepted


class _FirstOpDone(Exception):
    pass


def cold(w) -> None:
    """Complete the workload's first timed operation, then return."""
    if not isinstance(w, VerifySweep):
        w.run(next(w.inputs(0)))
        return
    original = identity_engine.eval_identity_sides

    def first(*args):
        original(*args)
        raise _FirstOpDone

    identity_engine.eval_identity_sides = first
    try:
        w.run(next(w.inputs(0)))
    except _FirstOpDone:
        return
    raise RuntimeError("verify finished without evaluating a sample")


def cold_start_s(w) -> float:
    """Seconds from spawning a fresh process through its first completed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--cold",
           f"--workload={w.name}", f"--seed={w.seed}", "--seconds=0"]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=COLD_TIMEOUT_S)
    return perf_counter() - t0


def run_ops(w, it, lat: array, n: int, clock: Clock | None = None) -> None:
    """Closed loop of n operations; calibration time is left out of ``lat``."""
    for _ in range(n):
        inp = next(it)
        spent = clock.spent if clock else 0.0
        t0 = perf_counter()
        out = w.run(inp)
        t1 = perf_counter()
        w.store(out)
        lat.append(t1 - t0 - (clock.spent - spent if clock else 0.0))
        if clock:
            clock.maybe(t1)


def split(total: int, parts: int) -> list[int]:
    return [total // parts + (i < total % parts) for i in range(parts)]


def measure(w, seconds: float, traced: bool, pool) -> dict:
    warm = w.inputs(1)
    run_ops(w, warm, array("d"), n=w.warmup_ops)
    w.drain()

    tally = Tally(w, pool, traced)
    it = timed_stream(w, traced)
    result: dict = {}
    if traced:
        result["per_layer"] = traced_blocks(w, it, seconds)
        tally.add(w.drain())
    else:
        result.update(timed_chunks(w, it, tally, seconds))
    result.update(tally.counts, failures=tally.failures, probe_rejected=bool(tally.probe), numpy=np.__version__)
    return result


def timed_chunks(w, it, tally: Tally, seconds: float) -> dict:
    """The timed phase: a fixed number of operations, in chunks.

    ``max(min_ops, round(rate * seconds))`` operations, about ``seconds`` of
    work on the reference machine, so the same seed and seconds give the same
    operations, the same failures and the same counts on every run.  Checks
    and cold starts run between chunks.  The calibration loop samples the
    machine's speed between operations, and ``ops_per_s`` is scaled to the
    reference speed; the raw rate is printed beside it.  ``setup_s`` is not
    scaled: the loop did not track the cost of a cold start.
    """
    clock = Clock()
    if isinstance(w, VerifySweep):
        w.clock = clock
    sizes = split(max(w.min_ops, round(w.rate * seconds)), w.chunks)
    colds = split(COLD_STARTS, w.chunks)
    busy, ok, cold, commands = 0.0, 0, [], []
    truncated = False
    ok_ms = array("d")  # compact: it holds every accepted operation of the run
    for size, n_cold in zip(sizes, colds):
        if busy > MAX_SLOWDOWN * seconds:
            truncated = True
            break
        lat = array("d")
        run_ops(w, it, lat, size, clock)
        busy += sum(lat)
        outs = w.drain()
        accepted = tally.add(outs)
        ok += sum(accepted)
        if isinstance(w, VerifySweep):
            for dt, (rc, start, end, err), a in zip(lat, outs, accepted):
                if a:
                    commands.append(dt)
                    ok_ms += array("d", (t for t, good in zip(w.sample_ms[start:end], w.sample_ok[start:end]) if good))
        else:
            ok_ms += array("d", (dt * 1e3 for dt, a in zip(lat, accepted) if a))
        cold += [cold_start_s(w) for _ in range(n_cold)]
    w.clock = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    slowdown = clock.slowdown()
    result = {
        "truncated": truncated,
        "max_slowdown": MAX_SLOWDOWN,
        "busy_s": busy,
        "slowdown": slowdown,
        "calibrations": len(clock.times),
        "raw_ops_per_s": ok / busy,
        "ops_per_s": ok / busy * slowdown,
        "op_p50_ms": float(np.median(ok_ms)) if ok_ms else 0.0,
        "op_p99_ms": float(np.percentile(ok_ms, 99)) if ok_ms else 0.0,
        "latency_n": len(ok_ms),
        "peak_rss_mb": rss_mb,
        "setup_s": float(np.median(cold)),
        "setup_runs": len(cold),
    }
    if isinstance(w, VerifySweep) and commands:
        result["verify_all_s"] = float(np.median(commands))
    return result


def traced_blocks(w, it, seconds: float):
    """Run each block of inputs untraced, then traced; reduce the first traced block.

    ``it`` yields every block twice, so the overhead compares the same work.
    The number of blocks is fixed, like the operations of the timed phase.
    """
    from spans import Tracer

    busy = {False: 0.0, True: 0.0}
    first = None
    lat = array("d")
    for _ in range(max(1, round(w.rate * seconds / (2 * w.block)))):
        for traced in (False, True):
            tracer = Tracer() if traced else None
            t0 = perf_counter()
            if tracer:
                with tracer:
                    run_ops(w, it, lat, n=w.block)
                first = first or tracer
            else:
                run_ops(w, it, lat, n=w.block)
            busy[traced] += perf_counter() - t0
    layer = first.metrics()
    layer["bench.trace_overhead"] = busy[True] / busy[False] - 1.0
    first.save(os.path.join(OUT_DIR, f"spans-{w.name}.npz"))
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(jacobifn.__file__).startswith(src):
        raise SystemExit(f"jacobifn imported from {jacobifn.__file__}, not from {src}")

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        with open(os.devnull, "w") as devnull, redirect_stderr(devnull):
            w = WORKLOADS[args.workload](args.seed, tmpdir)
            if args.cold:
                cold(w)
                return 0
            # Two check workers: no more processes busy than cores here.
            pool = multiprocessing.get_context("spawn").Pool(2)
            try:
                result = measure(w, args.seconds, bool(args.trace), pool)
            finally:
                pool.close()
                pool.join()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
