"""Command-line front end: point evaluation, tables, verification campaigns.

Exit codes: 0 success, 1 domain/verification failure, 2 usage or parse
failure.  Reports are written deterministically (sorted keys, fixed float
repr), so identical (seed, config) runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FixtureFormatError, JacobiFnError
from .identity_engine import (
    IdentityReport,
    _c2pair,
    list_identities,
    run_selftest,
    verify_identity,
)
from .jacobi_first import _PROVENANCE, JacobiParams, Representation, _p_points, jacobi_p
from .jacobi_second import _q_points, jacobi_q

USAGE_HINT = "run 'jacobifn --help' for usage"


class CliError(Exception):
    """Bad flags or unparseable values; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Verification campaign settings (config file overridden by flags)."""

    tolerance: float | None
    seed: int
    samples: int
    n_values: tuple[int, ...] | None
    output_path: str | None
    format: str

    def __post_init__(self):
        if self.tolerance is not None and self.tolerance <= 0:
            raise CliError("tolerance must be positive")
        if self.samples < 1:
            raise CliError("samples must be >= 1")


def parse_complex(text: str) -> complex:
    """Complex literal 're,im' or plain 're'."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliError(f"cannot parse complex literal {text!r} (want 're' or 're,im')")


def _parse_grid(spec: str) -> tuple[complex, complex, int]:
    """Grid spec 'start:stop:count' (complex 're,im' fields) or real 'a,b,n'."""
    if spec.count(":") == 2:
        s_start, s_stop, s_count = spec.split(":")
        start, stop = parse_complex(s_start), parse_complex(s_stop)
    elif spec.count(",") == 2:
        s_start, s_stop, s_count = spec.split(",")
        try:
            start, stop = complex(float(s_start)), complex(float(s_stop))
        except ValueError:
            raise CliError(f"cannot parse grid endpoints in {spec!r}") from None
    else:
        raise CliError(f"grid spec {spec!r} needs start:stop:count (or real a,b,n)")
    try:
        count = int(s_count)
    except ValueError:
        raise CliError(f"grid count in {spec!r} is not an integer") from None
    if count < 1:
        raise CliError("grid count must be >= 1")
    return start, stop, count


def _n_values(text: str) -> tuple[int, ...]:
    """The degrees n of a comma list, as ``--n-values`` and the config's n_values give them."""
    return tuple(int(p) for p in text.split(","))


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"config line without '=': {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return values


def report_payload(r: IdentityReport) -> dict:
    worst = None
    if r.worst_sample is not None:
        params, z, n = r.worst_sample
        worst = {
            "residual": r.worst_residual,
            "params": {
                "alpha": _c2pair(complex(params.alpha)),
                "beta": _c2pair(complex(params.beta)),
                "gamma": _c2pair(complex(params.gamma)),
            },
            "z": _c2pair(z),
            "n": n,
        }
    return {
        "identity": r.identity_id,
        "seed": r.seed,
        "tolerance": r.tolerance,
        "samples": {
            "requested": r.samples_requested,
            "run": r.run,
            "passed": r.passed,
            "skipped": r.skipped_constraint,
        },
        "worst": worst,
    }


def _reports_json(reports: list[IdentityReport]) -> str:
    payload = [report_payload(r) for r in reports]
    body = payload[0] if len(payload) == 1 else payload
    return json.dumps(body, sort_keys=True, indent=1) + "\n"


_CSV_FIELDS = (
    "identity",
    "seed",
    "tolerance",
    "requested",
    "run",
    "passed",
    "skipped",
    "worst_residual",
    "alpha_re",
    "alpha_im",
    "beta_re",
    "beta_im",
    "gamma_re",
    "gamma_im",
    "z_re",
    "z_im",
    "n",
)


def _reports_csv(reports: list[IdentityReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in reports:
        params, z, n = r.worst_sample
        writer.writerow(
            [
                r.identity_id,
                r.seed,
                repr(r.tolerance),
                r.samples_requested,
                r.run,
                r.passed,
                r.skipped_constraint,
                repr(r.worst_residual),
                repr(complex(params.alpha).real),
                repr(complex(params.alpha).imag),
                repr(complex(params.beta).real),
                repr(complex(params.beta).imag),
                repr(complex(params.gamma).real),
                repr(complex(params.gamma).imag),
                repr(z.real),
                repr(z.imag),
                n,
            ]
        )
    return buf.getvalue()


def _reports_text(reports: list[IdentityReport]) -> str:
    lines = []
    for r in reports:
        status = "pass" if r.failed == 0 else "FAIL"
        lines.append(
            f"{r.identity_id}: {status} run={r.run} passed={r.passed} "
            f"skipped={r.skipped_constraint} worst_residual={r.worst_residual:.3e} "
            f"tol={r.tolerance:.1e} seed={r.seed}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    params = JacobiParams(
        parse_complex(args.alpha), parse_complex(args.beta), parse_complex(args.gamma)
    )
    z = parse_complex(args.z)
    rep = Representation.AUTO if args.rep == "auto" else Representation(int(args.rep))
    fn = jacobi_p if args.kind == "P" else jacobi_q
    result = fn(params, z, rep)
    print(f"value = {result.value.real!r}{result.value.imag:+}j")
    print(f"abs_error_estimate = {result.abs_error_estimate!r}")
    print(f"representation = {result.provenance}")
    return 0


# One row of the table's JSON, as json.dumps(rows, sort_keys=True, indent=1)
# writes it: the writer formats rows directly, since ``indent`` sends json to
# its pure-Python encoder.
_JSON_ROW = (
    ' {{\n  "err_estimate": {},\n  "representation": {},\n'
    '  "value": [\n   {},\n   {}\n  ],\n  "z": [\n   {},\n   {}\n  ]\n }}'
)


# json's spelling of the floats that have no literal.
_JSON_SPECIAL = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_float(x: float) -> str:
    """A float as json writes it."""
    r = float.__repr__(x)
    return _JSON_SPECIAL.get(r, r)


def _table_json(rows) -> str:
    """json.dumps of the table rows with sorted keys and indent 1, plus a newline.

    rows holds (z, value, error estimate, representation) per point.
    """
    if not rows:
        return "[]\n"
    f = _json_float
    labels = {rep: json.dumps(rep) for _, _, _, rep in rows}
    body = ",\n".join(
        _JSON_ROW.format(f(e), labels[rep], f(v.real), f(v.imag), f(z.real), f(z.imag))
        for z, v, e, rep in rows
    )
    return "[\n" + body + "\n]\n"


def _table_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["z_re", "z_im", "value_re", "value_im", "err_estimate", "representation"])
    for z, v, e, rep in rows:
        writer.writerow([repr(z.real), repr(z.imag), repr(v.real), repr(v.imag), repr(e), rep])
    return buf.getvalue()


def cmd_table(args) -> int:
    params = JacobiParams(
        parse_complex(args.alpha), parse_complex(args.beta), parse_complex(args.gamma)
    )
    start, stop, count = _parse_grid(args.z_grid)
    if count == 1:
        grid = [start]
    else:
        step = (stop - start) / (count - 1)
        grid = [start + k * step for k in range(count)]

    # One batch for the grid, as the scalar calls point by point would give.
    # Every table is a new triple, so the memo of the array calls would
    # never hit; the table skips it.
    points = _p_points if args.kind == "P" else _q_points
    (*_, value, err, code), failure = points(params, np.array(grid), memo=False)
    if failure is not None:
        i, exc = failure
        print(f"{type(exc).__name__} at z={grid[i]}: {exc}", file=sys.stderr)
        return 1
    rows = list(zip(grid, value.tolist(), err.tolist(), [_PROVENANCE[c] for c in code.tolist()]))
    _emit(_table_json(rows) if args.format == "json" else _table_csv(rows), args.out)
    return 0


def _build_run_config(args) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag_val, key, cast, default):
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            try:
                return cast(file_vals[key])
            except ValueError:
                raise CliError(f"config value for {key} unparseable: {file_vals[key]!r}")
        return default

    try:
        n_values = None if args.n_values is None else _n_values(args.n_values)
    except ValueError:
        raise CliError("--n-values must be a comma list of integers") from None

    fmt = "text"
    path = None
    if args.json is not None:
        fmt, path = "json", args.json
    elif args.csv is not None:
        fmt, path = "csv", args.csv
    elif args.out is not None:
        fmt, path = pick(None, "format", str, "text"), args.out
    elif "format" in file_vals or "output_path" in file_vals:
        fmt = file_vals.get("format", "text").lower()
        path = file_vals.get("output_path")

    return RunConfig(
        tolerance=pick(args.tol, "tolerance", float, None),
        seed=pick(args.seed, "seed", int, 0),
        samples=pick(args.samples, "samples", int, 50),
        n_values=pick(n_values, "n_values", _n_values, None),
        output_path=path,
        format=fmt,
    )


def cmd_verify(args) -> int:
    config = _build_run_config(args)
    if args.all:
        idents = list(list_identities())
    else:
        if args.id is None:
            raise CliError("give --id or --all")
        if args.id not in list_identities():
            raise CliError(f"unknown identity {args.id!r}")
        idents = [args.id]

    reports = [
        verify_identity(
            ident,
            samples=config.samples,
            seed=config.seed,
            tol=config.tolerance,
            n_values=config.n_values,
        )
        for ident in idents
    ]

    if config.format == "json":
        text = _reports_json(reports)
    elif config.format == "csv":
        text = _reports_csv(reports)
    else:
        text = _reports_text(reports)
    _emit(text, config.output_path)
    return 0 if all(r.failed == 0 for r in reports) else 1


def cmd_selftest(args) -> int:
    try:
        failures = run_selftest(args.fixtures)
    except FixtureFormatError as exc:
        print(f"FixtureFormatError: {exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"selftest: FAIL ({failures[0]})", file=sys.stderr)
        for line in failures[1:]:
            print(f"  also: {line}", file=sys.stderr)
        return 1
    print("selftest: all pinned samples reproduced")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jacobifn",
        description="Jacobi functions of the first and second kind, plus the identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate P or Q at one point")
    p_eval.add_argument("--kind", choices=("P", "Q"), required=True)
    p_eval.add_argument("--alpha", default="0")
    p_eval.add_argument("--beta", default="0")
    p_eval.add_argument("--gamma", default="0")
    p_eval.add_argument("--z", required=True)
    p_eval.add_argument("--rep", choices=("auto", "1", "2", "3", "4"), default="auto")

    p_tab = sub.add_parser("table", help="emit values on a z grid")
    p_tab.add_argument("--kind", choices=("P", "Q"), required=True)
    p_tab.add_argument("--alpha", default="0")
    p_tab.add_argument("--beta", default="0")
    p_tab.add_argument("--gamma", default="0")
    p_tab.add_argument("--z-grid", required=True, help="start:stop:count or real a,b,n")
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tab.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run seeded identity verification")
    p_ver.add_argument("--id", default=None)
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--n-values", default=None)
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--json", default=None, metavar="PATH")
    p_ver.add_argument("--csv", default=None, metavar="PATH")
    p_ver.add_argument("--out", default=None, metavar="PATH")

    p_self = sub.add_parser("selftest", help="re-run the pinned fixtures")
    p_self.add_argument("--fixtures", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    # Handlers are looked up per call, not stored in the cached parser, so a
    # rebound cmd_* (a tracer, a test double) is the one that runs.
    handler = {
        "eval": cmd_eval,
        "table": cmd_table,
        "verify": cmd_verify,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE_HINT, file=sys.stderr)
        return 2
    except JacobiFnError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
