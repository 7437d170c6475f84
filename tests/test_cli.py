import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobifn.cli import USAGE_HINT, _table_json, main, parse_complex
from jacobifn.errors import JacobiFnError
from jacobifn.jacobi_first import JacobiParams, jacobi_p
from jacobifn.jacobi_second import jacobi_q, jacobi_q_log
from test_batch import ULPS, _p_slack, _series_length


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("1.5,-2") == 1.5 - 2j
    from jacobifn.cli import CliError

    with pytest.raises(CliError):
        parse_complex("banana")


def test_eval_legendre(capsys):
    code = main(
        ["eval", "--kind", "P", "--alpha", "0", "--beta", "0", "--gamma", "2", "--z", "0.6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    value_line = next(l for l in out.splitlines() if l.startswith("value = "))
    real_part = float(value_line.split("=")[1].split("+")[0].strip())
    assert abs(real_part - 0.04) < 1e-12
    assert "representation = rep" in out


def test_eval_inside_cut_fails(capsys):
    code = main(["eval", "--kind", "Q", "--z", "0.5"])
    assert code == 1
    assert "DomainCutError" in capsys.readouterr().err


def test_eval_parse_failure(capsys):
    code = main(["eval", "--kind", "P", "--z", "banana"])
    assert code == 2


def test_eval_bad_flag_usage():
    assert main(["eval", "--kind", "R", "--z", "1"]) == 2


def test_verify_single_json(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(
        [
            "verify",
            "--id",
            "FD4",
            "--samples",
            "5",
            "--seed",
            "42",
            "--tol",
            "1e-8",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["identity"] == "FD4"
    assert payload["seed"] == 42
    assert payload["tolerance"] == 1e-8
    assert payload["samples"]["requested"] == 5
    assert payload["samples"]["run"] == payload["samples"]["passed"]
    assert set(payload["worst"]) == {"residual", "params", "z", "n"}
    assert out.read_text().endswith("\n")


def test_verify_unknown_identity(capsys):
    assert main(["verify", "--id", "XX9", "--samples", "5"]) == 2


def test_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--id", "SN", "--samples", "4", "--seed", "7", "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert (
        main(["verify", "--id", "SQ0", "--samples", "3", "--seed", "1", "--csv", str(out)])
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("identity,seed,tolerance")
    assert lines[1].startswith("SQ0,1,")


def test_verify_failure_exit_code_and_report(tmp_path):
    out = tmp_path / "r.json"
    # An absurdly tight tolerance forces failures; the report is still written.
    code = main(
        [
            "verify",
            "--id",
            "FD4",
            "--samples",
            "4",
            "--seed",
            "3",
            "--tol",
            "1e-300",
            "--json",
            str(out),
        ]
    )
    assert code == 1
    assert out.exists()


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("samples=4\nseed=11\n")
    assert main(["verify", "--id", "FD4", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "seed=11" in out
    # Flags override the file.
    assert main(["verify", "--id", "FD4", "--config", str(cfg), "--seed", "12"]) == 0
    assert "seed=12" in capsys.readouterr().out


def test_verify_config_n_values_unparseable(tmp_path, capsys):
    # The flag and the config file share one n-values parser and one error path.
    cfg = tmp_path / "cfg"
    cfg.write_text("n_values=1,x\n")
    assert main(["verify", "--id", "FD4", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: config value for n_values unparseable: '1,x'\n" + USAGE_HINT + "\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--kind", "P", "--z", "banana"],
         "cannot parse complex literal 'banana' (want 're' or 're,im')"),
        (["table", "--kind", "Q", "--z-grid", "0,1"],
         "grid spec '0,1' needs start:stop:count (or real a,b,n)"),
        (["verify", "--id", "FD4", "--n-values", "1,x"],
         "--n-values must be a comma list of integers"),
    ],
)
def test_parse_errors_exit_2_with_usage_hint(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n{USAGE_HINT}\n"


def test_table_real_grid(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "table",
            "--kind",
            "P",
            "--gamma",
            "2",
            "--z-grid",
            "0,0.9,10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    assert lines[0] == "z_re,z_im,value_re,value_im,err_estimate,representation"
    # Second column row: z=0.1 -> P2 = (3*0.01-1)/2 = -0.485
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - (-0.5)) < 1e-12


def test_table_p_real_interval_near_minus_one(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--kind", "P", "--z-grid=-0.95,0.95,16", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 17


def test_main_twice_keeps_calls_apart(tmp_path):
    # The parser is built once per process; one call's values and the
    # other's defaults must not mix.
    a, b = tmp_path / "a.json", tmp_path / "b.csv"
    argv = ["table", "--kind", "P", "--z-grid", "0.1,0.5,3"]
    assert main(argv + ["--gamma", "2", "--format", "json", "--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    rows = json.loads(a.read_text())
    assert rows[0]["value"][0] == pytest.approx(-0.485, abs=1e-12)  # Legendre P2(0.1)
    lines = b.read_text().splitlines()
    assert lines[0].startswith("z_re,")
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)  # gamma = 0


def test_main_runs_the_current_handler(monkeypatch, tmp_path):
    # The cached parser must not pin the handler that was bound when it was
    # built: the benchmark's tracer and test doubles rebind cmd_*.
    from jacobifn import cli

    bad = tmp_path / "fixtures.json"
    bad.write_text("{ not json")
    assert main(["selftest", "--fixtures", str(bad)]) == 2
    monkeypatch.setattr(cli, "cmd_selftest", lambda args: 42)
    assert main(["selftest", "--fixtures", str(bad)]) == 42


def test_table_grid_crossing_cut_writes_nothing(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["table", "--kind", "P", "--z-grid=-3,-2,4", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_table_degenerate_grid(tmp_path):
    out = tmp_path / "t.csv"
    assert (
        main(["table", "--kind", "P", "--gamma", "1", "--z-grid", "0.5,0.5,1", "--out", str(out)])
        == 0
    )
    assert len(out.read_text().splitlines()) == 2


def test_selftest_ok(capsys):
    assert main(["selftest"]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_selftest_corrupted_fixtures(tmp_path, capsys):
    bad = tmp_path / "fixtures.json"
    bad.write_text("{ not json")
    assert main(["selftest", "--fixtures", str(bad)]) == 2


def test_selftest_perturbed_constant(tmp_path, capsys):
    from jacobifn.identity_engine import load_fixtures

    data = load_fixtures()
    pin = data["entries"]["FD4"]["pins"][0]
    pin["lhs"][0] = pin["lhs"][0] * 1.5 + 1.0
    f = tmp_path / "fixtures.json"
    f.write_text(json.dumps(data))
    assert main(["selftest", "--fixtures", str(f)]) == 1
    assert "FD4" in capsys.readouterr().err


# --- table: one batch against the scalar loop it replaces --------------------


def _lit(x: complex) -> str:
    return f"{x.real!r},{x.imag!r}"


def _table_cases(seed: int, count: int):
    """Seeded (kind, params, grid spec) of the three table shapes: P on a real
    interval in (-1, 1), P on a complex segment right of -1, Q on a complex
    segment in one half plane (often through the lens where Q has no series)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        u = rng.random(11).tolist()
        params = JacobiParams(
            *(complex(-0.65 + 3.45 * u[2 * j], 0.45 * (2.0 * u[2 * j + 1] - 1.0)) for j in range(3))
        )
        shape = ("P-real", "P-segment", "Q-segment")[i % 3]
        if shape == "P-real":
            yield "P", params, f"{-0.95 + 0.35 * u[6]!r},{0.6 + 0.35 * u[7]!r},16"
        elif shape == "P-segment":
            a = complex(-0.9 + 4.9 * u[6], -2.0 + 4.0 * u[7])
            b = complex(-0.9 + 4.9 * u[8], -2.0 + 4.0 * u[9])
            yield "P", params, f"{_lit(a)}:{_lit(b)}:16"
        else:
            side = 1.0 if u[10] < 0.5 else -1.0
            a = complex(-4.0 + 8.0 * u[6], side * (0.1 + 1.9 * u[7]))
            b = complex(-4.0 + 8.0 * u[8], side * (0.1 + 1.9 * u[9]))
            yield "Q", params, f"{_lit(a)}:{_lit(b)}:16"


def _grid(spec: str) -> list[complex]:
    from jacobifn.cli import _parse_grid

    start, stop, count = _parse_grid(spec)
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _scalar_loop(kind, params, grid):
    """The rows of the scalar calls point by point, with the square root of
    each point's longest series, or the stderr line of the first failure."""
    fn = jacobi_p if kind == "P" else jacobi_q
    rows = []
    for z in grid:
        try:
            with _series_length() as longest:
                res = fn(params, z)
        except JacobiFnError as exc:
            return None, f"{type(exc).__name__} at z={z}: {exc}\n"
        rows.append((z, res, math.sqrt(longest[0])))
    return rows, ""


def _read_table(path, fmt):
    """(z reprs, value, error estimate, representation) of each written row."""
    if fmt == "json":
        rows = json.loads(path.read_text())
        return [
            ((repr(r["z"][0]), repr(r["z"][1])), complex(*r["value"]), r["err_estimate"],
             r["representation"])
            for r in rows
        ]
    lines = list(csv.reader(path.read_text().splitlines()))
    assert lines[0] == ["z_re", "z_im", "value_re", "value_im", "err_estimate", "representation"]
    return [
        ((zr, zi), complex(float(vr), float(vi)), float(e), rep)
        for zr, zi, vr, vi, e, rep in lines[1:]
    ]


def _assert_same_table(tmp_path, capsys, kind, params, spec, fmt):
    out = tmp_path / f"t.{fmt}"
    if out.exists():
        out.unlink()
    argv = ["table", f"--kind={kind}", f"--alpha={_lit(params.alpha)}",
            f"--beta={_lit(params.beta)}", f"--gamma={_lit(params.gamma)}",
            f"--z-grid={spec}", f"--format={fmt}", f"--out={out}"]
    code = main(argv)
    err = capsys.readouterr().err
    grid = _grid(spec)
    ref, ref_err = _scalar_loop(kind, params, grid)
    assert (code, err) == ((1, ref_err) if ref is None else (0, ""))
    if ref is None:
        assert not out.exists()
        return
    got = _read_table(out, fmt)
    assert len(got) == len(ref)
    for (zs, v, e, rep), (z, res, growth) in zip(got, ref):
        assert zs == (repr(z.real), repr(z.imag))
        assert rep == res.provenance
        if kind == "P":
            tol = growth * (e + res.abs_error_estimate) + _p_slack(params, z, res, growth)
        else:
            rel = growth * (e + res.abs_error_estimate) / abs(res.value)
            tol = (rel + ULPS * (1.0 + abs(jacobi_q_log(params, z)))) * abs(res.value)
        assert abs(v - res.value) <= tol


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_batch_matches_scalar_loop(tmp_path, capsys, fmt):
    for kind, params, spec in _table_cases(seed=515, count=30):
        _assert_same_table(tmp_path, capsys, kind, params, spec, fmt)


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("Q", "-3,0.5:3,0.5:16"),  # through Q's lens: NoConvergentPath
        ("Q", "-3,0:3,0:7"),  # onto Q's cut: DomainCutError
        ("P", "-3,0.25:-0.5,-0.25:16"),  # across P's cut, near -1: NoConvergentPath
        ("P", "-3,0.3:-0.5,-0.3:7"),  # a point on P's cut: DomainCutError
        ("P", "-2,0:-2,0:1"),  # one point, on P's cut
        ("Q", "2,1:2,1:1"),  # one point that evaluates
        # The first failure past the first chunk of BATCH_POINTS points.
        ("Q", "8,0.5:-3,0.5:600"),  # at index 384
        ("P", "6,0.25:-3,-0.25:600"),  # at index 465
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_stops_where_the_scalar_loop_stops(tmp_path, capsys, kind, spec, fmt):
    params = JacobiParams(0.3 + 0.1j, 0.7, 1.4 - 0.2j)
    _assert_same_table(tmp_path, capsys, kind, params, spec, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_p_polynomial_degree_near_minus_one(tmp_path, capsys, fmt):
    # REP1 terminates at gamma = 3, so P sums it beyond the preferred disk
    # near -1 and the table, like the scalar loop, writes every row.
    params = JacobiParams(0.3 + 0.1j, 0.7, 3.0)
    spec = "-0.999,0:-0.9,0:16"
    assert _scalar_loop("P", params, _grid(spec))[1] == ""
    _assert_same_table(tmp_path, capsys, "P", params, spec, fmt)


@pytest.mark.parametrize(
    "kind, spec, entries",
    [
        ("Q", "3,0.5:-3,0.5:16", ("_ohyp2f1_batch",)),
        ("P", "-3,0.3:-0.5,-0.3:7", ("_rep_batch", "_connection_batch")),
    ],
)
def test_table_evaluates_nothing_past_the_first_failing_point(monkeypatch, kind, spec, entries):
    # The batch stops before the first point where the scalar call raises:
    # no series, and no connection, runs for a point after it.
    from jacobifn import jacobi_first, jacobi_second

    params = JacobiParams(0.3 + 0.1j, 0.7, 1.4 - 0.2j)
    grid = _grid(spec)
    fn = jacobi_p if kind == "P" else jacobi_q
    first = 0
    with pytest.raises(JacobiFnError):
        for first, z in enumerate(grid):
            fn(params, z)
    module = jacobi_first if kind == "P" else jacobi_second
    rows = []
    for name in entries:
        entry = getattr(module, name)

        def counted(*args, _entry=entry):
            rows.append(next(a for a in args if isinstance(a, np.ndarray)).size)
            return _entry(*args)

        monkeypatch.setattr(module, name, counted)
    points = jacobi_first._p_points if kind == "P" else jacobi_second._q_points
    *_, failure = points(params, np.array(grid))
    assert failure[0] == first > 0
    # One series (Q) or one representation or connection (P) per point.
    assert sum(rows) == first


# --- table: the JSON writer ---------------------------------------------------

_any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
)
_complex = st.builds(complex, _any_float, _any_float)
_table_row = st.tuples(
    _complex, _complex, _any_float, st.one_of(st.sampled_from(["rep1", "rep3", "connection"]), st.text())
)


@given(st.lists(_table_row, max_size=6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_table_json_writer_matches_json_dumps(rows):
    payload = [
        {"z": [z.real, z.imag], "value": [v.real, v.imag], "err_estimate": e, "representation": rep}
        for z, v, e, rep in rows
    ]
    assert _table_json(rows) == json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_table_p_past_double_range_stops_with_no_convergent_path(tmp_path, capsys):
    # P's connection value at the first point overflows a double: the table
    # stops there with one line, as the scalar loop does, not a traceback.
    out = tmp_path / "t.csv"
    argv = ["table", "--kind=P", "--alpha=0.3", "--beta=0.2", "--gamma=7.1",
            "--z-grid=1e80,1e79:2e80,1e79:3", f"--out={out}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("NoConvergentPath at z=(1e+80+1e+79j): ")
    assert err.count("\n") == 1
    assert not out.exists()
