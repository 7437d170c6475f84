import json

import pytest

from jacobifn.cli import main, parse_complex


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
