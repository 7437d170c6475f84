"""The comparison block of ``tools/bench_record.py`` on synthetic runs."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# Per checkout, per metric, the value at each of three seeds.
_VALUES = {
    "parent": {"ops_per_s": [100.0, 110.0, 90.0], "setup_s": [0.2, 0.2, 0.2],
               "ok_share": [1.0, 1.0, 1.0], "peak_rss_mb": [50.0, 50.0, 0.0]},
    "change": {"ops_per_s": [120.0, 110.0, 117.0], "setup_s": [0.1, 0.3, 0.2],
               "ok_share": [1.0, 1.0, 1.0], "peak_rss_mb": [49.0, 51.0, 1.0]},
}


def _fake_run(checkout, workload, seed, seconds):
    index = [2, 5, 9].index(seed)
    metrics = {name: {"value": runs[index], "unit": "x"} for name, runs in _VALUES[checkout].items()}
    return f"src-{checkout}", {"correct": True, "metrics": metrics}


def test_comparison_block(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "run_once", _fake_run)
    out = tmp_path / "bench.json"
    argv = ["--seeds", "2,5,9", "--seconds", "1", "--out", str(out), "parent", "change"]
    assert bench_record.main(argv) == 0
    record = json.loads(out.read_text())
    assert [c["source"] for c in record["checkouts"]] == ["src-parent", "src-change"]
    assert set(record["comparison"]) == set(bench_record.WORKLOADS)
    block = record["comparison"]["verify-sweep"]
    # ops_per_s is better higher: ratios 1.2, 1.0, 1.3; two seeds better, one tie.
    assert block["ops_per_s"] == {"median_ratio": pytest.approx(1.2), "better": 2, "seeds": 3}
    # setup_s is better lower: one seed better, one worse, one tie.
    assert block["setup_s"] == {"median_ratio": pytest.approx(1.0), "better": 1, "seeds": 3}
    assert block["ok_share"] == {"median_ratio": 1.0, "better": 0, "seeds": 3}
    # A parent value of 0 gives no ratio, but its seed still counts.
    assert block["peak_rss_mb"] == {"median_ratio": pytest.approx(1.0), "better": 1, "seeds": 3}
    assert "verify-sweep seed=9" in capsys.readouterr().out


def test_no_comparison_for_one_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "run_once", _fake_run)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--seeds", "2", "--out", str(out), "change"]) == 0
    assert "comparison" not in json.loads(out.read_text())
