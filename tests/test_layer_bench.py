"""``tools/layer_bench.py``: a short run of the repository against itself.

Checks the record's schema and that every time, ratio and count is finite;
no timing is gated.  The two loads of one checkout do the same work, so
their counts agree.
"""

import json
import math
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "layer_bench.py")
_LAYERS = {
    "gamma.gamma", "gamma.log_gamma", "gamma.reciprocal_gamma",
    "2f1.modulus 0.00-0.25", "2f1.modulus 0.25-0.50", "2f1.modulus 0.50-0.75", "2f1.modulus 0.75-0.95",
    "P.rep1", "P.rep3", "P.connection", "Q", "plan.p.16", "plan.p.151", "plan.q.16", "plan.q.151",
    "series_batch.16", "series_batch.151", "series_batch.256", "connection_batch.16", "connection_batch.151",
}
_COUNTS = {"lanczos", "terms", "leading_us", "instrumented_us"}


def test_repository_against_itself(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, _PATH, _ROOT, _ROOT, "--rounds", "2", "--calls", "60", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"rounds", "calls", "seed", "layers"}
    assert set(record["layers"]) == _LAYERS
    for layer, row in record["layers"].items():
        assert row["calls"] > 0
        for key in ("parent_us", "change_us", "ratio"):
            assert math.isfinite(row[key]) and row[key] > 0, (layer, key)
        parent, change = row["parent_counts"], row["change_counts"]
        assert set(parent) == set(change) == _COUNTS
        assert all(math.isfinite(v) for v in (*parent.values(), *change.values()))
        assert (parent["lanczos"], parent["terms"]) == (change["lanczos"], change["terms"])
        assert f"| {layer} |" in proc.stdout
