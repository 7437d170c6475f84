"""``tools/same_bits.py``: the repository against itself, and its diff counts."""

import importlib.util
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "same_bits.py")
_spec = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def test_repository_matches_itself():
    proc = subprocess.run(
        [sys.executable, _PATH, "--calls", "300", "--arrays", "40", _ROOT, _ROOT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scalar calls: 300 (seed 5), differing outputs: 0" in proc.stdout
    assert "array calls: 40 (seed 5), differing outputs: 0" in proc.stdout
    assert "reports: identical" in proc.stdout


def test_differences_by_kind():
    first = ["0x1p+0 0x0p+0|0x1p-52|rep1", "0x1p+0 0x0p+0|0x1p-52|rep1", "! NoConvergentPath", "0x1p+0 0x0p+0|0x1p-52|rep1"]
    second = ["0x1p+0 -0x0p+0|0x1p-52|rep1", "0x1p+0 0x0p+0|0x1p-51|rep3", "! CutError", "0x1p+0 0x0p+0|0x1p-52|rep1"]
    assert same_bits.differences(first, second) == {"value": 1, "estimate": 1, "provenance": 1, "error": 1}


def test_transitions_by_outcome():
    first = ["1|2|rep1", "1|2|rep1", "3|4|rep1", "! CutError", "! CutError", "5|6|rep3"]
    second = ["1|2|rep3", "1|2|rep3", "3|4|rep1", "! NoConvergentPath", "0|0|rep1", "5|7|rep3"]
    assert same_bits.transitions(first, second) == {
        "rep1 -> rep3": 2, "CutError -> NoConvergentPath": 1, "CutError -> rep1": 1
    }
