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
    assert "explicit calls: 300 (seed 5), differing outputs: 0" in proc.stdout
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


def test_explicit_calls_take_each_representation_in_turn(capsys):
    # Call i is P at even i and Q at odd i; its explicit call takes REP1 to
    # REP4 in turn for each kind, at the scalar call's triple and point.
    same_bits.dump(80, 0, 5)
    explicit = capsys.readouterr().out.splitlines()[80:]
    assert len(explicit) == 80
    returned = [(i, line.rsplit("|", 1)[-1]) for i, line in enumerate(explicit) if not line.startswith("!")]
    assert all(rep == f"rep{i // 2 % 4 + 1}" for i, rep in returned)
    assert {(i % 2, rep) for i, rep in returned} == {(kind, f"rep{k}") for kind in (0, 1) for k in range(1, 5)}
