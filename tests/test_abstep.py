"""tools/abstep.py: the interleaved A/B of two source trees, on this tree
against itself and against a copy whose velocity is off by one part in 1e15."""
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("abstep", ROOT / "tools" / "abstep.py")
abstep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abstep)


def test_tree_against_itself():
    out = abstep.compare(ROOT, ROOT, sizes=(16,), blocks=8, steps=2, run_blocks=1,
                         chord_blocks=8, zigzag_blocks=2, zigzag_n=64, ellipse_blocks=2,
                         ellipse_n=64)
    assert list(out) == ["step n=16", "chord n=16", "ellipse-step", "circle-small",
                         "zigzag-paths"]
    for s in out.values():
        assert 0.5 < s["ratio"] < 2.0
        assert s["q1"] <= s["ratio"] <= s["q3"]
        assert 0.0 <= s["b_lower"] <= 1.0
        assert s["a_s"] > 0.0 and s["b_s"] > 0.0


def test_table(capsys):
    abstep.print_table(abstep.compare(ROOT, ROOT, sizes=(16,), blocks=4, steps=1, run_blocks=0,
                                      chord_blocks=4, zigzag_blocks=1, zigzag_n=64,
                                      ellipse_blocks=1, ellipse_n=64), steps=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "circle-small trajectories: bit-equal"
    assert lines[1].split() == ["case", "A", "B", "B/A", "q1", "q3", "B", "lower"]
    assert lines[2].split()[:2] == ["step", "n=16"] and len(lines) == 6
    chord = lines[3].split()
    assert chord[:2] == ["chord", "n=16"] and chord[2].endswith("us")
    for line, label in zip(lines[4:], ("ellipse-step", "zigzag-paths")):
        assert line.split()[0] == label and line.split()[1].endswith("ms")


def _scaled_copy(tmp_path, min_n):
    """A copy of this tree whose velocity, as the flow imports it, is scaled
    by 1 + 1e-15 on curves of at least min_n vertices."""
    shutil.copytree(ROOT / "src" / "h1flow", tmp_path / "src" / "h1flow",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "h1flow" / "gradient.py", "a") as gradient:
        gradient.write("\n_exact = velocity\n"
                       "def velocity(curve):\n"
                       f"    return _exact(curve) * (1.0 + 1e-15 * (curve.n >= {min_n}))\n")
    return tmp_path


def test_different_trajectories_refused(tmp_path):
    with pytest.raises(AssertionError, match="different circle-small trajectories"):
        abstep.compare(ROOT, _scaled_copy(tmp_path, 0), sizes=(), run_blocks=0,
                       zigzag_blocks=0, ellipse_blocks=0)


def test_different_ellipse_step_refused(tmp_path):
    # the copy differs only above circle-small's n = 64
    with pytest.raises(AssertionError, match="different ellipse-step trajectories"):
        abstep.compare(ROOT, _scaled_copy(tmp_path, 65), sizes=(), run_blocks=0,
                       zigzag_blocks=0, ellipse_blocks=1, ellipse_n=128)
