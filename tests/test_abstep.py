"""tools/abstep.py: the interleaved A/B of two source trees, on this tree
against itself and against copies whose velocity is off by one part in 1e15;
its pairs mode, on one pair of this tree against itself."""
import importlib.util
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("abstep", ROOT / "tools" / "abstep.py")
abstep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abstep)

WORKLOADS = {"ellipse-step": 2, "star-record": 2}


def test_tree_against_itself():
    package = sys.modules.get("h1flow")
    out = abstep.compare(ROOT, ROOT, sizes=(16,), blocks=8, steps=2, call_blocks=8,
                         workloads=WORKLOADS)
    assert sys.modules.get("h1flow") is package
    assert list(out) == ["step n=16", "chord n=16", "record n=16", "ellipse-step",
                         "star-record"]
    for label, s in out.items():
        assert 0.5 < s["ratio"] < 2.0
        assert s["q1"] <= s["ratio"] <= s["q3"]
        assert 0.0 <= s["b_lower"] <= 1.0
        assert s["a_s"] > 0.0 and s["b_s"] > 0.0
        # each workload is traced once per tree; the two runs of the same
        # tree allocate alike
        if label in WORKLOADS:
            assert 0.0 < s["a_peak_mb"] and 0.5 < s["b_peak_mb"] / s["a_peak_mb"] < 2.0
        else:
            assert "a_peak_mb" not in s and "b_peak_mb" not in s
    assert not tracemalloc.is_tracing()


def test_table(capsys):
    abstep.print_table(abstep.compare(ROOT, ROOT, sizes=(16,), blocks=4, steps=1,
                                      call_blocks=4, workloads=dict.fromkeys(WORKLOADS, 1)),
                       steps=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload outputs: bit-equal, checks passed"
    assert lines[1].split() == ["case", "A", "B", "B/A", "q1", "q3", "B", "lower",
                                "A", "peak", "B", "peak"]
    assert lines[2].split()[:2] == ["step", "n=16"] and len(lines) == 7
    for line, label in zip(lines[3:5], ("chord", "record")):
        cells = line.split()
        assert cells[:2] == [label, "n=16"] and cells[2].endswith("us") and len(cells) == 8
    for line, label in zip(lines[5:], WORKLOADS):
        cells = line.split()
        assert cells[0] == label and cells[1].endswith("ms") and len(cells) == 9
        assert cells[7].endswith("MB") and cells[8].endswith("MB")


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


def _refused(tmp_path, min_n, workloads):
    """compare against the copy of _scaled_copy(min_n) is refused on the
    last of the named workloads, and leaves sys.modules["h1flow"] as it was."""
    package = sys.modules.get("h1flow")
    with pytest.raises(AssertionError, match=f"different {workloads[-1]} outputs"):
        abstep.compare(ROOT, _scaled_copy(tmp_path, min_n), sizes=(),
                       workloads=dict.fromkeys(workloads, 1))
    assert sys.modules.get("h1flow") is package


def test_different_records_refused(tmp_path):
    # a record's gradient norm is the velocity's: the copy's records differ
    package = sys.modules.get("h1flow")
    with pytest.raises(AssertionError, match="different records at n=16"):
        abstep.compare(ROOT, _scaled_copy(tmp_path, 0), sizes=(16,), blocks=1, steps=1,
                       call_blocks=1, workloads={})
    assert sys.modules.get("h1flow") is package


def test_different_trajectories_refused(tmp_path):
    _refused(tmp_path, 0, ["circle-small"])


def test_different_ellipse_step_refused(tmp_path):
    # the copy differs only above circle-small's n = 64
    _refused(tmp_path, 65, ["circle-small", "ellipse-step"])


def test_different_star_record_refused(tmp_path):
    # the copy differs only from n = 1024, above ellipse-step's n = 512
    _refused(tmp_path, 1024, ["ellipse-step", "star-record"])


def test_pairs_mode_writes_a_bench_file_once(tmp_path):
    # one pair of this tree against itself, each side run from its own copy
    out = tmp_path / "BENCH_0.json"
    argv = [str(ROOT), str(ROOT), "--pairs", "1", "--workload", "ellipse-step",
            "--seconds", "0.2", "--out", str(out)]
    abstep.main(argv)
    bench = json.loads(out.read_text())
    assert bench["command"] == " ".join(["python3 tools/abstep.py", *argv])
    assert bench["child"] == ("python3 benchmarks/run.py --workload ellipse-step --seed K "
                              "--seconds 0.2 --trace 0")
    assert bench["parent"] == bench["change"] == (
        f"the tree at {ROOT}, a copy of its src, benchmarks, BENCHMARK.json")
    assert bench["workload"] == "ellipse-step" and bench["pairs"] == 1
    assert bench["correct"] == {"parent": True, "change": True}
    assert bench["failed"] == {"parent": 0, "change": 0}
    assert bench["attempted"]["parent"] > 0 and bench["attempted"]["change"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(bench["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in bench["metrics"].values():
        for side in ("parent", "change"):
            s = m[side]
            assert len(s["values"]) == 1
            assert s["min"] == s["q1"] == s["median"] == s["q3"] == s["values"][0]
        assert m["pairs"] == 1 and m["change_better_pairs"] + m["ties"] <= 1
        assert m["parent_iqr"] == 0.0
        assert m["beyond_parent_iqr"] == (m["change_better_pairs"] == 1)
    # the same tree on the same seed: the same oracle error
    assert bench["metrics"]["oracle_rel_err"]["ties"] == 1
    assert {"nproc", "numpy", "blas", "thread_env"} <= set(bench["env"])
    written = out.read_bytes()
    with pytest.raises(SystemExit):
        abstep.main(argv)
    assert out.read_bytes() == written


def test_revision_exported_by_git_archive(tmp_path):
    # a revision of a repository holding this tree's src, benchmarks and
    # BENCHMARK.json, and a file that a benchmark run does not read
    repo = tmp_path / "repo"
    abstep.export(ROOT, repo)
    (repo / "notes.txt").write_text("not exported\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    label = abstep.export("HEAD", tmp_path / "out", repo=repo)
    rev = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                         text=True).stdout
    assert label == f"{rev[:7]}, a git archive copy"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(abstep.TREE)
    for name in ("src/h1flow/paths.py", "benchmarks/run.py", "BENCHMARK.json"):
        assert (tmp_path / "out" / name).read_bytes() == (ROOT / name).read_bytes()
