"""Command-line interface: exit codes, output files, and printed results."""
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h1flow as h
from h1flow import cli
from h1flow.cli import main


def run_cli(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        rc, _, err = run_cli([], capsys)
        assert rc == 1
        assert err.startswith("error:")

    def test_flow_needs_exactly_one_horizon(self, capsys):
        rc, _, err = run_cli(["flow", "--dt", "0.1"], capsys)
        assert rc == 1 and "error:" in err
        rc, _, err = run_cli(
            ["flow", "--dt", "0.1", "--steps", "3", "--t1", "1.0"], capsys)
        assert rc == 1 and "error:" in err

    def test_flow_requires_dt(self, capsys):
        rc, _, err = run_cli(["flow", "--t1", "1.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    def test_unknown_shape(self, capsys):
        rc, _, err = run_cli(
            ["flow", "--shape", "heptagon", "--dt", "0.1", "--t1", "1.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    def test_bad_timestep(self, capsys):
        rc, _, err = run_cli(
            ["flow", "--dt", "-0.1", "--t1", "1.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    def test_square_divisibility(self, capsys):
        rc, _, err = run_cli(
            ["flow", "--shape", "square", "--n", "30", "--dt", "0.1",
             "--t1", "1.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.parametrize("lobes", ["0", "-5"])
    def test_star_lobe_count_below_one(self, capsys, lobes):
        rc, out, err = run_cli(
            ["flow", "--shape", "star", "--lobes", lobes, "--n", "64", "--dt", "0.1",
             "--steps", "1"], capsys)
        assert (rc, out, err) == (1, "", "error: lobes must be >= 1\n")

    @pytest.mark.parametrize("shape", ["star", "circle"])
    def test_shape_and_input_are_exclusive(self, tmp_path, capsys, shape):
        # circle, the shape a run takes when neither is given, is refused too
        src = tmp_path / "in.csv"
        h.write_curve(h.circle(1.0, 48), str(src))
        argv = ["flow", "--shape", shape, "--input", str(src), "--dt", "0.1", "--steps", "1",
                "--out-csv", str(tmp_path / "out.csv")]
        assert run_cli(argv, capsys) == (
            1, "", "error: argument --input: not allowed with argument --shape\n")
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("steps", ["-3", "1" * 400, "2.5"],
                             ids=["negative", "400-digits", "fraction"])
    def test_steps_is_a_count(self, capsys, steps):
        argv = ["flow", "--n", "16", "--dt", "0.1", "--steps", steps]
        assert run_cli(argv, capsys) == (
            1, "", f"error: argument --steps: invalid count value: '{steps}'\n")

    def test_steps_at_a_large_t0(self, tmp_path, capsys):
        # t0 = 1e12 still holds t0 + 5 * dt to the step
        out_json = tmp_path / "t.json"
        argv = ["flow", "--n", "16", "--t0", "1e12", "--dt", "1e-3", "--steps", "5",
                "--out-json", str(out_json)]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, err) == (0, "") and out.startswith("termination=completed ")
        assert len(json.loads(out_json.read_text())["times"]) == 6

    @pytest.mark.parametrize("t0, runs", [("1e13", 6), ("1e15", 0)])
    def test_steps_lost_at_a_larger_t0(self, tmp_path, capsys, t0, runs):
        # t0 + 5 * dt rounds to another count: refused, not run
        argv = ["flow", "--n", "16", "--t0", t0, "--dt", "1e-3", "--steps", "5",
                "--out-csv", str(tmp_path / "d.csv")]
        assert run_cli(argv, capsys) == (
            1, "", f"error: argument --steps: at t0 = {float(t0):.17g}, t0 + 5 * dt "
                   f"rounds to {runs} steps\n")
        assert list(tmp_path.iterdir()) == []

    def test_zigzag_teeth_must_divide(self, capsys):
        rc, _, err = run_cli(
            ["distance", "--demo", "zigzag", "--teeth", "3", "--n", "256"],
            capsys)
        assert rc == 1 and err.startswith("error:")

    def test_reparam_fold_back_rejected(self, capsys):
        rc, _, err = run_cli(
            ["distance", "--demo", "reparam", "--lambda", "2.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_reparam_non_finite_lambda_rejected(self, capsys, lam):
        # the one error line, with no NumPy warning before it
        argv = ["distance", "--demo", "reparam", "--lambda", lam]
        assert run_cli(argv, capsys) == (1, "", "error: twist must be finite\n")

    @pytest.mark.parametrize("argv, field", [
        (["--t1", "nan"], "t1"),
        (["--t1", "inf"], "t1"),
        (["--t0", "nan", "--t1", "1"], "t0"),
        (["--t0", "inf", "--steps", "2"], "t0"),
        (["--size", "inf", "--t1", "1"], "size"),
        (["--size", "nan", "--t1", "1"], "size"),
        (["--shape", "ellipse", "--size-b", "inf", "--t1", "1"], "size_b"),
    ])
    def test_non_finite_input_named(self, capsys, argv, field):
        rc, out, err = run_cli(["flow", "--n", "16", "--dt", "0.1"] + argv, capsys)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {field} must be finite, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf"])
    def test_non_finite_timestep_named(self, capsys, dt):
        # named before the positivity and stability checks read it
        rc, out, err = run_cli(["flow", "--dt", dt, "--t1", "1"], capsys)
        assert rc == 1 and out == ""
        assert err == f"error: dt must be finite, got {dt}\n"

    @pytest.mark.parametrize("name, text, message", [
        ("bad.json", '{"points": [[0, 0], [1, 0], [0, 1]]}', ': no "vertices" list'),
        ("bad.csv", "0,0\n1,0,2\n0,1\n", ", line 2: expected two numbers x,y"),
        ("bad.csv", "0,0\n\n1,zero\n0,1\n", ", line 3: expected two numbers x,y"),
        ("wide.json", '{"vertices": [[0, 0, 1], [1, 0, 1], [0, 1, 1]]}',
         ": vertices must be an (n, 2) array"),
        # after the file name, NumPy's own text
        ("ragged.json", '{"vertices": [[0, 0], [1, 0, 1], [0, 1]]}',
         ": setting an array element with a sequence. The requested array has an inhomogeneous"
         " shape after 1 dimensions. The detected shape was (3,) + inhomogeneous part."),
        ("two.csv", "0,0\n1,0\n", ": a closed curve needs at least 3 vertices"),
        ("empty.csv", "", ": vertices must be an (n, 2) array"),
    ], ids=["json-no-vertices", "csv-three-values", "csv-not-a-number", "json-three-columns",
            "json-ragged", "csv-two-rows", "csv-empty"])
    def test_malformed_curve_file_named(self, tmp_path, capsys, name, text, message):
        p = tmp_path / name
        p.write_text(text)
        argv = ["flow", "--input", str(p), "--dt", "0.1", "--t1", "1"]
        assert run_cli(argv, capsys) == (1, "", f"error: {p}{message}\n")

    def test_undecodable_json_curve_named(self, tmp_path, capsys):
        p = tmp_path / "cut.json"
        p.write_text('{"vertices": [[0, 0], [1, 0]')
        argv = ["flow", "--input", str(p), "--dt", "0.1", "--t1", "1"]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {p}: Expecting ") and err.count("\n") == 1

    @pytest.mark.parametrize("spaced, joined, out", [
        (["flow", "--n", "16", "--dt", "0.01", "--t1", "-2e-2"],
         ["flow", "--n", "16", "--dt", "0.01", "--t1=-2e-2"],
         "termination=completed t=-0.02 length=6.3041175445376219\n"),
        (["flow", "--n", "16", "--dt", "0.01", "--t0", "-2e-2", "--t1", "0"],
         ["flow", "--n", "16", "--dt", "0.01", "--t0=-2e-2", "--t1", "0"],
         "termination=completed t=0 length=6.1816416640223295\n"),
        (["oracle", "--t", "-1e-3"], ["oracle", "--t=-1e-3"], "1.0004999999791744\n"),
    ], ids=["t1", "t0", "oracle-t"])
    def test_negative_exponent_notation_is_a_value(self, capsys, spaced, joined, out):
        assert run_cli(joined, capsys) == (0, out, "")
        assert run_cli(spaced, capsys) == (0, out, "")


def _raiser(exc):
    def command(args):
        raise exc
    return command


class TestExitCodes:
    # every error class is exactly one of the two kinds; NumPy's and Python's
    # runtime errors exit 2 too, io.UnsupportedOperation, both an OSError and
    # a ValueError, among them
    @pytest.mark.parametrize("cls", [h.RuntimeFailure, *h.RuntimeFailure.__subclasses__(),
                                     FloatingPointError, OverflowError, OSError,
                                     io.UnsupportedOperation])
    def test_runtime_failure_exits_2(self, monkeypatch, capsys, cls):
        monkeypatch.setattr(cli, "_cmd_oracle", _raiser(cls("boom")))
        assert run_cli(["oracle", "--t", "0"], capsys) == (2, "", "error: boom\n")

    # the base class, and the sites that raised the classes since folded
    # into it, each with its own message
    @pytest.mark.parametrize("site, message", [
        (_raiser(h.UsageError("boom")), "boom"),
        (lambda _: h.CurvePath((h.circle(1.0, 8), h.circle(1.0, 9))),
         "frame with 9 vertices among n = 8"),
        (lambda _: h.reparam_path(h.circle(1.0, 8), np.full(8, np.nan), 2),
         "twist must be finite"),
        (lambda _: h.lambert_w0(-1.0), "lambert_w0 requires x >= -1/e, got -1.0"),
        (_raiser(ValueError("boom")), "boom"),
    ], ids=["UsageError", "MismatchedFrames", "NonMonotoneTwist", "OutOfDomain", "ValueError"])
    def test_usage_error_exits_1(self, monkeypatch, capsys, site, message):
        monkeypatch.setattr(cli, "_cmd_oracle", site)
        assert run_cli(["oracle", "--t", "0"], capsys) == (1, "", f"error: {message}\n")

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_oracle", _raiser(ZeroDivisionError("bug")))
        with pytest.raises(ZeroDivisionError, match="bug"):
            main(["oracle", "--t", "0"])


class TestRuntimeErrors:
    def test_length_guard_stop(self, capsys):
        rc, out, err = run_cli(
            ["flow", "--n", "64", "--dt", "0.01", "--t1", "2.0",
             "--guard", "3.0"], capsys)
        assert rc == 2
        assert "termination=length_guard" in out
        assert "error:" in err and "length_guard" in err

    def test_overflow_stop(self, capsys):
        rc, out, err = run_cli(
            ["flow", "--size", "1e150", "--n", "64", "--dt", "0.1",
             "--t1", "1.0"], capsys)
        assert rc == 2
        assert "termination=numerical_failure" in out
        assert "numerical_failure" in err

    def test_overflow_stop_prints_only_the_error(self, capsys):
        # the overflowing norms of the recorded states stay inf in the output
        # and print no NumPy warnings
        rc, _, err = run_cli(
            ["flow", "--shape", "circle", "--size", "1e150", "--n", "64",
             "--dt", "0.1", "--t1", "1"], capsys)
        assert rc == 2
        assert err == "error: flow stopped early: numerical_failure\n"

    def test_length_square_overflow_prints_only_the_error(self, capsys):
        # L ~ 6.3e154: L^2 overflows the double range in the first record,
        # which must end the run like any other overflow
        rc, out, err = run_cli(
            ["flow", "--shape", "circle", "--size", "1e154", "--n", "64",
             "--dt", "0.1", "--t1", "1"], capsys)
        assert rc == 2
        assert out.startswith("termination=numerical_failure t=0 ")
        assert err == "error: flow stopped early: numerical_failure\n"

    @pytest.mark.parametrize("extra", [[], ["--rescale"]], ids=["raw", "rescale"])
    def test_rk4_overflow_stop_prints_only_the_error(self, capsys, extra):
        # the first RK4 stage state overflows its edge norms; the step ends
        # there, before a velocity is evaluated on it
        rc, _, err = run_cli(
            ["flow", "--shape", "circle", "--size", "1e150", "--n", "64",
             "--dt", "0.1", "--t1", "1", "--method", "rk4"] + extra, capsys)
        assert rc == 2
        assert err == "error: flow stopped early: numerical_failure\n"

    @pytest.mark.parametrize("size", ["3e154", "1e155", "1.3e155"])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_area_overflow_prints_only_the_error(self, capsys, size, method):
        # the length is finite, but x * y overflows: the first record keeps
        # its area as nan, and the first step ends the run
        rc, out, err = run_cli(
            ["flow", "--shape", "circle", "--size", size, "--n", "64",
             "--dt", "0.1", "--t1", "1", "--method", method], capsys)
        assert rc == 2
        assert out.startswith("termination=numerical_failure t=0 ")
        assert err == "error: flow stopped early: numerical_failure\n"

    @pytest.mark.parametrize("size", ["1e158", "1e160", "1e300"])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_initial_length_overflow_prints_only_the_error(self, capsys, size, method):
        # the initial edge norms overflow; the run is refused before any
        # record, with no NumPy warning
        rc, out, err = run_cli(
            ["flow", "--shape", "circle", "--size", size, "--n", "64",
             "--dt", "0.1", "--t1", "1", "--method", method], capsys)
        assert rc == 2 and out == ""
        assert err == "error: curve length overflows the double range\n"

    def test_coincident_initial_vertices(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        src.write_text("0,0\n0,0\n1,0\n0,1\n")
        rc, out, err = run_cli(
            ["flow", "--input", str(src), "--dt", "0.1",
             "--t1", "1"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: zero-length edge\n"

    @pytest.mark.parametrize("args, cause", [
        ("--shape circle --size 1 --n 16 --t0 700 --t1 712",
         "700.0: curve length overflows the double range"),
        ("--shape star --n 64 --t0 -800 --t1 -790", "-800.0: zero-length edge"),
        ("--shape circle --size 1e10 --n 16 --t0 700 --t1 712",
         "700.0: curve coordinates are not finite"),
        # e^t itself leaves the double range past t = 709.78
        ("--shape circle --size 1e-150 --n 16 --guard 0 --t0 710 --t1 712",
         "710.0: math range error"),
    ], ids=["length-overflow", "underflow-to-a-point", "coordinates-overflow", "exp-overflow"])
    def test_refused_initial_profile_named(self, capsys, args, cause):
        # e^t0 (X - X0) is measured like any state the run keeps; its
        # refusal names the profile and t0 and is a runtime failure
        argv = ["flow"] + args.split() + ["--dt", "0.5", "--rescale"]
        assert run_cli(argv, capsys) == (2, "", f"error: rescaled profile at t={cause}\n")

    def test_unwritable_output(self, capsys):
        rc, _, err = run_cli(
            ["flow", "--n", "32", "--dt", "0.1", "--steps", "1",
             "--out-csv", "/no/such/dir/out.csv"], capsys)
        assert rc == 2 and err.startswith("error:")


class TestOracle:
    def test_forward_value(self, capsys):
        rc, out, _ = run_cli(["oracle", "--r0", "1", "--t", "2"], capsys)
        assert rc == 0
        assert out.strip() == "0.21789559661651142"
        assert out.strip() == "%.17g" % h.CircleSolution(1.0).radius(2.0)

    def test_time_zero_identity(self, capsys):
        rc, out, _ = run_cli(["oracle", "--t", "0"], capsys)
        assert rc == 0 and out.strip() == "1"

    def test_backward_value(self, capsys):
        rc, out, _ = run_cli(["oracle", "--t", "-1"], capsys)
        assert rc == 0
        assert out.strip() == "1.4859138708449164"


    @pytest.mark.parametrize("argv, name", [
        (["--r0", "1e200", "--t", "0"], "r0"),
        (["--r0", "1e-200", "--t", "0"], "r0"),
        (["--t", "nan"], "t"),
        (["--t=-1e308"], "t"),
    ])
    def test_out_of_domain_named(self, capsys, argv, name):
        # r0^2 or c - 2t leaves the double range: no nan, no libm message
        rc, out, err = run_cli(["oracle"] + argv, capsys)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {name} = ")
        assert err.count("\n") == 1

    def test_far_forward_time_is_zero(self, capsys):
        rc, out, _ = run_cli(["oracle", "--t", "1e308"], capsys)
        assert rc == 0 and out == "0\n"


class TestFlowCommand:
    def test_square_run_writes_outputs(self, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        svg = tmp_path / "run.svg"
        rc, out, err = run_cli(
            ["flow", "--shape", "square", "--size", "1", "--n", "200",
             "--dt", "0.2", "--t1", "10", "--out-csv", str(csv),
             "--out-svg", str(svg)], capsys)
        assert rc == 0 and err == ""
        assert out.startswith("termination=completed")
        recs = h.read_diagnostics_csv(str(csv))
        assert len(recs) == 51  # 50 steps, every state recorded, plus t0
        assert recs[0].t == 0.0
        assert math.isclose(recs[0].length, 4.0, rel_tol=1e-12)
        assert all(b.length < a.length for a, b in zip(recs, recs[1:]))
        assert svg.read_text().count("<polygon") == 51

    def test_defaults_are_the_library_defaults(self, capsys):
        rc, out, _ = run_cli(["flow", "--dt", "0.1", "--t1", "0.1"], capsys)
        traj = h.run_flow(h.generate(h.GeneratorSpec()),
                          h.FlowConfig(dt=0.1, t1=0.1))
        last = traj.records[-1]
        assert rc == 0
        assert out == f"termination=completed t={last.t:.17g} length={last.length:.17g}\n"

    @staticmethod
    def _new_process(argv):
        # a new process, so that a warning would reach its stderr
        src = str(Path(h.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "h1flow.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)

    def test_large_rk4_step_prints_no_warning(self):
        proc = self._new_process(["flow", "--n", "16", "--dt", "1", "--t1", "1",
                                  "--method", "rk4"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("termination=completed t=1 ")
        assert proc.stderr == ""

    def test_large_euler_step_warning_names_the_flag(self):
        # one line, with no source path or line number of the package
        proc = self._new_process(["flow", "--n", "16", "--dt", "1", "--t1", "1",
                                  "--method", "euler"])
        with pytest.warns(UserWarning, match="forward Euler"):
            config = h.FlowConfig(dt=1.0, t1=1.0)
        last = h.run_flow(h.generate(h.GeneratorSpec(n=16)), config).records[-1]
        assert (proc.returncode, proc.stdout) == (
            0, f"termination=completed t={last.t:.17g} length={last.length:.17g}\n")
        assert proc.stderr == (
            "warning: argument --dt: dt = 1.0 is large for forward Euler; expect drift\n")

    def test_run_past_the_exp_range(self, capsys):
        # records at t <= -710, where e^-t leaves the double range
        rc, out, err = run_cli(["flow", "--shape", "circle", "--n", "16", "--t0", "-709",
                                "--dt", "0.5", "--t1", "-711"], capsys)
        assert rc == 0 and err == ""
        assert out.startswith("termination=completed t=-711 ")

    def test_steps_horizon(self, capsys):
        rc, out, _ = run_cli(
            ["flow", "--n", "32", "--dt", "0.1", "--steps", "5"], capsys)
        assert rc == 0
        t_final = float(out.split("t=")[1].split()[0])
        assert math.isclose(t_final, 0.5, rel_tol=1e-12)

    def test_backward_run_grows(self, capsys):
        rc, out, _ = run_cli(
            ["flow", "--n", "64", "--dt", "0.01", "--t1", "-1"], capsys)
        assert rc == 0
        length = float(out.split("length=")[1].split()[0])
        assert length > 2.0 * math.pi  # circles expand backward in time

    def test_byte_deterministic_csv(self, tmp_path, capsys):
        argv = ["flow", "--shape", "ellipse", "--n", "64", "--dt", "0.05",
                "--t1", "1.0", "--record-every", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out-csv", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--out-csv", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        rc, _, _ = run_cli(
            ["flow", "--n", "32", "--dt", "0.1", "--steps", "3",
             "--out-json", str(p)], capsys)
        assert rc == 0
        doc = json.loads(p.read_text())
        assert doc["termination"] == "completed"
        assert len(doc["times"]) == 4

    def test_rescale_emits_profile(self, tmp_path, capsys):
        svg = tmp_path / "p.svg"
        rc, _, _ = run_cli(
            ["flow", "--n", "64", "--dt", "0.05", "--t1", "2.0",
             "--record-every", "8", "--rescale", "--out-svg", str(svg)],
            capsys)
        assert rc == 0
        # rescaled circle states hover near radius ~1 instead of shrinking
        vb = svg.read_text().split('viewBox="')[1].split('"')[0].split()
        assert 1.5 < float(vb[2]) < 4.0

    def test_file_input_round_trip(self, tmp_path, capsys):
        # --input alone flows the file, not the default shape
        src = tmp_path / "in.csv"
        h.write_curve(h.star(1.0, 0.3, 5, 48), str(src))
        rc, out, _ = run_cli(["flow", "--input", str(src), "--dt", "0.1", "--steps", "2"],
                             capsys)
        last = h.run_flow(h.read_curve(str(src)), h.FlowConfig(dt=0.1, t1=0.2)).records[-1]
        assert (rc, out) == (0, f"termination=completed t={last.t:.17g} "
                                f"length={last.length:.17g}\n")

    def test_file_input_reads_no_shape_flags(self, tmp_path, capsys):
        # a curve file is read as it is: a shape flag with it is a usage
        # error that names the first one given, and nothing is written
        src = tmp_path / "in.csv"
        h.write_curve(h.circle(1.0, 48), str(src))
        argv = ["flow", "--input", str(src), "--dt", "0.1", "--steps", "2",
                "--out-csv", str(tmp_path / "out.csv")]
        for flags, first in ((["--size", "-1", "--n", "2", "--neck", "5"], "--size"),
                             (["--n", "48", "--size-b", "1"], "--n"),
                             (["--lobes", "5"], "--lobes")):
            assert run_cli(argv + flags, capsys) == (
                1, "", f"error: argument {first}: not allowed with argument --input\n")
        assert list(tmp_path.iterdir()) == [src]


class TestDistanceCommand:
    def test_shrink_matches_library(self, capsys):
        rc, out, _ = run_cli(
            ["distance", "--demo", "shrink", "--lambda", "0.5",
             "--frames", "33", "--n", "256"], capsys)
        assert rc == 0
        assert out.startswith("shrink lambda=0.5 frames=33 ")
        full = float(out.split("full=")[1].split()[0])
        quot = float(out.split("quotient=")[1].split()[0])
        path = h.shrink_path(h.circle(1.0, 256), 0.5, 33)
        assert full == h.path_length_l2ds(h.as_mode(path, "full"))
        assert quot == h.path_length_l2ds(h.as_mode(path, "quotient"))
        # radial motion has no tangential part to quotient away
        assert math.isclose(quot, full, rel_tol=1e-9)

    def test_shrink_near_closed_form(self, capsys):
        rc, out, _ = run_cli(
            ["distance", "--demo", "shrink", "--lambda", "0.25",
             "--frames", "4097", "--n", "128"], capsys)
        assert rc == 0
        full = float(out.split("full=")[1].split()[0])
        perim = 2.0 * 128 * math.sin(math.pi / 128)
        expect = math.sqrt(perim) * (2.0 / 3.0) * (1.0 - 0.25 ** 1.5)
        assert math.isclose(full, expect, rel_tol=1e-3)

    def test_reparam_quotient_suppression(self, capsys):
        rc, out, _ = run_cli(
            ["distance", "--demo", "reparam", "--lambda", "0.5"], capsys)
        assert rc == 0
        assert out.startswith("reparam lambda=0.5 frames=33 ")
        full = float(out.split("full=")[1].split()[0])
        quot = float(out.split("quotient=")[1].split()[0])
        assert full > 0.0
        assert quot <= 0.05 * full  # sliding along the curve is quotiented out

    def test_zigzag_lengths(self, capsys):
        rc, out, _ = run_cli(
            ["distance", "--demo", "zigzag", "--teeth", "4", "--frames", "33",
             "--n", "256"], capsys)
        assert rc == 0
        assert out.startswith("zigzag teeth=4 frames=33 ")
        full = float(out.split("full=")[1].split()[0])
        quot = float(out.split("quotient=")[1].split()[0])
        assert 0.0 < quot <= full

    def test_json_export(self, tmp_path, capsys):
        p = tmp_path / "path.json"
        rc, _, _ = run_cli(
            ["distance", "--demo", "shrink", "--frames", "5", "--n", "32",
             "--out-json", str(p)], capsys)
        assert rc == 0
        doc = json.loads(p.read_text())
        assert doc["mode"] in ("full", "quotient")
        assert len(doc["frames"]) == 5
