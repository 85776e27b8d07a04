"""Command-line interface: exit codes, output files, and printed results."""
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

    def test_file_shape_needs_input(self, capsys):
        rc, _, err = run_cli(
            ["flow", "--shape", "file", "--dt", "0.1", "--t1", "1.0"], capsys)
        assert rc == 1 and err.startswith("error:")

    def test_zigzag_teeth_must_divide(self, capsys):
        rc, _, err = run_cli(
            ["distance", "--demo", "zigzag", "--teeth", "3", "--n", "256"],
            capsys)
        assert rc == 1 and err.startswith("error:")

    def test_reparam_fold_back_rejected(self, capsys):
        rc, _, err = run_cli(
            ["distance", "--demo", "reparam", "--lambda", "2.0"], capsys)
        assert rc == 1 and err.startswith("error:")

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
    ], ids=["json-no-vertices", "csv-three-values", "csv-not-a-number"])
    def test_malformed_curve_file_named(self, tmp_path, capsys, name, text, message):
        p = tmp_path / name
        p.write_text(text)
        argv = ["flow", "--shape", "file", "--input", str(p), "--dt", "0.1", "--t1", "1"]
        assert run_cli(argv, capsys) == (1, "", f"error: {p}{message}\n")

    def test_undecodable_json_curve_named(self, tmp_path, capsys):
        p = tmp_path / "cut.json"
        p.write_text('{"vertices": [[0, 0], [1, 0]')
        argv = ["flow", "--shape", "file", "--input", str(p), "--dt", "0.1", "--t1", "1"]
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


class TestExitCodes:
    # every error class is exactly one of the two kinds, so the exit code
    # cannot depend on the order of main's except clauses
    @pytest.mark.parametrize("cls", h.RuntimeFailure.__subclasses__())
    def test_runtime_failure_exits_2(self, monkeypatch, capsys, cls):
        monkeypatch.setattr(cli, "_cmd_oracle", _raiser(cls("boom")))
        assert run_cli(["oracle", "--t", "0"], capsys) == (2, "", "error: boom\n")

    @pytest.mark.parametrize("cls", h.UsageError.__subclasses__())
    def test_usage_error_exits_1(self, monkeypatch, capsys, cls):
        monkeypatch.setattr(cli, "_cmd_oracle", _raiser(cls("boom")))
        assert run_cli(["oracle", "--t", "0"], capsys) == (1, "", "error: boom\n")

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_oracle", _raiser(ZeroDivisionError("bug")))
        with pytest.raises(ZeroDivisionError, match="bug"):
            main(["oracle", "--t", "0"])


def _raiser(exc):
    def command(args):
        raise exc
    return command


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
            ["flow", "--shape", "file", "--input", str(src), "--dt", "0.1",
             "--t1", "1"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: zero-length edge\n"

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
        traj = h.run_flow(h.generate(h.GeneratorSpec("circle")),
                          h.FlowConfig(dt=0.1, t1=0.1))
        last = traj.records[-1]
        assert rc == 0
        assert out == f"termination=completed t={last.t:.17g} length={last.length:.17g}\n"

    def test_large_rk4_step_prints_no_warning(self):
        # a new process, so that a warning would reach its stderr
        src = str(Path(h.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "h1flow.cli", "flow", "--n", "16", "--dt", "1",
             "--t1", "1", "--method", "rk4"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0
        assert proc.stdout.startswith("termination=completed t=1 ")
        assert proc.stderr == ""

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
        src = tmp_path / "in.csv"
        h.write_curve(h.circle(1.0, 48), str(src))
        rc, out, _ = run_cli(
            ["flow", "--shape", "file", "--input", str(src), "--dt", "0.1",
             "--steps", "2"], capsys)
        assert rc == 0 and out.startswith("termination=completed")


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
