"""Emission layer: diagnostics CSV round-trip, SVG rendering, JSON export."""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import h1flow as h


@pytest.fixture(scope="module")
def short_traj():
    return h.run_flow(h.circle(1.0, 32), h.FlowConfig(dt=0.1, t1=0.3))


class TestDiagnosticsCsv:
    def test_header_line(self, short_traj, tmp_path):
        p = tmp_path / "d.csv"
        h.write_diagnostics_csv(short_traj, str(p))
        first = p.read_text().splitlines()[0]
        assert first == ("t,length,area,iso_ratio,deficit,linf,l2ds,xu_l2,"
                         "min_edge,chord_arc_min,max_abs_k,rescaled_max_k,"
                         "grad_sq_h1ds,embeddedness_ok")

    def test_round_trip_bit_exact(self, short_traj, tmp_path):
        p = tmp_path / "d.csv"
        h.write_diagnostics_csv(short_traj, str(p))
        back = h.read_diagnostics_csv(str(p))
        assert len(back) == len(short_traj.records)
        for a, b in zip(short_traj.records, back):
            assert a == b  # dataclass equality, fieldwise exact

    def test_accepts_plain_record_list(self, short_traj, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        h.write_diagnostics_csv(short_traj, str(p1))
        h.write_diagnostics_csv(list(short_traj.records), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_determinism_and_lf(self, short_traj, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        h.write_diagnostics_csv(short_traj, str(p1))
        h.write_diagnostics_csv(short_traj, str(p2))
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_boolean_column_lowercase_words(self, short_traj, tmp_path):
        p = tmp_path / "d.csv"
        h.write_diagnostics_csv(short_traj, str(p))
        rows = p.read_text().splitlines()[1:]
        assert all(r.rsplit(",", 1)[1] in ("true", "false") for r in rows)

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,len\n1,2\n")
        with pytest.raises(ValueError):
            h.read_diagnostics_csv(str(p))

    def test_skips_blank_lines(self, short_traj, tmp_path):
        p = tmp_path / "d.csv"
        h.write_diagnostics_csv(short_traj, str(p))
        p.write_text(p.read_text() + "\n\n")
        assert len(h.read_diagnostics_csv(str(p))) == len(short_traj.records)


class TestSvg:
    def test_basic_document(self, short_traj, tmp_path):
        p = tmp_path / "run.svg"
        h.write_svg(short_traj, str(p))
        text = p.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert text.count("<polygon") == len(short_traj.states)
        assert 'fill="none"' in text
        assert 'scale(1 -1)' in text
        assert text.endswith("</svg>\n")

    def test_color_ramp_blue_to_red(self, short_traj, tmp_path):
        p = tmp_path / "run.svg"
        h.write_svg(short_traj, str(p))
        strokes = [seg.split('"')[0] for seg in p.read_text().split('stroke="')[1:]]
        assert strokes[0] == "#0000ff"
        assert strokes[-1] == "#ff0000"

    def test_midpoint_color(self, tmp_path):
        states = [h.circle(1.0, 8), h.circle(0.8, 8), h.circle(0.6, 8)]
        p = tmp_path / "three.svg"
        h.write_svg(states, str(p))
        strokes = [seg.split('"')[0] for seg in p.read_text().split('stroke="')[1:]]
        assert strokes == ["#0000ff", "#800080", "#ff0000"]

    def test_viewbox_pads_union_box(self, tmp_path):
        p = tmp_path / "one.svg"
        h.write_svg([h.circle(1.0, 64)], str(p))
        vb = p.read_text().split('viewBox="')[1].split('"')[0].split()
        x0, y0, w, wh = map(float, vb)
        # bounding box [-1,1]^2 padded by 5% of the larger span
        assert math.isclose(x0, -1.1, rel_tol=1e-12)
        assert math.isclose(y0, -1.1, rel_tol=1e-12)
        assert math.isclose(w, 2.2, rel_tol=1e-12)
        assert math.isclose(wh, 2.2, rel_tol=1e-12)

    def test_y_flip_centers_on_box(self, tmp_path):
        shifted = h.PolyCurve(h.circle(1.0, 16).vertices + np.array([0.0, 5.0]))
        p = tmp_path / "up.svg"
        h.write_svg([shifted], str(p))
        text = p.read_text()
        # y in [4,6], pad 0.1: translate by y0 + h + y0 = 3.9 + 2.2 + 3.9
        assert "translate(0 10)" in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            h.write_svg([], str(tmp_path / "x.svg"))


class TestTrajectoryJson:
    def test_document_shape(self, short_traj):
        doc = h.trajectory_to_json(short_traj)
        assert set(doc) == {"times", "termination", "states", "records"}
        assert doc["termination"] == "completed"
        assert doc["times"] == list(short_traj.times)
        assert len(doc["states"]) == len(short_traj.states)
        v0 = doc["states"][0]["vertices"]
        assert np.allclose(np.array(v0), short_traj.states[0].vertices,
                           rtol=0, atol=0)
        rec = doc["records"][0]
        assert set(rec) == set(h.CSV_COLUMNS)
        assert isinstance(rec["embeddedness_ok"], bool)

    def test_file_round_trip(self, short_traj, tmp_path):
        p = tmp_path / "traj.json"
        h.write_trajectory_json(short_traj, str(p))
        doc = json.loads(p.read_text())
        assert doc == h.trajectory_to_json(short_traj)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_output_reads_and_writes_formats():
    # every file format lives in h1flow.output
    src = Path(h.__file__).parent
    importers = sorted(p.name for p in src.glob("*.py")
                       if {"json", "csv"} & set(_imported_modules(p)))
    assert importers == ["output.py"]
