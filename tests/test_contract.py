"""The public API's contract: every public result type, paths of every kind
among them, round-trips through pickle and through a deep copy.

A copy keeps every field to the bit, every read-only array read-only, and
shares no memory with its original. A path's copy forms the same frames and
walks the same full and quotient lengths, and every array that it holds
(an explicit path's table, a family's recipe) is read-only. A measured curve
(ArcData) is made only by the gate, arc_data, and every array it holds is
read-only, in the original and in its copies.
"""
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

import h1flow as h

COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "deepcopy": copy.deepcopy}


def _star():
    return h.star(1.0, 0.3, 5, 64)


def _trajectory():
    return h.run_flow(_star(), h.FlowConfig(dt=0.05, t1=0.2, method="rk4"))


def _measured():
    # with its cached arclength and turning angles read, so they are copied
    ad = h.arc_data(_star())
    ad.s, ad.turning
    return ad


RESULTS = {
    "PolyCurve": _star,
    "ArcData": _measured,
    "ChordArcResult": lambda: h.chord_arc_min(_star()),
    "EmbeddednessCheck": lambda: h.embeddedness_condition(_star()),
    "DiagnosticsRecord": lambda: h.record(_star(), 0.5),
    "MonotonicityReport": lambda: h.monotonicity_report(_trajectory()),
    "Trajectory": _trajectory,
    "FlowConfig": lambda: h.FlowConfig(dt=0.05, t1=0.2, method="rk4", rescale_profile=True),
    "VelocityField": lambda: h.flow_velocity(_star()),
    "CircleSolution": lambda: h.CircleSolution(1.5),
    "GeneratorSpec": lambda: h.GeneratorSpec(kind="star", n=64, amplitude=0.2, lobes=3),
}


def _explicit(n=32, m=5):
    ring = h.circle(1.0, n).vertices
    return h.CurvePath(frames=tuple(h.PolyCurve(ring + [0.25 * k, 0.0]) for k in range(m)))


def _twist(n=32):
    return 0.5 * n / (2.0 * math.pi) * np.sin(2.0 * math.pi * np.arange(n) / n)


PATHS = {
    "explicit": _explicit,
    "shrink": lambda: h.shrink_path(h.star(1.0, 0.3, 5, 32), 0.5, 5),
    "reparam": lambda: h.reparam_path(h.circle(1.0, 32), _twist(), 5),
    "zigzag-of-explicit": lambda: h.zigzag_path(_explicit(), 2),
    "zigzag-of-generated": lambda: h.zigzag_path(h.shrink_path(h.circle(1.0, 32), 0.5, 3), 2),
}


def _image(x):
    """A comparable image of a value: an array by its dtype, shape, bytes
    and writeability, a float by its bits, a dataclass by its type and
    attributes (cached ones and those set after init included), and a
    tuple or list item by item."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes(), x.flags.writeable)
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return type(x), tuple((k, _image(v)) for k, v in sorted(vars(x).items()))
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(_image, x))
    return x


def _arrays(x):
    """Every array that a value holds, through its tuples, lists, dicts and
    attributes."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _arrays(y)
    elif hasattr(x, "__dict__") and not callable(x):
        yield from _arrays(vars(x))


def _shares_memory(a, b):
    return any(np.shares_memory(x, y) for x in _arrays(a) for y in _arrays(b))


def _lengths(path):
    return h.path_length_l2ds(h.as_mode(path, "quotient")), h.path_length_l2ds(h.as_mode(path, "full"))


def _frame_bytes(path):
    return [f.vertices.tobytes() for f in path.frames]


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS)
def test_result_round_trips(make, how):
    result = make()
    other = COPIES[how](result)
    assert type(other) is type(result)
    assert _image(other) == _image(result)
    assert not _shares_memory(other, result)


def test_results_cover_the_exported_classes():
    # every exported class that holds a result, and no other
    kinds = {name for name in h.__all__ if isinstance(getattr(h, name), type)
             and dataclasses.is_dataclass(getattr(h, name))}
    assert kinds - set(RESULTS) == {"CurvePath", "MonitorVerdict"}
    verdicts = h.monotonicity_report(_trajectory()).verdicts
    assert verdicts and all(type(v) is h.MonitorVerdict for v in verdicts)


@pytest.mark.parametrize("walked", [False, True], ids=["unwalked", "walked"])
@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("make", PATHS.values(), ids=PATHS)
def test_path_round_trips(make, how, walked):
    path = make()
    if walked:
        _lengths(path)
    other = COPIES[how](path)
    assert type(other) is h.CurvePath and other.mode == path.mode
    assert other._lengths == path._lengths
    assert len(other.frames) == len(path.frames)
    assert _frame_bytes(other) == _frame_bytes(path)
    assert _lengths(other) == _lengths(path)
    held = list(_arrays(other))
    assert held and not any(a.flags.writeable for a in held)
    assert not _shares_memory(other, path)


@pytest.mark.parametrize("how", COPIES)
def test_explicit_table_stays_read_only(how):
    path = _explicit(n=16, m=3)
    other = COPIES[how](path)
    (table,) = [a for a in _arrays(other) if a.shape == (3, 16, 2)]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0
    for frame in other.frames:
        assert np.shares_memory(frame.vertices, table)


def _framed():
    # turning first read by the record's curvature, frame_data, rather than
    # directly
    ad = h.arc_data(_star())
    h.curves.frame_data(ad)
    ad.s
    return ad


@pytest.mark.parametrize("how", ["original", *COPIES])
@pytest.mark.parametrize("make", [_measured, _framed], ids=["cached", "frame_data"])
def test_measured_curve_holds_only_read_only_arrays(make, how):
    ad = make() if how == "original" else COPIES[how](make())
    held = {k: v for k, v in vars(ad).items() if isinstance(v, np.ndarray)}
    assert sorted(held) == ["ds", "edge_lengths", "edges", "s", "turning", "vertices"]
    assert [k for k, v in held.items() if v.flags.writeable] == []
    with pytest.raises(ValueError):
        ad.ds[0] = 100.0
    # nor can an array or a value be rebound or deleted
    for name, value in [("ds", np.full(ad.n, 100.0)), ("length", 0.0), ("s", ad.ds),
                        ("turning", ad.ds), ("vertices", ad.edges)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ad, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ad.ds
    assert h.arc_data(ad).ds[0] != 100.0


@pytest.mark.parametrize("build", [
    lambda ad, X: dataclasses.replace(ad, vertices=X),
    lambda ad, X: h.ArcData(vertices=X),
    lambda ad, X: h.ArcData(X),
], ids=["replace", "keyword", "positional"])
def test_only_the_gate_makes_a_measured_curve(build):
    # a curve past the coordinate range cannot enter as a hand-made
    # measured curve: it is refused by the gate's name, with no NumPy
    # warning on the way
    c = h.circle(1.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(h.UsageError, match="arc_data"):
            h.record(build(h.arc_data(c), 1e200 * c.vertices), 0.0)


def test_measured_curve_repr_shows_its_vertices():
    ad = h.arc_data(h.circle(1.0, 4))
    assert repr(ad).startswith("ArcData(vertices=array(")
    assert "ds=" not in repr(ad) and "length=" not in repr(ad)
