"""The benchmark's tracer still binds to the library it wraps.

benchmarks/tracer.py wraps a fixed list of h1flow functions at every module
binding; a renamed or removed function makes `benchmarks/run.py --trace 1`
fail. The tracer is imported read-only from its file.
"""
import importlib.util
import sys
from pathlib import Path

import h1flow as h

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_resolves():
    tracer = _load_tracer()
    for mod_name, fn_name in tracer.LAYERS:
        assert callable(getattr(sys.modules[f"h1flow.{mod_name}"], fn_name))


def test_install_traces_and_remove_restores():
    tracer = _load_tracer()
    t = tracer.Tracer()
    assert t.bindings
    t.install()
    try:
        for owner, attr, _, wrapper in t.bindings:
            assert getattr(owner, attr) is wrapper
        h.record(h.circle(1.0, 16), 0.0)
    finally:
        t.remove()
    for owner, attr, original, _ in t.bindings:
        assert getattr(owner, attr) is original
    calls, _, _ = t.take()
    assert calls["diagnostics.record"] == 1
    # a layer that record calls is counted through the binding it calls;
    # record takes its curvature from frame_data
    assert calls["curves.chord_arc_min"] == 1
    assert calls["curves.frame_data"] == 1


def test_profiled_run_traces_each_kept_profile():
    t = _load_tracer().Tracer()
    t.install()
    try:
        traj = h.run_flow(h.circle(1.0, 16),
                          h.FlowConfig(dt=0.1, t1=0.4, record_every=2, rescale_profile=True))
    finally:
        t.remove()
    calls, _, _ = t.take()
    # every kept state is the asymptotic_profile of the stepped one, and its
    # record takes the profile's curvature from frame_data
    assert len(traj.states) == 3
    assert calls["flow.asymptotic_profile"] == calls["curves.frame_data"] == 3
