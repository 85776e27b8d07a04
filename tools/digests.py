"""Print one SHA-256 per group of h1flow outputs, to show that a change
keeps every number bit-identical.

    python3 tools/digests.py [--items]

The script imports h1flow from the src/ directory of the checkout it lives
in, so running it in two checkouts (say a `git archive` of a parent commit
and the working tree) and comparing the lines compares the two programs.
With --items it also prints one digest per trajectory, scalar and CLI
invocation, which names the item behind a differing group; a CLI item has
two, one of its exit code, stdout and files and one of its stderr.

Groups:
- trajectories: every Trajectory the fixtures of tests/conftest.py build,
  as times, termination, state vertex bytes and record reprs;
- zigzag: the quotient and full lengths of conftest's zigzag_lengths;
- scalars: reference values of the geometry, kernel, gradient, diagnostics
  and path functions on a star (n = 256) and an ellipse (n = 200) with
  seeded random fields;
- cli: exit code, stdout, stderr and output files of the README commands,
  every argv in tests/test_cli.py and further error cases. Each invocation
  runs in this process and shows each warning as a new process would. The invocation's directory reads "{tmp}" and the checkout's path
  "<root>".
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import inspect
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import h1flow as h  # noqa: E402
from h1flow import cli  # noqa: E402
from h1flow.gradient import velocity  # noqa: E402
from h1flow.kernel import apply_kernel  # noqa: E402

# (argv, input files). "{tmp}" in an argument is the invocation's own
# directory, where its input files are written and its outputs are read.
_DUPLICATE_VERTEX = "0,0\n0,0\n1,0\n0,1\n"
CLI_CASES = [
    # README
    (["flow", "--shape", "square", "--size", "1", "--n", "200", "--dt", "0.2",
      "--steps", "50", "--out-csv", "{tmp}/square.csv", "--out-svg", "{tmp}/square.svg"], {}),
    (["flow", "--shape", "ellipse", "--size", "1", "--n", "256", "--dt", "0.01",
      "--t1", "-1"], {}),
    (["flow", "--shape", "square", "--n", "200", "--dt", "0.01", "--t1", "6",
      "--method", "rk4", "--record-every", "50", "--rescale",
      "--out-svg", "{tmp}/profile.svg"], {}),
    (["oracle", "--r0", "1", "--t", "2"], {}),
    (["distance", "--demo", "shrink", "--lambda", "0.5"], {}),
    (["distance", "--demo", "reparam", "--lambda", "0.5"], {}),
    (["distance", "--demo", "zigzag", "--teeth", "4", "--frames", "33"], {}),
    # tests/test_cli.py: usage errors
    ([], {}),
    (["flow", "--dt", "0.1"], {}),
    (["flow", "--dt", "0.1", "--steps", "3", "--t1", "1.0"], {}),
    (["flow", "--t1", "1.0"], {}),
    (["flow", "--shape", "heptagon", "--dt", "0.1", "--t1", "1.0"], {}),
    (["flow", "--dt", "-0.1", "--t1", "1.0"], {}),
    (["flow", "--shape", "square", "--n", "30", "--dt", "0.1", "--t1", "1.0"], {}),
    (["flow", "--shape", "file", "--dt", "0.1", "--t1", "1.0"], {}),
    (["distance", "--demo", "zigzag", "--teeth", "3", "--n", "256"], {}),
    (["distance", "--demo", "reparam", "--lambda", "2.0"], {}),
    *[(["flow", "--n", "16", "--dt", "0.1"] + extra, {}) for extra in (
        ["--t1", "nan"], ["--t1", "inf"], ["--t0", "nan", "--t1", "1"],
        ["--t0", "inf", "--steps", "2"], ["--size", "inf", "--t1", "1"],
        ["--size", "nan", "--t1", "1"],
        ["--shape", "ellipse", "--size-b", "inf", "--t1", "1"])],
    *[(["flow", "--dt", dt, "--t1", "1"], {}) for dt in ("nan", "inf", "-inf")],
    (["flow", "--n", "16", "--dt", "0.01", "--t1", "-2e-2"], {}),
    (["flow", "--n", "16", "--dt", "0.01", "--t1=-2e-2"], {}),
    (["flow", "--n", "16", "--dt", "0.01", "--t0", "-2e-2", "--t1", "0"], {}),
    (["flow", "--n", "16", "--dt", "0.01", "--t0=-2e-2", "--t1", "0"], {}),
    (["oracle", "--t", "-1e-3"], {}),
    (["oracle", "--t=-1e-3"], {}),
    # tests/test_cli.py: runtime errors
    (["flow", "--n", "64", "--dt", "0.01", "--t1", "2.0", "--guard", "3.0"], {}),
    (["flow", "--size", "1e150", "--n", "64", "--dt", "0.1", "--t1", "1.0"], {}),
    *[(["flow", "--shape", "circle", "--size", size, "--n", "64", "--dt", "0.1",
        "--t1", "1", "--method", method], {})
      for size in ("1e150", "1e154", "3e154", "1e155", "1.3e155", "1e158", "1e160", "1e300")
      for method in ("euler", "rk4")],
    (["flow", "--shape", "circle", "--size", "1e150", "--n", "64", "--dt", "0.1",
      "--t1", "1", "--method", "rk4", "--rescale"], {}),
    (["flow", "--shape", "file", "--input", "{tmp}/dup.csv", "--dt", "0.1", "--t1", "1"],
     {"dup.csv": _DUPLICATE_VERTEX}),
    (["flow", "--n", "32", "--dt", "0.1", "--steps", "1", "--out-csv",
      "/no/such/dir/out.csv"], {}),
    *[(["flow", "--n", "16", "--dt", "1", "--t1", "1", "--method", method], {})
      for method in ("euler", "rk4")],
    # tests/test_cli.py: oracle
    (["oracle", "--t", "0"], {}),
    (["oracle", "--t", "-1"], {}),
    (["oracle", "--r0", "1e200", "--t", "0"], {}),
    (["oracle", "--r0", "1e-200", "--t", "0"], {}),
    (["oracle", "--t", "nan"], {}),
    (["oracle", "--t=-1e308"], {}),
    (["oracle", "--t", "1e308"], {}),
    # tests/test_cli.py: flow and distance commands
    (["flow", "--shape", "square", "--size", "1", "--n", "200", "--dt", "0.2",
      "--t1", "10", "--out-csv", "{tmp}/run.csv", "--out-svg", "{tmp}/run.svg"], {}),
    (["flow", "--dt", "0.1", "--t1", "0.1"], {}),
    (["flow", "--n", "32", "--dt", "0.1", "--steps", "5"], {}),
    (["flow", "--n", "64", "--dt", "0.01", "--t1", "-1"], {}),
    (["flow", "--shape", "ellipse", "--n", "64", "--dt", "0.05", "--t1", "1.0",
      "--record-every", "4", "--out-csv", "{tmp}/a.csv"], {}),
    (["flow", "--n", "32", "--dt", "0.1", "--steps", "3", "--out-json", "{tmp}/t.json"], {}),
    (["flow", "--n", "64", "--dt", "0.05", "--t1", "2.0", "--record-every", "8",
      "--rescale", "--out-svg", "{tmp}/p.svg"], {}),
    (["flow", "--shape", "file", "--input", "{tmp}/in.csv", "--dt", "0.1", "--steps", "2"],
     {"in.csv": None}),
    (["distance", "--demo", "shrink", "--lambda", "0.5", "--frames", "33", "--n", "256"], {}),
    (["distance", "--demo", "shrink", "--lambda", "0.25", "--frames", "4097", "--n", "128"], {}),
    (["distance", "--demo", "zigzag", "--teeth", "4", "--frames", "33", "--n", "256"], {}),
    (["distance", "--demo", "shrink", "--frames", "5", "--n", "32",
      "--out-json", "{tmp}/path.json"], {}),
    # further error cases
    (["flow", "--method", "midpoint", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--n", "2", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--record-every", "0", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--guard", "-1", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--n", "16", "--dt", "3", "--t1", "1"], {}),
    (["flow", "--n", "16", "--dt", "1e-9", "--t1", "1"], {}),
    (["flow", "--shape", "barbell", "--neck", "2", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--shape", "file", "--input", "{tmp}/missing.csv", "--dt", "0.1",
      "--t1", "1"], {}),
    (["flow", "--frobnicate", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--shape", "file", "--input", "{tmp}/bad.json", "--dt", "0.1", "--t1", "1"],
     {"bad.json": '{"points": [[0, 0], [1, 0], [0, 1]]}'}),
    (["flow", "--shape", "file", "--input", "{tmp}/bad.csv", "--dt", "0.1", "--t1", "1"],
     {"bad.csv": "0,0\n1,0,2\n0,1\n"}),
]


def _sha(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else str(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def _load_conftest():
    spec = importlib.util.spec_from_file_location("digests_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture_values(module) -> dict:
    """Every fixture of the module, called with its fixture arguments."""
    fns = {name: obj.__wrapped__ for name, obj in vars(module).items()
           if callable(obj) and hasattr(obj, "__wrapped__")}
    values = {}

    def value(name):
        if name not in values:
            fn = fns[name]
            values[name] = fn(*[value(p) for p in inspect.signature(fn).parameters])
        return values[name]

    for name in fns:
        value(name)
    return values


def _trajectories(name, obj):
    """(label, Trajectory) pairs found in a fixture value."""
    if isinstance(obj, h.Trajectory):
        yield name, obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _trajectories(name, item)
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from _trajectories(f"{name}[{key!r}]", item)


def _trajectory_digest(traj) -> str:
    parts = [repr(traj.times), traj.termination.value]
    parts += [type(s).__name__.encode() + s.vertices.tobytes() for s in traj.states]
    parts += [repr(r) for r in traj.records]
    return _sha(parts)


def reference_scalars() -> dict:
    """Named reference values; arrays as bytes, floats as repr."""
    out = {}
    rng = np.random.default_rng(20211)
    curves = {"star": h.star(1.0, 0.3, 5, 256), "ellipse": h.ellipse(1.0, 0.5, 200)}
    for label, c in curves.items():
        v, w = rng.standard_normal((c.n, 2)), rng.standard_normal((c.n, 2))
        ad = h.arc_data(c)
        fd = h.frame_data(c)
        vel = h.flow_velocity(c)
        km = h.kernel_matrix(c)
        emb = h.embeddedness_condition(c)
        values = {
            "edge_lengths": h.edge_lengths(c), "total_length": h.total_length(c),
            "arc_data": (ad.s, ad.ds, ad.length, ad.edges, ad.edge_lengths),
            "signed_area": h.signed_area(c),
            "frame_data": (fd.tangent, fd.normal, fd.curvature),
            "turning_angles": h.turning_angles(c), "norms": repr(h.norms(c, v)),
            "sup_norm": h.sup_norm(c), "chord_arc_min": repr(h.chord_arc_min(c)),
            "flow_velocity": (vel.velocity, vel.grad_norm_sq_h1ds, vel.grad_norm_l2ds),
            "velocity": velocity(c), "flow_velocity_centered": h.flow_velocity_centered(c),
            "h1ds_inner": h.h1ds_inner(c, v, w), "l2ds_inner": h.l2ds_inner(c, v, w),
            "length_directional_derivative": h.length_directional_derivative(c, v),
            "kernel_matrix": (km.G, km.ds, km.length), "apply_kernel": apply_kernel(ad, v),
            "convolve_kernel": h.convolve_kernel(c, v),
            "row_quadrature_defect": h.row_quadrature_defect(km),
            "embeddedness_condition": repr(emb), "record": repr(h.record(c, 0.25)),
        }
        for key, val in values.items():
            out[f"{label}.{key}"] = val
    base = h.circle(1.0, 128)
    twist = 0.5 * 128 / (2.0 * np.pi) * np.sin(2.0 * np.pi * np.arange(128) / 128)
    for label, path in (("shrink", h.shrink_path(base, 0.5, 17)),
                        ("reparam", h.reparam_path(base, twist, 17))):
        for mode in ("full", "quotient"):
            out[f"{label}.path_length_l2ds.{mode}"] = h.path_length_l2ds(h.as_mode(path, mode))
    out["CSV_COLUMNS"] = h.CSV_COLUMNS
    return out


def _scalar_bytes(value):
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    if isinstance(value, tuple) and any(isinstance(v, np.ndarray) for v in value):
        return [b for v in value for b in _scalar_bytes(v)]
    return [repr(value)]


def run_cli_case(argv, inputs) -> str:
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        for name, text in inputs.items():
            if text is None:
                h.write_curve(h.circle(1.0, 48), str(tmp / name))
            else:
                (tmp / name).write_text(text)
        given = set(tmp.iterdir())
        args = [a.replace("{tmp}", tmp_name) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # the filters stay the process defaults; entering catch_warnings
        # clears the once-per-location registry of the previous invocation
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # a propagating error is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        files = sorted(set(tmp.iterdir()) - given)
        stdout, stderr = [s.getvalue().replace(tmp_name, "{tmp}").replace(str(ROOT), "<root>")
                          for s in (out, err)]
        parts = [repr(code), stdout]
        parts += [p.name.encode() + b"\0" + p.read_bytes() for p in files]
        return f"{_sha(parts)} {_sha([stderr])}"


def main(argv=None) -> int:
    items = "--items" in (sys.argv[1:] if argv is None else argv)
    print(f"h1flow from {Path(h.__file__).parent}", file=sys.stderr)
    groups = {}

    values = _fixture_values(_load_conftest())
    trajs = [(label, _trajectory_digest(t)) for name, obj in values.items()
             for label, t in _trajectories(name, obj)]
    groups[f"trajectories ({len(trajs)})"] = trajs

    zz = values["zigzag_lengths"]
    zig = [("base_full", repr(zz["base_full"]))]
    zig += [(f"{kind}[{teeth}]", repr(zz[kind][teeth]))
            for kind in ("quotient", "full") for teeth in sorted(zz[kind])]
    groups[f"zigzag ({len(zig)})"] = zig

    scalars = [(k, _sha(_scalar_bytes(v))) for k, v in reference_scalars().items()]
    groups[f"scalars ({len(scalars)})"] = scalars

    cases = [(" ".join(args) or "(no arguments)", run_cli_case(args, inputs))
             for args, inputs in CLI_CASES]
    groups[f"cli ({len(cases)})"] = cases

    for group, entries in groups.items():
        print(f"{_sha(f'{k}={v}' for k, v in entries)}  {group}")
        if items:
            for key, digest in entries:
                shown = (d[:16] if len(d) == 64 else d for d in digest.split())
                print(f"    {' '.join(shown)}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
