"""Print one SHA-256 per group of h1flow outputs, to show that a change
keeps every number bit-identical, and pin them in tests/digests.txt.

    python3 tools/digests.py [--items | --write]

The script imports h1flow from the src/ directory of the checkout it lives
in. With --items it also prints one digest per trajectory, scalar and CLI
invocation, which names the item behind a differing group. With --write it
writes tests/digests.txt: one digest per item, with the NumPy version and
the platform, which tests/test_digests.py compares with the same items
computed from the suite's session fixtures. A change that moves numbers on
purpose rewrites the file.

Groups:
- trajectories: every Trajectory the fixtures of tests/conftest.py build,
  as times, termination, state vertex bytes and record reprs;
- zigzag: the quotient and full lengths of conftest's zigzag_lengths;
- scalars: reference values of the geometry, kernel, gradient, diagnostics
  and path functions on a star (n = 256) and an ellipse (n = 200) with
  seeded random fields, the vertices of squares and barbells at a few
  (n, size, neck), and convolve_kernel with k = 1, 2 and 3 components on
  an n = 512 star scaled to lengths 500 and 1000, the segmented sweep;
- cli: exit code, stdout and output files of the README commands, every
  argv in tests/test_cli.py and further error cases;
- stderr: the stderr of the same invocations.
Each invocation runs in this process under the warning filters of a new
process and shows each warning as a new process would. The invocation's
directory reads "{tmp}" and the checkout's path "<root>".
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import inspect
import io
import math
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED_FILE = ROOT / "tests" / "digests.txt"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import h1flow as h  # noqa: E402
from h1flow import cli  # noqa: E402
from h1flow.gradient import velocity  # noqa: E402

# (argv, input files). "{tmp}" in an argument is the invocation's own
# directory, where its input files are written and its outputs are read.
_DUPLICATE_VERTEX = "0,0\n0,0\n1,0\n0,1\n"
_SUB_ULP_EDGE = "0,0\n1,0\n1,1e-17\n1,1\n0,1\n"
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
    *[(["flow", "--shape", shape, "--input", "{tmp}/in.csv", "--dt", "0.1", "--steps", "1",
        "--out-csv", "{tmp}/out.csv"], {"in.csv": None}) for shape in ("star", "circle")],
    *[(["flow", "--shape", "star", "--lobes", lobes, "--n", "64", "--dt", "0.1",
        "--steps", "1"], {}) for lobes in ("0", "-5")],
    *[(["flow", "--n", "16", "--dt", "0.1", "--steps", steps], {})
      for steps in ("-3", "1" * 400, "2.5")],
    (["flow", "--n", "16", "--t0", "1e12", "--dt", "1e-3", "--steps", "5",
      "--out-json", "{tmp}/t.json"], {}),
    *[(["flow", "--n", "16", "--t0", t0, "--dt", "1e-3", "--steps", "5",
        "--out-csv", "{tmp}/d.csv"], {}) for t0 in ("1e13", "1e15")],
    (["distance", "--demo", "zigzag", "--teeth", "3", "--n", "256"], {}),
    (["distance", "--demo", "reparam", "--lambda", "2.0"], {}),
    *[(["distance", "--demo", "reparam", "--lambda", lam], {}) for lam in ("nan", "inf", "-inf")],
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
    (["flow", "--input", "{tmp}/dup.csv", "--dt", "0.1", "--t1", "1"],
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
    (["flow", "--input", "{tmp}/in.csv", "--dt", "0.1", "--steps", "2"],
     {"in.csv": None}),
    (["flow", "--input", "{tmp}/in.csv", "--dt", "0.1", "--steps", "2",
      "--size", "-1", "--n", "2", "--neck", "5"], {"in.csv": None}),
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
    (["flow", "--input", "{tmp}/missing.csv", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--frobnicate", "--dt", "0.1", "--t1", "1"], {}),
    (["flow", "--input", "{tmp}/bad.json", "--dt", "0.1", "--t1", "1"],
     {"bad.json": '{"points": [[0, 0], [1, 0], [0, 1]]}'}),
    (["flow", "--input", "{tmp}/bad.csv", "--dt", "0.1", "--t1", "1"],
     {"bad.csv": "0,0\n1,0,2\n0,1\n"}),
    *[(["flow", "--input", "{tmp}/" + name, "--dt", "0.1", "--t1", "1"],
       {name: text}) for name, text in (
        ("wide.json", '{"vertices": [[0, 0, 1], [1, 0, 1], [0, 1, 1]]}'),
        ("ragged.json", '{"vertices": [[0, 0], [1, 0, 1], [0, 1]]}'),
        ("two.csv", "0,0\n1,0\n"),
        ("empty.csv", ""))],
    # rescaled profiles refused at t0
    *[(["flow"] + args.split() + ["--dt", "0.5", "--rescale"], {}) for args in (
        "--shape circle --size 1 --n 16 --t0 700 --t1 712",
        "--shape star --n 64 --t0 -800 --t1 -790",
        "--shape circle --size 1e10 --n 16 --t0 700 --t1 712",
        "--shape circle --size 1e-150 --n 16 --guard 0 --t0 710 --t1 712")],
    # records at t below -709.78, where e^-t leaves the double range
    (["flow", "--shape", "circle", "--n", "16", "--t0", "-709", "--dt", "0.5",
      "--t1", "-711"], {}),
    # an edge shorter than the arclength's ulp: its ends have the same s
    (["flow", "--input", "{tmp}/subulp.csv", "--dt", "0.01", "--steps", "1"],
     {"subulp.csv": _SUB_ULP_EDGE}),
    # the rescaled curvature column of a profile run
    (["flow", "--shape", "star", "--n", "64", "--dt", "0.05", "--t1", "1",
      "--record-every", "5", "--rescale", "--out-csv", "{tmp}/p.csv",
      "--out-json", "{tmp}/p.json"], {}),
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


def _fixtures(module) -> dict:
    return {name: obj.__wrapped__ for name, obj in vars(module).items()
            if callable(obj) and hasattr(obj, "__wrapped__")}


def fixture_names() -> list:
    """The names of the fixtures of tests/conftest.py."""
    return list(_fixtures(_load_conftest()))


def _fixture_values(module) -> dict:
    """Every fixture of the module, called with its fixture arguments."""
    fns = _fixtures(module)
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
        (tx, ty), k = h.curves.frame_data(c)
        vel = h.flow_velocity(c)
        emb = h.embeddedness_condition(c)
        values = {
            "edge_lengths": h.edge_lengths(c), "total_length": h.total_length(c),
            "arc_data": (ad.s, ad.ds, ad.length, ad.edges, ad.edge_lengths),
            "signed_area": h.signed_area(c),
            "frame_data": (np.stack([tx, ty], axis=1), np.stack([-ty, tx], axis=1), k),
            "sup_norm": h.sup_norm(c), "chord_arc_min": repr(h.chord_arc_min(c)),
            "flow_velocity": (vel.velocity, vel.grad_norm_sq_h1ds,
                              math.sqrt(h.l2ds_inner(c, vel.velocity, vel.velocity))),
            "velocity": velocity(c), "flow_velocity_centered": h.flow_velocity_centered(c),
            "h1ds_inner": h.h1ds_inner(c, v, w), "l2ds_inner": h.l2ds_inner(c, v, w),
            "length_directional_derivative": h.length_directional_derivative(c, v),
            "kernel_matrix": (h.kernel_matrix(c), ad.ds, ad.length),
            "convolve_kernel": h.convolve_kernel(c, v),
            "row_quadrature_defect": h.row_quadrature_defect(c),
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
    # n = 4 puts one vertex on each square corner and barbell piece; odd n
    # and thin or wide necks move vertices off the piece bounds
    for side, n in ((1.0, 4), (1.0, 200), (3.0, 1000)):
        out[f"square({side}, {n})"] = h.square(side, n).vertices
    for radius, neck, n in ((1.0, 0.25, 4), (1.0, 0.25, 7), (1.0, 0.25, 200),
                            (2.0, 1e-6, 201), (3.0, 2.99, 1001)):
        out[f"barbell({radius}, {neck}, {n})"] = h.barbell(radius, neck, n).vertices
    out["CSV_COLUMNS"] = h.CSV_COLUMNS
    # the segmented sweep: an n = 512 star scaled to L = 5e2 (one cut) and
    # 1e3 (three cuts), with fields of k = 1, 2 and 3 components
    star = h.star(1.0, 0.3, 5, 512)
    for length in (5e2, 1e3):
        c = h.PolyCurve(star.vertices * (length / h.total_length(star)))
        fields = (np.ones(c.n), rng.standard_normal((c.n, 2)),
                  np.column_stack([c.vertices, np.ones(c.n)]))
        for f in fields:
            k = 1 if f.ndim == 1 else f.shape[1]
            out[f"convolve_kernel(star L={length:g}, k={k})"] = h.convolve_kernel(c, f)
    return out


def _scalar_bytes(value):
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    if isinstance(value, tuple) and any(isinstance(v, np.ndarray) for v in value):
        return [b for v in value for b in _scalar_bytes(v)]
    return [repr(value)]


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_cli_case(argv, inputs) -> tuple:
    """(digest of exit code, stdout and files; digest of stderr)."""
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
        # entering catch_warnings clears the once-per-location registry of
        # the previous invocation; inside, a new process's filters, and the
        # default display to sys.stderr, which pytest's recording replaces
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.resetwarnings()
            for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                             ResourceWarning):
                warnings.simplefilter("ignore", category)
            warnings.showwarning = _show_warning
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
        return _sha(parts), _sha([stderr])


def groups(values) -> dict:
    """{group: [(item, digest)]} from the fixture values of tests/conftest.py."""
    trajs = [(label, _trajectory_digest(t)) for name, obj in values.items()
             for label, t in _trajectories(name, obj)]
    zz = values["zigzag_lengths"]
    zig = [("base_full", repr(zz["base_full"]))]
    zig += [(f"{kind}[{teeth}]", repr(zz[kind][teeth]))
            for kind in ("quotient", "full") for teeth in sorted(zz[kind])]
    scalars = [(k, _sha(_scalar_bytes(v))) for k, v in reference_scalars().items()]
    cases = [(" ".join(args) or "(no arguments)", run_cli_case(args, inputs))
             for args, inputs in CLI_CASES]
    return {"trajectories": trajs, "zigzag": zig, "scalars": scalars,
            "cli": [(key, digest) for key, (digest, _) in cases],
            "stderr": [(key, digest) for key, (_, digest) in cases]}


def environment() -> dict:
    """The builds whose bits the pinned digests hold."""
    return {"numpy": np.__version__, "platform": sysconfig.get_platform()}


def _shown(digest: str) -> str:
    """A SHA-256 as its first 16 hex digits; a repr as it is."""
    return digest[:16] if len(digest) == 64 else digest


def pinned(grouped) -> dict:
    """{"group: item": digest} of every item, as --items shows them."""
    return {f"{group}: {key}": _shown(digest) for group, entries in grouped.items()
            for key, digest in entries}


def read_pinned():
    """(environment, pinned digests) as write_pinned wrote them."""
    env, items = {}, {}
    for line in PINNED_FILE.read_text().splitlines():
        if not line.startswith("#"):
            key, value = line.rsplit("\t", 1)
            (env if key in environment() else items)[key] = value
    return env, items


def write_pinned(grouped) -> None:
    lines = ["# written by python3 tools/digests.py --write; checked by tests/test_digests.py"]
    lines += [f"{k}\t{v}" for k, v in {**environment(), **pinned(grouped)}.items()]
    PINNED_FILE.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    print(f"h1flow from {Path(h.__file__).parent}", file=sys.stderr)
    grouped = groups(_fixture_values(_load_conftest()))
    for group, entries in grouped.items():
        print(f"{_sha(f'{k}={v}' for k, v in entries)}  {group} ({len(entries)})")
        if "--items" in argv:
            for key, digest in entries:
                print(f"    {_shown(digest)}  {key}")
    if "--write" in argv:
        write_pinned(grouped)
        print(f"wrote {PINNED_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
