"""Command-line entry point.

Subcommands: `flow` runs the curve flow from a generated or loaded shape and
emits CSV/SVG/JSON; `oracle` prints the exact circle radius at a time;
`distance` runs the shape-space path demos (shrink, reparam, zigzag). The
output module reads and writes every file and formats every printed float.

Exit codes: 0 success, 1 usage error (a ValueError, UsageError among them,
such as a bad flag or a malformed curve file), 2 runtime failure (a
RuntimeFailure such as a guard, a numerical error, an unreadable or
unwritable file). Errors print to stderr with an "error:" prefix; any other
exception propagates. A run with a large forward Euler step prints a
"warning:" line that names --dt.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import warnings

import numpy as np

from .curves import PolyCurve
from .errors import RuntimeFailure, UsageError
from .flow import METHODS, FlowConfig, Termination, run_flow
from .lambertw import CircleSolution
from .output import (
    _fmt,
    path_to_json,
    read_curve,
    write_diagnostics_csv,
    write_json,
    write_svg,
    write_trajectory_json,
)
from .paths import CurvePath, as_mode, path_length_l2ds, reparam_path, shrink_path, zigzag_path
from .shapes import KINDS, GeneratorSpec, circle, generate


# an argument that starts like a negative number, such as -2e-2 or -inf, is
# a value; argparse's own pattern has no exponent and takes -2e-2 for an
# unknown option
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def count(text: str) -> int:
    """A step count: a non-negative integer within the float range, so that
    the horizon t0 + steps * dt is a float. FlowConfig bounds the count."""
    if not 0 <= (steps := int(text)) <= sys.float_info.max:
        raise ValueError(text)
    return steps


def _build_parser() -> _Parser:
    p = _Parser(prog="h1flow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    # flags named after a GeneratorSpec or FlowConfig field (dest) reach it
    # only when given, so the dataclass default applies otherwise (--shape's
    # too: an argparse default would hide it from the either-or check)
    f = sub.add_parser("flow", help="run the flow from a shape or input file",
                       argument_default=argparse.SUPPRESS)
    start = f.add_mutually_exclusive_group()
    start.add_argument("--shape", dest="kind", choices=KINDS)
    start.add_argument("--input", dest="path", help="curve file, read as it is")
    f.add_argument("--size", type=float)
    f.add_argument("--size-b", type=float, help="ellipse semi-minor axis")
    f.add_argument("--neck", type=float, help="barbell neck half-width")
    f.add_argument("--amplitude", type=float, help="star modulation")
    f.add_argument("--lobes", type=int, help="star lobe count")
    f.add_argument("--n", type=int)
    f.add_argument("--dt", type=float, required=True)
    horizon = f.add_mutually_exclusive_group(required=True)
    horizon.add_argument("--steps", type=count)
    horizon.add_argument("--t1", type=float)
    f.add_argument("--t0", type=float)
    f.add_argument("--method", choices=METHODS)
    f.add_argument("--record-every", type=int)
    f.add_argument("--rescale", dest="rescale_profile", action="store_true",
                   help="emit the asymptotic profile")
    f.add_argument("--guard", dest="min_length_guard", type=float,
                   help="minimum length guard")
    f.add_argument("--out-csv", default=None)
    f.add_argument("--out-svg", default=None)
    f.add_argument("--out-json", default=None)

    o = sub.add_parser("oracle", help="exact circle radius sqrt(W(e^{c-2t}))")
    o.add_argument("--r0", type=float, default=1.0)
    o.add_argument("--t", type=float, required=True)

    d = sub.add_parser("distance", help="shape-space path length demos")
    d.add_argument("--demo", choices=["shrink", "reparam", "zigzag"], required=True)
    d.add_argument("--lambda", dest="lam", type=float, default=0.5)
    d.add_argument("--teeth", type=int, default=4)
    d.add_argument("--frames", type=int, default=33)
    d.add_argument("--n", type=int, default=256)
    d.add_argument("--out-json", default=None)
    return p


def _given(cls, args) -> dict:
    """The given flags named after the fields of cls, in command-line order."""
    names = {field.name for field in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names}


def _cmd_flow(args) -> int:
    shape = _given(GeneratorSpec, args)
    if "path" in args and shape:
        # a curve file is read as it is: a shape flag with it is refused
        flag = "--" + next(iter(shape)).replace("_", "-")
        raise UsageError(f"argument {flag}: not allowed with argument --input")
    initial = read_curve(args.path) if "path" in args else generate(GeneratorSpec(**shape))
    if "steps" in args:
        args.t1 = getattr(args, "t0", FlowConfig.t0) + args.steps * args.dt
    # FlowConfig's one warning, of a large Euler step, names the line that
    # built it; the command names the flag instead
    with warnings.catch_warnings(record=True) as caught:
        config = FlowConfig(**_given(FlowConfig, args))
    if "steps" in args and config.steps != args.steps:
        # a float t1 = t0 + steps * dt keeps the count only while |t0| / dt
        # is well below 2^53; FlowConfig would round it to another count
        raise UsageError(f"argument --steps: at t0 = {_fmt(config.t0)}, t0 + {args.steps} * dt "
                         f"rounds to {config.steps} steps")
    for warning in caught:
        print(f"warning: argument --dt: {warning.message}", file=sys.stderr)
    traj = run_flow(initial, config)
    if args.out_csv:
        write_diagnostics_csv(traj, args.out_csv)
    if args.out_svg:
        write_svg(traj, args.out_svg)
    if args.out_json:
        write_trajectory_json(traj, args.out_json)
    last = traj.records[-1]
    print(f"termination={traj.termination.value} t={_fmt(last.t)} length={_fmt(last.length)}")
    if traj.termination is not Termination.COMPLETED:
        print(f"error: flow stopped early: {traj.termination.value}", file=sys.stderr)
        return 2
    return 0


def _cmd_oracle(args) -> int:
    sol = CircleSolution(r0=args.r0)
    print(_fmt(sol.radius(args.t)))
    return 0


def _cmd_distance(args) -> int:
    base = circle(1.0, args.n)
    if args.demo == "shrink":
        path = shrink_path(base, args.lam, args.frames)
        label = f"shrink lambda={args.lam:g} frames={args.frames}"
    elif args.demo == "reparam":
        # one smooth twist bump, a quarter period wide; an infinite lambda
        # gives inf * sin(0) = nan, a twist that reparam_path refuses
        with np.errstate(invalid="ignore"):
            delta = args.lam * args.n / (2.0 * np.pi) * np.sin(2.0 * np.pi * np.arange(args.n) / args.n)
        path = reparam_path(base, delta, args.frames)
        label = f"reparam lambda={args.lam:g} frames={args.frames}"
    else:
        m = max(2, (args.frames - 1) // 4 + 1)
        t = np.linspace(0.0, 1.0, m)
        frames = tuple(PolyCurve(base.vertices + np.array([3.0 * tk, 0.0])) for tk in t)
        path = zigzag_path(CurvePath(frames=frames, mode="full"), args.teeth)
        label = f"zigzag teeth={args.teeth} frames={len(path.frames)}"
    # the quotient walk gives the full length too
    quot = path_length_l2ds(as_mode(path, "quotient"))
    full = path_length_l2ds(path)
    print(f"{label} full={_fmt(full)} quotient={_fmt(quot)}")
    if args.out_json:
        write_json(path_to_json(path), args.out_json)
    return 0


# the errors that exit 2; any other ValueError exits 1
_RUNTIME = (RuntimeFailure, FloatingPointError, OverflowError, OSError)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "flow":
            return _cmd_flow(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_distance(args)
    except (*_RUNTIME, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _RUNTIME) else 1


if __name__ == "__main__":
    sys.exit(main())
