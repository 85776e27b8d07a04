"""Principal-branch Lambert W and the exact shrinking-circle radius.

Two evaluators: lambert_w0(x) solves w*e^w = x by Halley iteration, and
lambert_w0_of_exp(y) solves w + log w = y, which is W(e^y) without ever
forming e^y. The second form is what the circle solution needs for very
negative times, where e^{c-2t} overflows long before the radius does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import UsageError

_INV_E = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """W_0(x) for x >= -1/e, to relative residual ~1e-15.

    Every Halley iterate stays above -1 with a positive denominator, so
    neither division is by zero. With u = w + 1 > 0 and f = w e^w - x,
    2u denom = e^w (u^2 + 1) + x (w + 2) and the next iterate has
    u' = u (e^w (w^2 + 2) + x (w + 4)) / (2u denom). For x >= 0 every term
    is positive. For x in (-1/e, 0) both brackets exceed their values at
    x = -1/e, e^-1 (e^u (u^2 + 1) - 1 - u) >= u^2 / e and
    e^-1 (e^u (u^2 - 2u + 3) - u - 3) >= u^2 / (2e): the second vanishes at
    u = 0 and its derivative is e^u (u^2 + 1) - 1 >= u. The start is above
    -1: log1p(x) >= 0 for x > 0, and below 0 the series -1 + p - p^2/3 +
    11 p^3 / 72, as 1 - p/3 + 11 p^2 / 72 has no real root; arg > 0 there
    only for x above the true -1/e, as math.e < e, so p >= 2^-26.
    In floating point w + 1 is exact for w in [-2, -1/2], so it is zero
    only at w = -1, and above 1/2 past that. Where the computed
    f <= 0, the denominator is at least fl(e^w u) > 0 and the step does not
    lower w. Where f > 0, its rounding error, below 1.3e-16 near the branch
    point and relative elsewhere, is less than both margins unless
    u < 5e-8, which an iterate with f > 0 reaches only for x within about
    12 doubles of -1/e; test_halley_iterates_above_minus_one runs those.
    """
    x = float(x)
    if x < _INV_E:
        if x > _INV_E * (1.0 + 1e-12):  # rounding slop at the branch point
            return -1.0
        raise UsageError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x > 1e300:
        # Halley's denominator overflows up here; solve in log space instead
        return lambert_w0_of_exp(math.log(x))
    if x >= 0.0:
        w = math.log1p(x)
    else:
        # series about the branch point in p = sqrt(2(ex + 1))
        arg = 2.0 * (math.e * x + 1.0)
        if arg <= 0.0:
            return -1.0
        p = math.sqrt(arg)
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
        if w > 0.0:
            w = -1e-12
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def lambert_w0_of_exp(y: float) -> float:
    """The unique w > 0 with w + log w = y; equals W_0(e^y) for all real y,
    and is inf at y = inf.

    Newton on f(w) = w + log w - y, which is increasing and concave, never
    steps from a point left of the root past it, and so keeps w > 0 once it
    starts there. For y <= 1 the start e^{y-1} lies left of the root, and
    the iterates rise to it. For y > 1 the start w = y overshoots; its step
    lands at y (1 - log y / (y + 1)) >= 0.72 y > 0, left of the root again.
    """
    y = float(y)
    if y <= -500.0:
        # w = e^y (1 + o(1)); the correction is below double precision here
        return math.exp(y)
    if y == math.inf:  # W_0 is unbounded; Newton would meet inf - inf
        return y
    if y > 1.0:
        w = y  # right of the root; the first step lands left of it
    else:
        w = math.exp(min(y - 1.0, 0.0))
    for _ in range(100):
        f = w + math.log(w) - y
        step = f * w / (w + 1.0)  # Newton step for f(w) = w + log w - y
        w_new = w - step
        # relative test: w spans ~1e-217 .. 7e2 over the useful y range
        if abs(w_new - w) <= 1e-15 * w_new:
            w = w_new
            break
        w = w_new
    return w


@dataclass(frozen=True)
class CircleSolution:
    """Homothetic circle solution r(t) = sqrt(W(e^{c - 2t})), c = r0^2 + log r0^2."""

    r0: float
    c: float = field(init=False)

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError("r0 must be positive")
        r0sq = self.r0 * self.r0
        # a finite normal r0^2 keeps log(r0^2), and so c, finite and exact
        if not sys.float_info.min <= r0sq < math.inf:
            raise UsageError(f"r0 = {self.r0!r}: r0^2 = {r0sq!r} is not a finite normal double")
        object.__setattr__(self, "c", r0sq + math.log(r0sq))

    def radius(self, t: float) -> float:
        y = self.c - 2.0 * t
        # y = -inf is the limit r = 0; NaN and +inf have no radius
        if not y < math.inf:
            raise UsageError(f"t = {t!r}: c - 2t = {y!r} has no finite radius")
        return math.sqrt(lambert_w0_of_exp(y))
