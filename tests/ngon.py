"""The exact solution of the discrete scheme on regular n-gons.

On circle(r, n) the velocity is V_i = a_n(r) X_i by symmetry. With
theta = 2 pi / n and the edge e = 2 r sin(pi / n),

    a_n(r) = (e/2) Re[1/(1 - e^{-e+i theta})
                      + e^{-e-i theta}/(1 - e^{-e-i theta})] - 1,

where the second term is -1/(1 - e^{e+i theta}) written so that it stays
finite for long edges. As n grows, a_n(r) tends to -1/(1 + r^2), the
continuum circle law. The discrete radius solves the scalar ODE
r' = a_n(r) r, which radius integrates by RK4 at a step of H, far below
the steps of the runs it is compared with.
"""
import cmath
import math

# the step of the scalar RK4 of radius
H = 1e-3


def rate(r, n):
    """a_n(r): the radial rate V_i / X_i of the velocity on circle(r, n)."""
    theta = 2.0 * math.pi / n
    e = 2.0 * r * math.sin(math.pi / n)
    back = cmath.exp(complex(-e, -theta))
    return 0.5 * e * (1.0 / (1.0 - cmath.exp(complex(-e, theta))) + back / (1.0 - back)).real - 1.0


def radius(r0, n, t):
    """The radius at time t of the n-gon that starts as circle(r0, n): RK4
    on r' = a_n(r) r in whole steps of at most H, forward or backward."""
    steps = max(1, math.ceil(abs(t) / H))
    h = t / steps

    def f(r):
        return rate(r, n) * r

    r = r0
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r
