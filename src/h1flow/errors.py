"""Exception types shared across the package.

Every error the package raises on purpose is one of two kinds, and no class
is both. A UsageError is a ValueError: an argument the function does not
accept, such as a scalar outside a function's domain, a path whose frames
disagree in vertex count, or a twist that is not an orientation-preserving
circle bijection. A RuntimeFailure is not a ValueError: accepted input on
which the computation cannot go on, such as a curve that collapses or
shrinks below the kernel guard. The CLI exits with 1 for the first and 2
for the second.
"""


class UsageError(ValueError):
    """An argument outside what the function accepts."""


class RuntimeFailure(Exception):
    """Accepted input on which the computation cannot go on."""


class DegenerateCurve(RuntimeFailure):
    """A curve with a zero-length edge was passed where an immersion is required."""


class ConstantMapGuard(RuntimeFailure):
    """Curve length below the kernel guard; the metric degenerates there."""
