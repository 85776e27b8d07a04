"""Sobolev gradient flow of length on closed planar curves.

The velocity field is minus the curve plus a periodic Green's-function
convolution of the curve against its own arc-length measure, which makes
the flow the steepest descent of length in the H1(ds) geometry. The
library provides the discrete kernel, the flow integrators, an exact
circle solution through the Lambert W function, diagnostics, and
path-length computations in the space of curves.
"""

from types import ModuleType as _ModuleType

from .curves import (
    ArcData,
    ChordArcResult,
    FrameData,
    PolyCurve,
    arc_data,
    chord_arc_min,
    edge_lengths,
    frame_data,
    signed_area,
    sup_norm,
    total_length,
)
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    EmbeddednessCheck,
    MonotonicityReport,
    MonitorVerdict,
    embeddedness_condition,
    monotonicity_report,
    record,
)
from .errors import (
    ConstantMapGuard,
    DegenerateCurve,
    RuntimeFailure,
    UsageError,
)
from .flow import (
    FlowConfig,
    Termination,
    Trajectory,
    asymptotic_profile,
    run_flow,
    trajectory_h1ds_length,
)
from .gradient import (
    VelocityField,
    flow_velocity,
    flow_velocity_centered,
    h1ds_inner,
    l2ds_inner,
    length_directional_derivative,
)
from .kernel import (
    MIN_KERNEL_LENGTH,
    convolve_kernel,
    greens_value,
    kernel_matrix,
    row_quadrature_defect,
)
from .lambertw import CircleSolution, lambert_w0, lambert_w0_of_exp
from .output import (
    curve_to_json,
    path_to_json,
    read_curve,
    read_diagnostics_csv,
    trajectory_to_json,
    write_curve,
    write_diagnostics_csv,
    write_svg,
    write_trajectory_json,
)
from .paths import (
    CurvePath,
    as_mode,
    path_length_l2ds,
    reparam_path,
    shrink_path,
    zigzag_path,
)
from .shapes import GeneratorSpec, barbell, circle, ellipse, generate, square, star

# the import block above is the one list of exports: every public name it binds
__all__ = [name for name, value in list(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
