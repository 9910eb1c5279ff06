"""Spectral region of 4-cycle row-stochastic matrices.

Decides membership of complex numbers in the region, constructs realizing
matrices for admissible points, and verifies the underlying algebraic
identities in exact arithmetic.
"""

from .criterion import (
    CriterionContext,
    Regime,
    angle_for_shift,
    criterion_max,
    criterion_sum,
    log_modulus_ratio,
    make_context,
    shift_for_angle,
    solve_criterion,
)
from .errors import (
    AlphaOutOfRange,
    ArgumentOutOfRange,
    BracketFailure,
    Cycle4Error,
    FeasibilityViolation,
    InfeasiblePoint,
    LowerHalfPlane,
    NoConvergence,
    NonrealRequired,
    NotInterior,
    NotOnCurve,
    NotRealizable,
    OutsideRegion,
    ParameterOutOfRange,
    ShrinkOutOfRange,
    SpectrumFailure,
    ZeroArgument,
)
from .identities import (
    BivarPoly,
    IdentityResult,
    left_boundary_poly,
    modulus_threshold_poly,
    verify_identity_suite,
)
from .matrix import CycleMatrix4, eigen_residual, make_cycle_matrix, spectrum
from .region import (
    RegionVerdict,
    Status,
    left_boundary_form,
    left_branch_root,
    membership,
    modulus_threshold,
    trace_left_curve,
    trace_right_segment,
)
from .scalar import DEFAULT_TOLERANCE, Tolerance, principal_arg
from .synthesis import (
    Method,
    Realization,
    alpha_for_left_point,
    ray_to_left_boundary,
    realize,
    realize_via_criterion,
    shrink,
)

__all__ = [name for name in dir() if not name.startswith("_")]
