"""Spectral region of 4-cycle row-stochastic matrices.

Decides membership of complex numbers in the region, constructs realizing
matrices for admissible points, and proves the underlying algebraic
identities on the region's own forms in exact arithmetic.

Submodules load on first use: ``import cycle4`` loads none of them, and
``cycle4.realize`` (or ``from cycle4 import realize``) imports only
``synthesis`` and what it needs.  ``_EXPORTS`` names the module that
defines each exported name; the submodules in it are exported too.
"""

import importlib

_EXPORTS = {
    "criterion": "CriterionContext Regime make_context",
    "errors": "AlphaOutOfRange ArgumentOutOfRange Cycle4Error NoConvergence OutsideRegion "
    "SpectrumFailure",
    "identities": "IdentityResult verify_identity_suite",
    "matrix": "CycleMatrix4 eigen_residual spectrum",
    "region": "RegionVerdict Status left_boundary_form left_branch_root membership "
    "modulus_threshold trace_left_curve trace_right_segment",
    "synthesis": "Method Realization realize realize_via_criterion",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import the submodule ``name``, or the module defining ``name``, on
    first access, and keep the value in the package namespace."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
