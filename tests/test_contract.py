"""The error contract: each public callable raises only the error types its
docstring names, whatever float arguments it gets."""

import ast
import math
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import cycle4
from cycle4 import (
    AlphaOutOfRange,
    ArgumentOutOfRange,
    NoConvergence,
    OutsideRegion,
    SpectrumFailure,
)

ERRORS = Path(__file__).resolve().parent.parent / "src" / "cycle4" / "errors.py"

# The float specials and their negatives: zero, the least subnormal, tiny
# and huge numbers, the neighbours of 1, the overflow edge, inf and NaN.
SPECIALS = [sign * m for m in (0.0, 5e-324, 1e-300, 1e-17, math.nextafter(1.0, 0.0), 1.0,
                               math.nextafter(1.0, 2.0), 1e200, 1.7e308, math.inf, math.nan)
            for sign in (1.0, -1.0)]


def specials(keep) -> st.SearchStrategy:
    """The specials that pass ``keep``, drawn without filtering."""
    return st.sampled_from([x for x in SPECIALS if keep(x)])


SPECIAL = specials(lambda x: True)
POINT = st.builds(complex, SPECIAL, SPECIAL)
PARAMETER = specials(lambda x: 0.0 <= x < 1.0)
MATRIX = st.tuples(PARAMETER, PARAMETER, PARAMETER, PARAMETER).map(cycle4.CycleMatrix4)
COUNT = st.one_of(st.integers(-1, 4), SPECIAL)
REALIZE = (OutsideRegion, NoConvergence, AlphaOutOfRange, ValueError)


def fields(record) -> st.SearchStrategy:
    return st.tuples(*[SPECIAL] * len(record._fields))


# Every callable export but the error classes: the error types it may raise,
# and the arguments the fuzz draws for it.
CONTRACT = {
    "CriterionContext": ((), fields(cycle4.CriterionContext)),
    "CycleMatrix4": ((ArgumentOutOfRange,), st.tuples(st.lists(SPECIAL, max_size=5))),
    "IdentityResult": ((), fields(cycle4.IdentityResult)),
    "Method": ((ValueError,), st.tuples(SPECIAL)),
    "Realization": ((), fields(cycle4.Realization)),
    "Regime": ((ValueError,), st.tuples(SPECIAL)),
    "RegionVerdict": ((), fields(cycle4.RegionVerdict)),
    "Status": ((ValueError,), st.tuples(SPECIAL)),
    "eigen_residual": ((), st.tuples(MATRIX, POINT)),
    "left_boundary_form": ((), st.tuples(SPECIAL, SPECIAL)),
    "left_branch_root": ((ArgumentOutOfRange, SpectrumFailure), st.tuples(SPECIAL)),
    "make_context": ((ValueError, ArgumentOutOfRange), st.tuples(POINT)),
    "membership": ((ValueError,), st.tuples(POINT, SPECIAL)),
    "modulus_threshold": ((), st.tuples(SPECIAL, SPECIAL)),
    "realize": (REALIZE, st.tuples(POINT, SPECIAL)),
    "realize_via_criterion": (REALIZE, st.tuples(POINT, SPECIAL)),
    "spectrum": ((SpectrumFailure,), st.tuples(MATRIX)),
    "trace_left_curve": ((ArgumentOutOfRange, SpectrumFailure), st.tuples(COUNT)),
    "trace_right_segment": ((ArgumentOutOfRange,), st.tuples(COUNT)),
    "verify_identity_suite": ((), st.tuples()),
}
CALLS = st.one_of([st.tuples(st.just(name), args) for name, (_, args) in CONTRACT.items()])


def error_classes() -> list:
    """The names of the classes ``errors.py`` defines, in order."""
    tree = ast.parse(ERRORS.read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def test_contract_covers_every_callable_export():
    callables = {name for name in cycle4.__all__ if callable(getattr(cycle4, name))}
    errors = {name for name in callables if isinstance(getattr(cycle4, name), type)
              and issubclass(getattr(cycle4, name), Exception)}
    assert set(CONTRACT) == callables - errors


@settings(max_examples=1500, deadline=None)
@given(call=CALLS)
@example(call=("modulus_threshold", (1e200, 0.0)))  # a float cube that overflows
@example(call=("modulus_threshold", (-1e103, 1.0)))
@example(call=("left_branch_root", (False,)))  # a bool is no anchor weight
def test_raises_only_documented_errors(call):
    name, args = call
    allowed, _ = CONTRACT[name]
    try:
        getattr(cycle4, name)(*args)
    except allowed:
        pass


def test_every_error_class_is_raised_and_documented():
    raised = set()
    for path in ERRORS.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    documented = {cls.__name__ for allowed, _ in CONTRACT.values() for cls in allowed}
    classes = set(error_classes()) - {"Cycle4Error"}
    assert classes <= raised
    assert classes <= documented
