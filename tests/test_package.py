"""The package surface: the exported names, and submodules that load only
when first used."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycle4

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each exported name under the module that defines it; the modules are
# exported too.
EXPORTS = {
    "criterion": ["CriterionContext", "Regime", "angle_for_shift", "criterion_max", "criterion_sum",
                  "log_modulus_ratio", "make_context", "shift_for_angle", "solve_criterion"],
    "errors": ["AlphaOutOfRange", "ArgumentOutOfRange", "BracketFailure", "Cycle4Error",
               "FeasibilityViolation", "InfeasiblePoint", "LowerHalfPlane", "NoConvergence",
               "NonrealRequired", "NotInterior", "NotOnCurve", "NotRealizable", "OutsideRegion",
               "ParameterOutOfRange", "ShrinkOutOfRange", "SpectrumFailure"],
    "identities": ["BivarPoly", "IdentityResult", "left_boundary_poly", "modulus_threshold_poly",
                   "verify_identity_suite"],
    "matrix": ["CycleMatrix4", "eigen_residual", "make_cycle_matrix", "spectrum"],
    "region": ["RegionVerdict", "Status", "left_boundary_form", "left_branch_root", "membership",
               "modulus_threshold", "trace_left_curve", "trace_right_segment"],
    "scalar": ["DEFAULT_TOLERANCE", "Tolerance"],
    "synthesis": ["Method", "Realization", "alpha_for_left_point", "ray_to_left_boundary", "realize",
                  "realize_via_criterion", "shrink"],
}

# Modules a command may pull in only when it runs the code that needs them.
ON_DEMAND = ["cycle4.criterion", "cycle4.synthesis", "cycle4.identities", "cycle4.figure",
             "cycle4.sampling", "fractions", "decimal", "numpy"]


def loaded_after(code: str) -> set:
    """Names from ON_DEMAND and the cycle4 package that a fresh interpreter
    holds in sys.modules after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    names = json.loads(proc.stdout.splitlines()[-1])
    return {name for name in names if name in ON_DEMAND or name.startswith("cycle4.")}


class TestExports:
    def test_all_lists_every_export_and_module(self):
        expected = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
        assert cycle4.__all__ == expected
        assert set(expected) <= set(dir(cycle4))

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_defining_modules_objects(self, module):
        home = importlib.import_module(f"cycle4.{module}")
        assert getattr(cycle4, module) is home
        for name in EXPORTS[module]:
            assert getattr(cycle4, name) is getattr(home, name)

    def test_unknown_name_raises_attribute_error(self):
        for name in ("no_such_name", "principal_arg", "ZeroArgument"):
            with pytest.raises(AttributeError):
                getattr(cycle4, name)
            assert not hasattr(cycle4, name)

    def test_star_import(self):
        namespace = {}
        exec("from cycle4 import *", namespace)
        assert all(namespace[name] is getattr(cycle4, name) for name in cycle4.__all__)

    def test_submodules_resolve_after_bare_import(self):
        code = "import cycle4\ncycle4.synthesis.realize, cycle4.matrix.spectrum"
        assert {"cycle4.synthesis", "cycle4.matrix"} <= loaded_after(code)


class TestLazyLoading:
    def test_import_loads_no_submodule(self):
        assert not any(name.startswith("cycle4.") for name in loaded_after("import cycle4"))

    @pytest.mark.parametrize("argv", [["check", "0.3", "0.2"], ["spectrum", "0.1", "0.2", "0.3", "0.4"]])
    def test_light_commands_skip_heavy_modules(self, argv):
        loaded = loaded_after(f"from cycle4.cli import main\nmain({argv!r})")
        assert loaded.isdisjoint(ON_DEMAND)

    def test_verify_loads_identities_only(self):
        loaded = loaded_after("from cycle4.cli import main\nmain(['verify'])")
        assert "cycle4.identities" in loaded
        assert loaded.isdisjoint({"cycle4.matrix", "cycle4.region"})
