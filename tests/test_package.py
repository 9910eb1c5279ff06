"""The package surface: the exported names, and submodules that load only
when first used."""

import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cycle4

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each exported name under the module that defines it; the modules are
# exported too.
EXPORTS = {
    "criterion": ["CriterionContext", "Regime", "make_context"],
    "errors": ["AlphaOutOfRange", "ArgumentOutOfRange", "Cycle4Error", "NoConvergence",
               "OutsideRegion", "SpectrumFailure"],
    "identities": ["IdentityResult", "verify_identity_suite"],
    "matrix": ["CycleMatrix4", "eigen_residual", "spectrum"],
    "region": ["RegionVerdict", "Status", "left_boundary_form", "left_branch_root", "membership",
               "modulus_threshold", "trace_left_curve", "trace_right_segment"],
    "synthesis": ["Method", "Realization", "realize", "realize_via_criterion"],
}

# Modules a command may pull in only when it runs the code that needs them.
ON_DEMAND = ["cycle4.criterion", "cycle4.synthesis", "cycle4.identities", "cycle4.figure",
             "cycle4.sampling", "cycle4._sample_csv", "fractions", "decimal", "numpy"]


def modules_after(code: str) -> set:
    """Every name a fresh interpreter holds in sys.modules after running
    ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set:
    """Names from ON_DEMAND and the cycle4 package loaded after ``code``."""
    return {name for name in modules_after(code) if name in ON_DEMAND or name.startswith("cycle4.")}


def added_by_command(argv: list) -> set:
    """Modules that running the CLI command ``argv`` loads beyond a bare
    ``python -c pass``, which holds whatever the site's start-up files
    import."""
    run = f"from cycle4.cli import main\nassert main({argv!r}) == 0"
    return modules_after(run) - modules_after("pass")


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
        for name in ("no_such_name", "principal_arg", "ZeroArgument", "shrink", "ShrinkOutOfRange",
                     "scalar", "LowerHalfPlane", "NonrealRequired", "FeasibilityViolation",
                     "InfeasiblePoint", "shift_for_angle", "log_modulus_ratio", "criterion_sum",
                     "Tolerance", "DEFAULT_TOLERANCE", "make_cycle_matrix"):
            with pytest.raises(AttributeError):
                getattr(cycle4, name)
            assert not hasattr(cycle4, name)

    def test_star_import(self):
        namespace = {}
        exec("from cycle4 import *", namespace)
        assert all(namespace[name] is getattr(cycle4, name) for name in cycle4.__all__)

    def test_every_export_is_used_by_the_package(self):
        # An export only tests reach is dead API.  A reference is a name or
        # an attribute, or a module in a relative import, anywhere in the
        # package but the definition itself.
        used = set()
        for path in Path(SRC, "cycle4").glob("*.py"):
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                found = set()
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        found.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        found.add(node.attr)
                    elif isinstance(node, ast.ImportFrom) and node.level == 1:
                        found.update([node.module] if node.module else [a.name for a in node.names])
                used |= found - {getattr(statement, "name", None)}
        assert set(cycle4.__all__) - used == set()

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
        # verify proves region's own forms, so it loads region (and through
        # it matrix), but no other heavy module
        loaded = loaded_after("from cycle4.cli import main\nmain(['verify'])")
        assert {"cycle4.identities", "cycle4.region"} <= loaded
        assert loaded.isdisjoint({"fractions", "decimal", "numpy", "cycle4.sampling",
                                  "cycle4.criterion", "cycle4.synthesis", "cycle4.figure"})

    # dataclasses pulls in inspect, ast, dis and tokenize; numpy, which only
    # sample loads, imports inspect itself
    @pytest.mark.parametrize("argv", [
        ["check", "0.3", "0.2"],
        ["realize", "0.2", "0.3"],
        ["realize", "0.2", "0.3", "--method=criterion"],
        ["spectrum", "0.1", "0.2", "0.3", "0.4"],
        ["psi", "0.2", "0.3"],
        ["verify"],
        ["trace", "region", "20", "{tmp}/trace.csv", "--svg", "{tmp}/trace.svg"],
    ], ids=["check", "realize", "realize_criterion", "spectrum", "psi", "verify", "trace_region"])
    def test_commands_skip_dataclasses_and_inspect(self, tmp_path, argv):
        added = added_by_command([arg.format(tmp=tmp_path) for arg in argv])
        assert added.isdisjoint({"dataclasses", "inspect"})

    def test_sample_skips_dataclasses(self, tmp_path):
        added = added_by_command(["sample", "50", "1", str(tmp_path / "sample.csv")])
        assert "numpy" in added and "dataclasses" not in added


# One instance of each result record, built on first use.
RECORDS = {
    "CycleMatrix4": lambda: cycle4.CycleMatrix4((0.1, 0.2, 0.3, 0.4)),
    "RegionVerdict": lambda: cycle4.membership(0.2 + 0.3j),
    "TracePoint": lambda: cycle4.trace_left_curve(5)[2],
    "Realization": lambda: cycle4.realize(0.2 + 0.3j),
    "CriterionContext": lambda: cycle4.make_context(0.2 + 0.3j),
    "IdentityResult": lambda: cycle4.verify_identity_suite()[0],
}


class TestRecords:
    """The records are named tuples: immutable, picklable, iterable, and
    equal to the plain tuple of their fields."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_tuple_contract(self, name):
        record = RECORDS[name]()
        assert type(record).__name__ == name
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        assert record == tuple(record) == tuple(getattr(record, f) for f in record._fields)

    def test_errors_pickle(self):
        errors = importlib.import_module("cycle4.errors")
        classes = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, errors.Cycle4Error)]
        assert len(classes) == len(EXPORTS["errors"])
        for cls in classes:
            err = cls("message")
            copy = pickle.loads(pickle.dumps(err))
            assert type(copy) is cls
            assert copy.args == err.args and str(copy) == str(err)

    def test_repr(self):
        matrix = cycle4.CycleMatrix4((0.5, 0, 0.25, 0))
        assert repr(matrix) == "CycleMatrix4(alpha=(0.5, 0.0, 0.25, 0.0))"
