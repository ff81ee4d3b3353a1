"""The module layering: the closed forms never reach into the brute-force oracle or numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairdesign
from pairdesign import (
    ModelSpec,
    cli,
    design_space,
    equivalence,
    optimizer,
    oracle,
)
from pairdesign import optimize_full, realize_design

PACKAGE = Path(pairdesign.__file__).parent
MODULES = {
    "__init__": pairdesign,
    "cli": cli,
    "design_space": design_space,
    "equivalence": equivalence,
    "optimizer": optimizer,
}
# the closed forms, in their layers: equivalence on design_space, optimizer on both
CLOSED_FORMS = ["design_space", "equivalence", "optimizer"]


def imported_modules(name, module_level=False):
    """Modules one source file imports, the package's own without their prefix.

    With ``module_level`` only the imports that run when the module loads count.
    """
    found = set()
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("pairdesign").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("pairdesign.") for a in node.names)
    return found


def numpy_imports(name):
    """The scope (``Class.function``, or "" at module level) of each numpy import in one file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [a.name for a in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            found.extend(".".join(scope) for m in modules if m.split(".")[0] == "numpy")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse((PACKAGE / f"{name}.py").read_text()), ())
    return found


def test_only_the_package_and_the_cli_import_the_oracle():
    # so the closed forms never do
    importers = {name for name in MODULES if "oracle" in imported_modules(name)}
    assert importers == {"__init__", "cli"}


def test_the_closed_forms_import_numpy_only_inside_as_matrix():
    assert {name: numpy_imports(name) for name in CLOSED_FORMS} == {
        "design_space": [],
        "equivalence": ["BlockInfo.as_matrix"],
        "optimizer": [],
    }


def test_the_closed_forms_import_no_private_name_of_the_package():
    # each layer reads only the public names of the layers below it
    crossing = [
        f"{name} imports {node.module}.{alias.name}"
        for name in CLOSED_FORMS
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "pairdesign")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_import_no_numpy_at_module_level(name):
    # numpy is imported only where arrays are made: the oracle, and
    # inside the cli commands and BlockInfo.as_matrix that need them
    imported = imported_modules(name, module_level=True)
    assert not any(module.split(".")[0] == "numpy" for module in imported)


def test_only_the_oracle_imports_numpy_at_module_level():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(m.split(".")[0] == "numpy" for m in imported_modules(path.stem, module_level=True))
    }
    assert importers == {"oracle"}


def test_each_number_rule_is_decided_in_design_space():
    # "is it exact?" is a Fraction after DepthDesign's weight rule, and "is it
    # an integer?" is design_space.integral: no module decides either again,
    # and none outside design_space tells a bool or a spec from a number
    found = []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            where = f"{name}.{'.'.join(scope) or '<module>'}"
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "isinstance":
                kinds = child.args[1] if len(child.args) == 2 else None
                if isinstance(kinds, ast.Tuple) and ast.unparse(kinds) == "(int, Fraction)":
                    found.append(f"{where}: {ast.unparse(child)}")
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if name != "design_space" and any(
                    ast.unparse(kind) in ("bool", "ModelSpec") for kind in names if kind
                ):
                    found.append(f"{where}: {ast.unparse(child)}")
            if isinstance(child, ast.Compare) and where != "design_space.integral":
                operands = [child.left, *child.comparators]
                casts = [
                    ast.dump(o.args[0]) for o in operands
                    if isinstance(o, ast.Call) and ast.unparse(o.func) == "int" and len(o.args) == 1
                ]
                if any(ast.dump(o) in casts for o in operands):
                    found.append(f"{where}: {ast.unparse(child)}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.stem)
    assert found == []


def test_the_oracle_command_and_as_matrix_import_numpy_inside_a_function():
    # as_matrix: test_the_closed_forms_import_numpy_only_inside_as_matrix
    assert "oracle" in imported_modules("cli")
    assert "oracle" not in imported_modules("cli", module_level=True)


def test_import_pairdesign_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys, pairdesign\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('pairdesign.'))\n"
        f"closed_forms = {CLOSED_FORMS!r}\n"
        "assert loaded == ['pairdesign.' + m for m in closed_forms], loaded\n"
        "import pairdesign.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert sum(1 for _ in pairdesign.enumerate_orbit(pairdesign.ModelSpec(6, 6), 3)) == 1280\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by the pair stream'\n"
        "pairdesign.realize_design\n"
        "assert 'numpy' in sys.modules, 'numpy not imported on demand'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize(
    "name", ["_BLOCK_FLOATS", "_level_table", "_subset_terms", "_regression_matrix"]
)
def test_oracle_internals_are_bound_only_in_the_oracle(name):
    assert hasattr(oracle, name)
    assert [module for module, obj in MODULES.items() if hasattr(obj, name)] == []


def test_one_block_budget_reaches_the_oracle_and_the_sweep(monkeypatch):
    design = optimize_full(ModelSpec(6, 5)).design
    explicit = realize_design(design)
    dense = oracle.info_matrix_exact(explicit)
    deviation = oracle.variance_sweep_max_deviation(design, info=dense)
    divisors = []

    class Budget(int):
        """The default budget, recording what each reader divides it by."""

        def __floordiv__(self, other):
            divisors.append(other)
            return int(self) // other

    monkeypatch.setattr(oracle, "_BLOCK_FLOATS", Budget(oracle._BLOCK_FLOATS))
    gram = 4**5  # one 2^S x 2^S matrix per shown subset
    again = oracle.info_matrix_exact(explicit)
    assert divisors == [gram]  # the oracle sizes its batches of subsets from it
    assert oracle.variance_sweep_max_deviation(design, info=again) == deviation
    assert divisors == [gram, gram]  # and so does the sweep
    assert np.array_equal(again.exact_num, dense.exact_num)


def test_public_names_are_unchanged():
    assert sorted(pairdesign.__all__) == [
        "BlockInfo", "CertificationReport", "ComparisonPair", "DenseInfo", "DepthDesign",
        "ExplicitDesign", "InvalidPairError", "ModelSpec", "Profile",
        "SingularDesignError", "VarianceProfile", "comparison_depth", "conjectured_design",
        "count_pairs", "enumerate_orbit", "full_profile_design", "h_numerators", "h_values",
        "info_matrix_exact", "is_identifiable", "kw_certify", "log_det", "mix_h",
        "optimal_depth_first_order", "optimal_depth_main", "optimal_depth_second_order",
        "optimal_depth_third_order", "optimize_full", "param_dims", "realize_design",
        "regression_vector", "variance_exact", "variance_profile",
        "variance_sweep_max_deviation", "variance_uniform",
    ]
    assert all(hasattr(pairdesign, name) for name in pairdesign.__all__)


def test_each_public_name_is_listed_by_one_module():
    modules = [design_space, equivalence, optimizer, oracle]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(pairdesign.__all__)
    # the package serves the oracle's names lazily, from a copy of its list
    assert pairdesign._ORACLE_NAMES == tuple(oracle.__all__)
    for module in modules:
        assert all(getattr(pairdesign, name) is getattr(module, name) for name in module.__all__)

