"""The module layering: the closed forms never reach into the brute-force oracle."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pairdesign
from pairdesign import ModelSpec, cli, design_space, equivalence, information, optimizer, oracle
from pairdesign import optimize_full, realize_design

PACKAGE = Path(pairdesign.__file__).parent
MODULES = {
    "__init__": pairdesign,
    "cli": cli,
    "design_space": design_space,
    "equivalence": equivalence,
    "information": information,
    "optimizer": optimizer,
}


def imported_modules(name):
    """Modules one source file imports, the package's own without their prefix."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("pairdesign").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("pairdesign.") for a in node.names)
    return found


def test_only_the_package_and_the_cli_import_the_oracle():
    # so information, equivalence, optimizer and design_space never do
    importers = {name for name in MODULES if "oracle" in imported_modules(name)}
    assert importers == {"__init__", "cli"}


def test_equivalence_imports_no_numpy():
    assert not any(name.split(".")[0] == "numpy" for name in imported_modules("equivalence"))


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
        "ExplicitDesign", "InvalidPairError", "ModelSpec", "OptimResult", "Profile",
        "SingularDesignError", "VarianceProfile", "comparison_depth", "conjectured_design",
        "count_pairs", "enumerate_orbit", "h_numerators", "h_values", "info_matrix_exact",
        "is_identifiable", "kw_certify", "log_det", "mix_h", "optimal_depth_first_order",
        "optimal_depth_main", "optimal_depth_second_order", "optimal_depth_third_order",
        "optimize_full", "param_dims", "realize_design", "regression_vector",
        "variance_exact", "variance_from_blocks", "variance_profile",
        "variance_sweep_max_deviation", "variance_uniform",
    ]
    assert all(hasattr(pairdesign, name) for name in pairdesign.__all__)
