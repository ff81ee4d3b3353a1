"""D-optimal designs for two-level paired comparison experiments.

Alternatives are described by K two-level attributes of which S are shown
(partial profiles), responses follow a linear paired-comparison model with
main effects and all two-, three- and four-way interaction products, and
designs are weightings of ordered pairs.  The library enumerates the design
region by comparison depth, evaluates information matrices both in closed
form and by brute force, certifies D-optimality through the equivalence
theorem, and computes optimal depth weightings.

The closed forms and the pair stream ``enumerate_orbit`` import no numpy.
The names of the two modules that do, ``explicit`` (explicit designs as
level arrays) and ``oracle`` (the brute-force oracle), are served on first
use by the module ``__getattr__`` below (PEP 562), so ``import pairdesign``
leaves numpy unloaded.
"""

from .design_space import (
    ComparisonPair,
    DepthDesign,
    InvalidPairError,
    ModelSpec,
    Profile,
    comparison_depth,
    count_pairs,
    enumerate_orbit,
    param_dims,
)
from .equivalence import (
    CertificationReport,
    VarianceProfile,
    kw_certify,
    variance_from_blocks,
    variance_profile,
    variance_uniform,
)
from .information import (
    BlockInfo,
    SingularDesignError,
    h_numerators,
    h_values,
    is_identifiable,
    log_det,
    mix_h,
)
from .optimizer import (
    OptimResult,
    conjectured_design,
    full_profile_design,
    optimal_depth_first_order,
    optimal_depth_main,
    optimal_depth_second_order,
    optimal_depth_third_order,
    optimize_full,
)

# names served on first use by __getattr__, from the modules that import numpy
_EXPLICIT_NAMES = ("ExplicitDesign", "realize_design")
_ORACLE_NAMES = (
    "DenseInfo",
    "info_matrix_exact",
    "regression_vector",
    "variance_exact",
    "variance_sweep_max_deviation",
)

__version__ = "0.1.0"

__all__ = [
    "BlockInfo",
    "CertificationReport",
    "ComparisonPair",
    "DenseInfo",
    "DepthDesign",
    "ExplicitDesign",
    "InvalidPairError",
    "ModelSpec",
    "OptimResult",
    "Profile",
    "SingularDesignError",
    "VarianceProfile",
    "comparison_depth",
    "conjectured_design",
    "count_pairs",
    "enumerate_orbit",
    "full_profile_design",
    "h_numerators",
    "h_values",
    "info_matrix_exact",
    "is_identifiable",
    "kw_certify",
    "log_det",
    "mix_h",
    "optimal_depth_first_order",
    "optimal_depth_main",
    "optimal_depth_second_order",
    "optimal_depth_third_order",
    "optimize_full",
    "param_dims",
    "realize_design",
    "regression_vector",
    "variance_exact",
    "variance_from_blocks",
    "variance_profile",
    "variance_sweep_max_deviation",
    "variance_uniform",
]


def __getattr__(name: str):
    if name in _EXPLICIT_NAMES:
        from . import explicit as module
    elif name in _ORACLE_NAMES:
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
