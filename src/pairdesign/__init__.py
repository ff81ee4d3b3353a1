"""D-optimal designs for two-level paired comparison experiments.

Alternatives are described by K two-level attributes of which S are shown
(partial profiles), responses follow a linear paired-comparison model with
main effects and all two-, three- and four-way interaction products, and
designs are weightings of ordered pairs.  The library enumerates the design
region by comparison depth, evaluates information matrices both in closed
form and by brute force, certifies D-optimality through the equivalence
theorem, and computes optimal depth weightings.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them.  The closed forms and the pair stream
``enumerate_orbit`` import no numpy.  The names of the one module that does,
``oracle`` (explicit designs as level arrays and the brute-force oracle), are
served on first use by the module ``__getattr__`` below (PEP 562), so
``import pairdesign`` leaves numpy unloaded.
"""

from . import design_space, equivalence, information, optimizer
from .design_space import *  # noqa: F403
from .equivalence import *  # noqa: F403
from .information import *  # noqa: F403
from .optimizer import *  # noqa: F403

# ``oracle.__all__``, served on first use by __getattr__; a test checks the two agree
_ORACLE_NAMES = (
    "DenseInfo",
    "ExplicitDesign",
    "info_matrix_exact",
    "realize_design",
    "regression_vector",
    "variance_exact",
    "variance_sweep_max_deviation",
)

__version__ = "0.1.0"

__all__ = [
    *design_space.__all__,
    *equivalence.__all__,
    *information.__all__,
    *optimizer.__all__,
    *_ORACLE_NAMES,
]


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
