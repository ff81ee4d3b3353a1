"""Information matrices in closed form: block diagonals from h1..h4.

The uniform design on the depth-d orbit has the block-diagonal information
matrix diag(h1 Id_p1, h2 Id_p2, h3 Id_p3, h4 Id_p4) with

    h1(d) = 4d / K
    h2(d) = 8d(S-d) / (K(K-1))
    h3(d) = 4d(3S^2 - 6Sd + 4d^2 - 3S + 2) / (K(K-1)(K-2))
    h4(d) = 16d(S-d)(2d^2 - 2Sd + S^2 - 3S + 4) / (K(K-1)(K-2)(K-3))

and mixing depth designs mixes the h values linearly.  Every closed-form
quantity is built from the integer numerators ``h_numerators(S, d)`` over the
K-only denominators, and a design with some h_r = 0 is "not identifiable":
log det, the variance function and the certificate all raise the same
SingularDesignError naming the dead blocks.  The closed form is what the
optimizer runs on; explicit pairs and their dense matrix are built only by
the brute-force layer ``oracle``, to verify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .design_space import DepthDesign, ModelSpec, Weight

__all__ = [
    "BlockInfo",
    "SingularDesignError",
    "h_numerators",
    "h_values",
    "is_identifiable",
    "log_det",
    "mix_h",
]


class SingularDesignError(Exception):
    """The design gives zero information to at least one parameter block."""

    def __init__(self, message: str, zero_blocks: tuple[str, ...] = ()):
        super().__init__(message)
        self.zero_blocks = tuple(zero_blocks)


def h_numerators(strength: int, depth: int) -> tuple[int, int, int, int]:
    """K-independent numerators of the four block informations at one depth.

    Useful on its own for depth comparisons: the attribute count only scales
    each block by a positive constant, so argmax questions reduce to these
    integers.
    """
    s, d = int(strength), int(depth)
    if not 0 <= d <= s:
        raise ValueError(f"depth must lie in 0..{s}, got {d}")
    return (
        4 * d,
        8 * d * (s - d),
        4 * d * (3 * s * s - 6 * s * d + 4 * d * d - 3 * s + 2),
        16 * d * (s - d) * (2 * d * d - 2 * s * d + s * s - 3 * s + 4),
    )


@dataclass(frozen=True)
class BlockInfo:
    """Per-block information values of an invariant design.

    Represents the p x p matrix diag(h1 Id_p1, ..., h4 Id_p4).  Values are
    exact fractions whenever the inputs were; they only turn into floats when
    float weights enter a mixture.
    """

    h1: Weight
    h2: Weight
    h3: Weight
    h4: Weight
    spec: ModelSpec

    @property
    def values(self) -> tuple[Weight, Weight, Weight, Weight]:
        return (self.h1, self.h2, self.h3, self.h4)

    @property
    def zero_blocks(self) -> tuple[str, ...]:
        return tuple(
            name for name, h in zip(("h1", "h2", "h3", "h4"), self.values) if h <= 0
        )

    @property
    def is_singular(self) -> bool:
        return any(h <= 0 for h in self.values)

    def as_matrix(self):
        """The represented p x p matrix, as a float numpy array (needs numpy installed)."""
        import numpy as np

        diag = np.repeat([float(h) for h in self.values], self.spec.block_dims)
        return np.diag(diag)


def _h_denominators(n_attributes: int) -> tuple[int, int, int, int]:
    """Denominators of the four block informations: h_r(d) = numerator_r(d) / these."""
    k = n_attributes
    return (k, k * (k - 1), k * (k - 1) * (k - 2), k * (k - 1) * (k - 2) * (k - 3))


def h_values(spec: ModelSpec, depth: int) -> BlockInfo:
    """Exact block informations of the uniform design on one depth orbit."""
    nums = h_numerators(spec.strength, depth)
    dens = _h_denominators(spec.n_attributes)
    return BlockInfo(*(Fraction(n, m) for n, m in zip(nums, dens)), spec=spec)


def mix_h(design: DepthDesign) -> BlockInfo:
    """Block informations of a depth mixture: h_r = sum_d w_d h_r(d)."""
    spec = design.spec
    totals: list[Weight] = [0, 0, 0, 0]
    for depth, weight in design.weights.items():
        for r, h in enumerate(h_values(spec, depth).values):
            totals[r] = totals[r] + weight * h
    return BlockInfo(*totals, spec=spec)


def _require_identifiable(info: BlockInfo) -> None:
    """The one singular check: raise "not identifiable: h2=h4=0" unless all h_r > 0."""
    if info.is_singular:
        zeros = info.zero_blocks
        raise SingularDesignError("not identifiable: " + "=".join(zeros) + "=0", zeros)


def log_det(info: BlockInfo) -> float:
    """log det of the block information matrix, sum_r p_r ln h_r.

    Raises SingularDesignError when any block gets zero information, naming
    the dead blocks; a singular design is "not identifiable", which is a
    different verdict from "not optimal".
    """
    _require_identifiable(info)
    return float(
        sum(p * math.log(float(h)) for p, h in zip(info.spec.block_dims, info.values))
    )


def is_identifiable(design: DepthDesign) -> bool:
    """True when the mixed information matrix is nonsingular (all h_r > 0)."""
    return not mix_h(design).is_singular
