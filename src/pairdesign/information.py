"""Information matrices: closed-form block diagonals and the brute-force oracle.

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
optimizer runs on; the dense oracle accumulates
sum_x w_x (f(i)-f(j))(f(i)-f(j))^T over explicit pairs, each pair's rows read
from one table of the 2^S level patterns, and exists to verify the closed
form, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_space import (
    DepthDesign,
    ExplicitDesign,
    ModelSpec,
    Weight,
    _MAX_EXACT_DENOMINATOR,  # the exact oracle's limit, applied where weights are stored
    _BLOCK_FLOATS,
    _level_table,
    _subset_terms,
)

__all__ = [
    "BlockInfo",
    "DenseInfo",
    "SingularDesignError",
    "h_numerators",
    "h_values",
    "info_matrix_exact",
    "is_identifiable",
    "log_det",
    "mix_h",
]

_MAX_ORACLE_PARAMS = 500
_MAX_ORACLE_PAIRS = 10_000_000


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

    def as_matrix(self) -> np.ndarray:
        """The represented p x p matrix, as floats."""
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


@dataclass(frozen=True)
class DenseInfo:
    """Dense p x p information matrix from the brute-force oracle.

    ``entries`` is always the float view.  When the accumulation ran in exact
    integer arithmetic, ``exact_num``/``exact_den`` hold the matrix as
    exact_num / exact_den and ``exact_entry`` recovers exact fractions.
    """

    entries: np.ndarray
    spec: ModelSpec
    exact_num: np.ndarray | None = None
    exact_den: int | None = None

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)  # a copy the caller cannot change
        if entries.shape != (self.spec.n_params, self.spec.n_params):
            raise ValueError(
                f"expected a {self.spec.n_params} x {self.spec.n_params} matrix, "
                f"got shape {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):  # a NaN would pass the symmetry check
            raise ValueError("information matrix has entries that are not finite")
        if np.max(np.abs(entries - entries.T), initial=0.0) > 1e-12:
            raise ValueError("information matrix is not symmetric")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def is_exact(self) -> bool:
        return self.exact_num is not None

    def exact_entry(self, row: int, col: int) -> Fraction:
        if self.exact_num is None or self.exact_den is None:
            raise ValueError("matrix was accumulated in floating point")
        return Fraction(int(self.exact_num[row, col]), self.exact_den)


def _check_oracle_gate(spec: ModelSpec, n_pairs: int = 0) -> None:
    """Refuse oracle work past p <= 500 parameters or 1e7 pairs.

    Callers check before they build anything, so an oversize request fails
    fast instead of after realizing every pair.  The CLI gates on p alone:
    p <= 500 means K <= 10, and no K <= 10 design region holds 3e6 pairs.
    """
    if spec.n_params > _MAX_ORACLE_PARAMS:
        raise ValueError(
            f"oracle gate: p={spec.n_params} exceeds {_MAX_ORACLE_PARAMS}; "
            "use the closed-form block information instead"
        )
    if n_pairs > _MAX_ORACLE_PAIRS:
        raise ValueError(f"oracle gate: {n_pairs} pairs exceed {_MAX_ORACLE_PAIRS}")


def info_matrix_exact(design: ExplicitDesign) -> DenseInfo:
    """Brute-force information matrix sum_x w_x (f(i)-f(j))(f(i)-f(j))^T.

    Runs in exact arithmetic over the design's common weight denominator D
    whenever it holds exact weights (every weight rational and
    D <= _MAX_EXACT_DENOMINATOR, 1e12); otherwise accumulates float weights.
    Refuses problems past the oracle gate (p <= 500, <= 1e7 pairs) instead
    of degrading silently.

    Only the terms inside a pair's shown attributes can be non-zero in
    f(i)-f(j), so the rows are grouped by their shown subset, in any row
    order: each group accumulates a p_S x p_S block on those terms
    (p_S = S + C(S,2) + C(S,3) + C(S,4)), which is added into the p x p
    matrix at the subset's model columns.  Full profiles are one group.  A
    profile's shown levels, read as S bits, pick its p_S-term row from one
    ``_level_table`` of all 2^S level patterns, and a group's differences
    are built in blocks of about ``_BLOCK_FLOATS`` floats.

    The exact path holds the integer counts c_x = D w_x as float64 so the
    products run in BLAS, and it is still exact: both profiles of a pair show
    the same attributes, so every entry of f(i)-f(j) lies in {-2, 0, 2}, every
    product term is an integer of magnitude <= 4 c_x, and every partial sum in
    any summation order, within a block or across blocks, is an integer of
    magnitude <= 4 sum_x c_x.  While that bound is below 2^53 each of these
    integers is a float64 and no operation rounds; the bound is checked before
    the products and the conversion of the result to int64 ``exact_num`` is
    checked afterwards.
    """
    spec = design.spec
    n_rows = len(design.weights)
    _check_oracle_gate(spec, n_rows)
    if design.is_exact and 4 * int(design.weights.sum()) >= 2**53:
        raise ArithmeticError("exact oracle: 4 * sum of counts reaches 2^53")
    row_weights = design.weights.astype(float)
    k, s, p = spec.n_attributes, spec.strength, spec.n_params
    table = _level_table(s)
    rows_per_block = max(1, _BLOCK_FLOATS // table.shape[1])
    # one integer key per shown subset, its attribute bits (K <= 10 under the gate)
    keys = (design.firsts != 0) @ (1 << np.arange(k))
    # each profile's shown levels as a row of ``table``: bit j is set when the
    # j-th shown attribute is at +1 (int16 holds the S <= 10 bits)
    position = np.maximum(np.cumsum(design.firsts != 0, axis=1, dtype=np.int16) - 1, 0)
    firsts, seconds = (
        ((levels > 0) << position).sum(axis=1) for levels in (design.firsts, design.seconds)
    )
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    subsets = [np.flatnonzero(design.firsts[group[0]]) for group in groups]
    total = np.zeros((p, p), dtype=float)
    for group, columns in zip(groups, _subset_terms(subsets, k)):
        block = np.zeros((len(columns), len(columns)), dtype=float)
        for start in range(0, len(group), rows_per_block):
            rows = group[start : start + rows_per_block]
            diffs = table[firsts[rows]]
            diffs -= table[seconds[rows]]
            block += diffs.T @ (diffs * row_weights[rows, None])
        total[np.ix_(columns, columns)] += block
    if design.is_exact:
        exact_num = total.astype(np.int64)
        if not np.array_equal(exact_num, total):
            raise ArithmeticError("exact oracle: float64 accumulation left the integers")
        return DenseInfo(
            entries=exact_num / design.denominator,
            spec=spec,
            exact_num=exact_num,
            exact_den=design.denominator,
        )
    return DenseInfo(entries=(total + total.T) / 2.0, spec=spec)
