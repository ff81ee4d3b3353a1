"""The brute-force oracle: dense information matrices and pair-by-pair variances.

It exists only to check the closed forms h1..h4 (``information``) and V(d)
(``equivalence``) on small problems, up to the oracle gate (p <= 500
parameters, <= 1e7 pairs).  Both profiles of a pair show the same S
attributes, so f(i)-f(j) is zero outside the p_S = S + C(S,2) + C(S,3) +
C(S,4) terms of that subset, and the work runs subset by subset on p_S x p_S
blocks, in float blocks of about ``_BLOCK_FLOATS`` elements.  Model rows come
from one table of all 2^S level patterns, built per call (at most 1024 rows
under the gate): row i sets the j-th shown attribute to +1 where bit j of i
is set and to -1 elsewhere, so a profile's shown levels, read as S bits,
index its row, and a pair's difference is the difference of two rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .design_space import (
    ComparisonPair,
    DepthDesign,
    ExplicitDesign,
    ModelSpec,
    Profile,
    realize_design,
)
from .equivalence import variance_profile
from .information import SingularDesignError

__all__ = [
    "DenseInfo",
    "info_matrix_exact",
    "regression_vector",
    "variance_exact",
    "variance_sweep_max_deviation",
]

# Float elements per block of the oracle (rows x p_S) and the sweep (rows x subsets x p_S).
_BLOCK_FLOATS = 1 << 22
_MAX_ORACLE_PARAMS = 500
_MAX_ORACLE_PAIRS = 10_000_000


@lru_cache(maxsize=None)
def _combo_indices(n_attributes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic index tuples for the two-, three- and four-way blocks."""
    return tuple(
        np.array(
            list(itertools.combinations(range(n_attributes), r)), dtype=np.intp
        ).reshape(-1, r)
        for r in (2, 3, 4)
    )


def _regression_matrix(levels: np.ndarray, n_attributes: int) -> np.ndarray:
    """Model rows for a batch of level rows; blocks ordered mains, pairs, triples, quads.

    Products are taken column by column, so the rows keep the dtype of
    ``levels`` (int8 level blocks give int8 rows).
    """
    blocks = [levels]
    for idx in _combo_indices(n_attributes):
        product = levels[:, idx[:, 0]]
        for column in idx.T[1:]:
            product = product * levels[:, column]
        blocks.append(product)
    return np.concatenate(blocks, axis=1)


def _level_table(strength: int) -> np.ndarray:
    """Model rows of all 2^S level patterns on S attributes, as floats, in bit order."""
    bits = np.arange(2**strength)[:, None] >> np.arange(strength) & 1
    return _regression_matrix((2 * bits - 1).astype(np.int8), strength).astype(float)


def _subset_terms(subsets: Sequence[Sequence[int]], n_attributes: int) -> np.ndarray:
    """Model columns of the terms inside each shown subset, one row per subset.

    All subsets have the same size S.  Row n lists, in model order, the p_S
    terms whose attributes all lie in ``subsets[n]``: exactly the columns of
    ``_regression_matrix(levels[:, subsets[n]], S)`` for sorted subsets, so a
    row showing only that subset scatters its S-attribute regression row
    into them and is zero everywhere else.
    """
    subsets = np.asarray(subsets, dtype=np.intp)
    inside = np.zeros((len(subsets), n_attributes), dtype=bool)
    np.put_along_axis(inside, subsets, True, axis=1)
    terms = [inside] + [inside[:, idx].all(axis=2) for idx in _combo_indices(n_attributes)]
    return np.nonzero(np.concatenate(terms, axis=1))[1].reshape(len(subsets), -1)


def regression_vector(profile: Profile, spec: ModelSpec) -> np.ndarray:
    """Model row f(i): the K levels, then all two-, three- and four-way products.

    Index tuples are sorted lexicographically within each block and the blocks
    are concatenated in order of interaction order, so the layout is
    byte-reproducible.  Entries are -1, 0 or +1 (no zeros for full profiles).
    """
    if len(profile.levels) != spec.n_attributes:
        raise ValueError(
            f"profile has {len(profile.levels)} attributes, spec has {spec.n_attributes}"
        )
    if profile.strength != spec.strength:
        raise ValueError(
            f"profile has strength {profile.strength}, spec has {spec.strength}"
        )
    levels = np.array([profile.levels], dtype=np.int64)
    return _regression_matrix(levels, spec.n_attributes)[0]


@dataclass(frozen=True)
class DenseInfo:
    """Dense p x p information matrix from the brute-force oracle.

    ``entries`` is always the float view.  When the accumulation ran in exact
    integer arithmetic, ``exact_num``/``exact_den`` hold the matrix as
    exact_num / exact_den and ``exact_entry`` recovers exact fractions; both
    are given or neither, and ``entries`` must equal their quotient.
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
        exact = self.exact_num is not None
        if exact != (self.exact_den is not None):
            raise ValueError("exact_num and exact_den must be given together")
        if exact and not self.exact_den > 0:
            raise ValueError(f"exact_den must be positive, got {self.exact_den!r}")
        if exact and not np.array_equal(entries, self.exact_num / self.exact_den):
            raise ValueError("entries differ from exact_num / exact_den")
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
    Refuses problems past the oracle gate instead of degrading silently.

    Rows are grouped by shown subset, in any row order; each group's p_S x p_S
    block, read from the level table, is added into the p x p matrix at the
    subset's model columns.  Full profiles are one group.

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


def variance_exact(
    pair: ComparisonPair,
    design: ExplicitDesign,
    info: DenseInfo | None = None,
) -> float:
    """(f(i)-f(j))^T M^{-1} (f(i)-f(j)) via a dense solve on the oracle matrix.

    Pass a precomputed ``info`` when sweeping many pairs of one design.
    """
    if info is None:
        info = info_matrix_exact(design)
    diff = (
        regression_vector(pair.first, design.spec)
        - regression_vector(pair.second, design.spec)
    ).astype(float)
    try:
        solution = np.linalg.solve(info.entries, diff)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("oracle information matrix is singular") from exc
    return float(diff @ solution)


def _pair_variances(info: DenseInfo) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Oracle variances of every pair of every depth, each unordered pair once.

    A pair of local level patterns, x and x with the positions D flipped,
    takes its difference from the level table once; on subset c its variance
    is rowsum((diffs @ G_c) ⊙ diffs), G_c the block of M^-1 on c's terms.
    Both orders have one variance, so only x at +1 on D's first position is
    kept.  Yields ``(depth, firsts, seconds, values)`` per block: the pairs'
    table rows and one row of variances per subset.
    """
    k, s = info.spec.n_attributes, info.spec.strength
    try:
        lower = np.linalg.inv(np.linalg.cholesky(info.entries))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("oracle information matrix is singular") from exc
    terms = _subset_terms(list(itertools.combinations(range(k), s)), k)
    inverses = (lower.T @ lower)[terms[:, :, None], terms[:, None, :]]
    table = _level_table(s)
    rows_per_block = max(1, _BLOCK_FLOATS // (len(terms) * table.shape[1]))
    for depth in info.spec.depths:
        flips = np.array([mask for mask in range(2**s) if mask.bit_count() == depth])
        which, firsts = np.nonzero(np.arange(2**s) & (flips & -flips)[:, None])
        seconds = firsts ^ flips[which]
        for start in range(0, len(firsts), rows_per_block):
            rows = slice(start, start + rows_per_block)
            diffs = table[firsts[rows]]
            diffs -= table[seconds[rows]]
            values = np.einsum("cij,ij->ci", diffs @ inverses, diffs)
            yield depth, firsts[rows], seconds[rows], values


def variance_sweep_max_deviation(
    design: DepthDesign,
    explicit: ExplicitDesign | None = None,
    info: DenseInfo | None = None,
) -> float:
    """Max |oracle variance - closed form| over every pair of every depth.

    Exhausts the whole design region of the spec, not just the design's
    support, each unordered pair once.  Pass the oracle matrix as ``info``
    when the caller already holds it; otherwise it is built from
    ``explicit`` (realized from ``design`` if absent), subject to the oracle
    gate, so intended for small attribute counts.  An ``explicit`` or
    ``info`` built for another spec raises ValueError.  A NaN variance makes
    the result NaN, which passes no bound.
    """
    for given in (explicit, info):
        if given is not None and given.spec != design.spec:
            raise ValueError(
                f"oracle input is for {given.spec}, the design is for {design.spec}"
            )
    if info is None:
        info = info_matrix_exact(realize_design(design) if explicit is None else explicit)
    closed = variance_profile(design).values
    deviations = [np.max(np.abs(v - float(closed[d]))) for d, _, _, v in _pair_variances(info)]
    return float(np.max(deviations))  # unlike the builtin max, np.max keeps a NaN
