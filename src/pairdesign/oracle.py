"""The brute-force layer: designs spelled out as pairs, and the oracle that checks them.

It exists only to check the closed forms h1..h4 and V(d) of ``equivalence``
on small problems, and it is the one module of the package that imports
numpy at module level.

An explicit design (``ExplicitDesign``, made by ``realize_design``) spells
an invariant design (``design_space.DepthDesign``) out as int8 level arrays,
one row per ordered pair, written by ``_fill_block``, the one array renderer
of the numpy-free orbit order and row weights of ``design_space._plan_blocks``
(the CLI renders them as CSV text, ``enumerate_orbit`` as pair objects).  The
row weights are int64 numerators over one common denominator when they are
exact (floats otherwise).  ``ExplicitDesign.entries`` shows the rows as pairs
on demand.

The oracle builds dense information matrices and pair-by-pair variances up
to the oracle gate (p <= 500 parameters, <= 1e7 pairs).  Both profiles of a
pair show the same S attributes, so f(i)-f(j) is zero outside the p_S = S +
C(S,2) + C(S,3) + C(S,4) terms of that subset, and the work runs subset by
subset on p_S x p_S blocks.  Model rows come from one table T of all 2^S
level patterns, built per call (at most 1024 rows under the gate): row i
sets the j-th shown attribute to +1 where bit j of i is set and to -1
elsewhere, so a profile's shown levels, read as S bits, index its row, and a
pair's difference is the difference of two rows.  Both kernels therefore
work in Gram form, on one 2^S x 2^S matrix per subset instead of one model
row per pair: the oracle counts the weight of each pattern pair and takes
the block as T^T L T, L the Laplacian of those counts; the sweep reads every
pair's variance from T G_c T^T, G_c the block of M^-1.  Subsets come in
batches of about ``_BLOCK_FLOATS`` elements of these matrices.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_space import (
    _WEIGHT_SUM_TOL,
    ComparisonPair,
    DepthDesign,
    InvalidPairError,
    ModelSpec,
    Profile,
    Weight,
    _OrbitBlock,
    _plan_blocks,
    _weight,
    count_pairs,
    integral,
)
from .equivalence import SingularDesignError, variance_profile

__all__ = [
    "DenseInfo",
    "ExplicitDesign",
    "info_matrix_exact",
    "realize_design",
    "regression_vector",
    "variance_exact",
    "variance_sweep_max_deviation",
]

# Exact row weights are stored as int64 numerators over a denominator up to this.
_MAX_EXACT_DENOMINATOR = 10**12
# Float elements per batch of subsets, 4^S per subset, in the oracle and the sweep.
_BLOCK_FLOATS = 1 << 22
_MAX_ORACLE_PARAMS = 500
_MAX_ORACLE_PAIRS = 10_000_000


def _fill_block(block: _OrbitBlock, firsts: np.ndarray, seconds: np.ndarray) -> None:
    """Write one orbit block's rows into zeroed int8 ``(rows, K)`` arrays.

    The arrays are viewed as (subsets, patterns, flips, K) and written one
    shown column at a time for the whole block.
    """
    s = len(block.subsets[0])
    columns = np.array(block.subsets, dtype=np.intp).reshape(len(block.subsets), s)
    subsets = np.arange(len(block.subsets))
    patterns = np.arange(block.patterns.start, block.patterns.stop)[:, None]
    # past S = 63 the pattern's high bits are 0, and numpy's >> must read them so
    levels = (((patterns >> np.arange(s - 1, -1, -1)) & 1) * 2 - 1).astype(np.int8)
    signs = np.ones((len(block.flips), s), dtype=np.int8)
    flips = np.array(block.flips, dtype=np.intp).reshape(len(block.flips), -1)
    signs[np.arange(len(block.flips))[:, None], flips] = -1
    shape = (len(block.subsets), len(block.patterns), len(block.flips), firsts.shape[1])
    firsts, seconds = firsts.reshape(shape), seconds.reshape(shape)
    for j in range(s):
        firsts[subsets, :, :, columns[:, j]] = levels[:, None, j]
        seconds[subsets, :, :, columns[:, j]] = levels[:, None, j] * signs[:, j]


def _weight_column(values: Sequence[Weight]) -> tuple[np.ndarray, int | None]:
    """Weights ``values`` in ExplicitDesign's storage form, one per value.

    Each value is read by ``DepthDesign``'s weight rule, ``_weight``.  When
    all are Fractions and their least common denominator D is at most
    _MAX_EXACT_DENOMINATOR, they become int64 numerators over D; otherwise
    float64 weights.  Values outside [0, 2] always go the float way, so a
    numerator cannot overflow before validation rejects the design.
    """
    weights = [_weight(v) for v in values]
    if all(isinstance(w, Fraction) for w in weights):
        denominator = math.lcm(*(w.denominator for w in weights))
        if denominator <= _MAX_EXACT_DENOMINATOR and all(0 <= w <= 2 for w in weights):
            numerators = [w.numerator * (denominator // w.denominator) for w in weights]
            return np.array(numerators, dtype=np.int64), denominator
    return np.array([float(w) for w in weights], dtype=float), None


def _first_row(bad: np.ndarray) -> int | None:
    rows = np.flatnonzero(bad)
    return int(rows[0]) if len(rows) else None


class _EntryView(Sequence):
    """Read-only ``(ComparisonPair, Weight)`` rows of an ExplicitDesign.

    Nothing is stored: indexing, slicing and iteration build each pair and
    weight from the design's arrays on demand, and ``len`` is O(1).
    """

    __slots__ = ("_design",)

    def __init__(self, design: "ExplicitDesign") -> None:
        self._design = design

    def __len__(self) -> int:
        return len(self._design.weights)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[row] for row in range(*index.indices(len(self))))
        design = self._design
        pair = ComparisonPair(
            Profile(design.firsts[index].tolist()), Profile(design.seconds[index].tolist())
        )
        return pair, design.weight_at(index)


@dataclass(frozen=True, eq=False, init=False)
class ExplicitDesign:
    """Design as weighted ordered pairs over one problem's design region.

    Row x compares the int8 level rows ``firsts[x]`` and ``seconds[x]`` (shape
    (n, K) each).  With exact weights ``weights`` holds int64 numerators over
    their least common ``denominator`` (at most 10^12); otherwise it holds
    float64 weights and ``denominator`` is None.  ``ExplicitDesign(entries,
    spec)`` converts ``(ComparisonPair, weight)`` tuples once,
    ``from_arrays`` takes the arrays themselves, and ``entries`` shows the
    rows as such tuples again.  Both constructors validate every row: both
    profiles show the same attributes, S of the K, at levels -1/0/+1, and
    the weights are non-negative and sum to 1 (``realize_design`` makes
    rows that hold this by construction).
    """

    firsts: np.ndarray
    seconds: np.ndarray
    weights: np.ndarray
    denominator: int | None
    spec: ModelSpec

    def __init__(self, entries, spec: ModelSpec) -> None:
        entries = tuple(entries)
        firsts = np.array([pair.first.levels for pair, _ in entries], dtype=np.int8)
        seconds = np.array([pair.second.levels for pair, _ in entries], dtype=np.int8)
        weights, denominator = _weight_column([w for _, w in entries])
        self._set(firsts, seconds, weights, denominator, spec)

    @classmethod
    def from_arrays(
        cls,
        firsts: np.ndarray,
        seconds: np.ndarray,
        weights: np.ndarray,
        spec: ModelSpec,
        denominator: int | None = None,
    ) -> "ExplicitDesign":
        """Design from level arrays and row weights, copied and validated.

        With ``denominator`` the weights are integer numerators over it (at
        most 10^12 once reduced); without it they are float weights.
        """
        design = object.__new__(cls)
        design._set(firsts, seconds, weights, denominator, spec)
        return design

    def _set(self, firsts, seconds, weights, denominator, spec: ModelSpec) -> None:
        k, s = spec.n_attributes, spec.strength
        weights = np.asarray(weights)
        if weights.ndim != 1:
            raise ValueError(f"row weights have shape {weights.shape}, expected one axis")
        if weights.dtype.kind == "b":
            raise ValueError("a weight must be a real number, got bool row weights")
        n = len(weights)
        for name, levels in (("first", firsts), ("second", seconds)):
            levels = np.asarray(levels)
            if levels.shape != (n, k):
                raise ValueError(
                    f"{name} profiles have shape {levels.shape}, expected {n} rows "
                    f"of the spec's {k} attributes"
                )
            if levels.dtype.kind == "b":
                raise ValueError(f"{name} profiles: levels must be -1, 0 or +1, got bools")
            bad = _first_row(np.any((levels != -1) & (levels != 0) & (levels != 1), axis=1))
            if bad is not None:
                raise ValueError(
                    f"row {bad}: levels must be -1, 0 or +1, got {levels[bad].tolist()}"
                )
        firsts = np.array(firsts, dtype=np.int8)
        seconds = np.array(seconds, dtype=np.int8)
        shown = firsts != 0
        bad = _first_row(np.any(shown != (seconds != 0), axis=1))
        if bad is not None:
            raise InvalidPairError(f"row {bad}: profiles do not show the same attributes")
        strengths = np.count_nonzero(shown, axis=1)
        bad = _first_row(strengths != s)
        if bad is not None:
            raise ValueError(f"row {bad} has strength {strengths[bad]}, spec has {s}")
        if denominator is None:
            weights = np.array(weights, dtype=float)
            floats = weights
        else:
            denominator = integral(denominator, "denominator")
            if weights.dtype.kind not in "iu" or denominator < 1:
                raise ValueError(
                    "exact weights need integer numerators and a positive denominator"
                )
            weights = np.array(weights, dtype=np.int64)
            floats = weights / denominator
        bad = _first_row(floats < 0)
        if bad is not None:
            raise ValueError(f"negative weight {floats[bad]} in row {bad}")
        # a sequential sum, as the rows would be added one at a time
        total = float(np.cumsum(floats)[-1]) if n else 0.0
        if not abs(total - 1.0) <= max(_WEIGHT_SUM_TOL, 1e-15 * n):  # NaN fails too
            raise ValueError(f"weights sum to {total!r}, not 1")
        if denominator is not None:
            common = math.gcd(denominator, int(np.gcd.reduce(weights)))
            weights //= common
            denominator //= common
            if denominator > _MAX_EXACT_DENOMINATOR:
                raise ValueError(
                    f"exact weights need a denominator of at most {_MAX_EXACT_DENOMINATOR}, "
                    f"got {denominator}; pass float weights instead"
                )
        self._store(firsts, seconds, weights, denominator, spec)

    def _store(self, firsts, seconds, weights, denominator, spec: ModelSpec) -> None:
        """Hold valid rows and lowest-terms weights as they are, made read-only."""
        for array in (firsts, seconds, weights):
            array.flags.writeable = False
        object.__setattr__(self, "firsts", firsts)
        object.__setattr__(self, "seconds", seconds)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "spec", spec)

    @property
    def entries(self) -> Sequence[tuple[ComparisonPair, Weight]]:
        """The rows as ``(ComparisonPair, Weight)`` tuples, built on demand."""
        return _EntryView(self)

    @property
    def is_exact(self) -> bool:
        """True when the weights are held as exact numerators."""
        return self.denominator is not None

    def weight_at(self, row: int) -> Weight:
        """Weight of one row: a Fraction when exact, else a float."""
        if self.denominator is None:
            return float(self.weights[row])
        return Fraction(int(self.weights[row]), self.denominator)


def realize_design(design: DepthDesign) -> ExplicitDesign:
    """Spell an invariant design out as explicit pairs.

    The rows are the ``_plan_blocks`` of the supported depths, each block
    written in place into arrays of the plan's full size: each depth's whole
    orbit in ``enumerate_orbit``'s order, with per-pair weight w_d / N_d;
    exact weights stay exact.  Rows and weights are valid by construction,
    so they are stored without ``from_arrays``'s copies and checks.
    """
    spec = design.spec
    n_rows = sum(count_pairs(spec, d) for d in design.support)
    firsts = np.zeros((n_rows, spec.n_attributes), dtype=np.int8)
    seconds = np.zeros_like(firsts)
    shares, sizes, row = [], [], 0
    for block, share in _plan_blocks(design):
        end = row + block.n_rows
        _fill_block(block, firsts[row:end], seconds[row:end])
        shares.append(share)
        sizes.append(block.n_rows)
        row = end
    weights, denominator = _weight_column(shares)
    explicit = object.__new__(ExplicitDesign)
    explicit._store(firsts, seconds, np.repeat(weights, sizes), denominator, spec)
    return explicit


def _combo_indices(n_attributes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic index tuples for the two-, three- and four-way blocks, built per call."""
    return tuple(
        np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n_attributes), r)),
            dtype=np.intp,
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
    return _model_rows([profile], spec)[0]


def _model_rows(profiles: Sequence[Profile], spec: ModelSpec) -> np.ndarray:
    """``regression_vector`` of each profile, as the int64 rows of one matrix."""
    for profile in profiles:
        if len(profile.levels) != spec.n_attributes:
            raise ValueError(
                f"profile has {len(profile.levels)} attributes, spec has {spec.n_attributes}"
            )
        if profile.strength != spec.strength:
            raise ValueError(
                f"profile has strength {profile.strength}, spec has {spec.strength}"
            )
    levels = np.array([profile.levels for profile in profiles], dtype=np.int64)
    return _regression_matrix(levels, spec.n_attributes)


@dataclass(frozen=True)
class DenseInfo:
    """Dense p x p information matrix from the brute-force oracle.

    ``entries`` is always the float view.  When the accumulation ran in exact
    integer arithmetic, ``exact_num``/``exact_den`` hold the matrix as
    exact_num / exact_den and ``exact_entry`` recovers exact fractions; both
    are given or neither, ``exact_num`` must hold integers and ``entries``
    must equal their quotient.  Both arrays are kept as read-only copies.
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
        if exact:
            exact_den = integral(self.exact_den, "exact_den")
            if exact_den < 1:
                raise ValueError(f"exact_den must be positive, got {exact_den!r}")
            exact_num = np.array(self.exact_num, dtype=np.int64)
            if not np.array_equal(exact_num, self.exact_num):
                raise ValueError("exact_num must hold integers")
            if not np.array_equal(entries, exact_num / exact_den):
                raise ValueError("entries differ from exact_num / exact_den")
            exact_num.flags.writeable = False
            object.__setattr__(self, "exact_num", exact_num)
            object.__setattr__(self, "exact_den", exact_den)
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

    Rows are grouped by shown subset, in any row order, and each row is read
    as the pair (a, b) of its two profiles' rows of the level table T.  One
    ``np.bincount`` adds each row's weight at (a, b) of its subset's 2^S x 2^S
    matrix W.  With A = W + W^T and deg the row sums of A, the subset's
    p_S x p_S block is T^T (diag(deg) - A) T, which is
    sum_x w_x (T_a - T_b)(T_a - T_b)^T over the subset's rows (a row with
    a = b adds nothing).  One more ``np.bincount`` adds the blocks into the
    p x p matrix at their subsets' model columns.  Full profiles are one
    subset.

    The exact path holds the integer counts c_x = D w_x as float64 so the
    products run in BLAS, and it is still exact.  Every entry of A and deg is
    a sum of counts, and a row of diag(deg) - A has absolute sum at most
    2 deg_a, so every partial sum of (diag(deg) - A) T, of T^T times that
    (T is +-1) and of the scatter into the p x p matrix, in any summation
    order, is an integer of magnitude <= 4 sum_x c_x.  While that bound is
    below 2^53 each of these integers is a float64 and no operation rounds;
    the bound is checked before the products and the conversion of the
    result to int64 ``exact_num`` is checked afterwards.
    """
    spec = design.spec
    _check_oracle_gate(spec, len(design.weights))
    if design.is_exact and 4 * int(design.weights.sum()) >= 2**53:
        raise ArithmeticError("exact oracle: 4 * sum of counts reaches 2^53")
    row_weights = design.weights.astype(float)
    k, s, p = spec.n_attributes, spec.strength, spec.n_params
    table = _level_table(s)
    n = len(table)
    # per row: its shown subset's attribute bits (K <= 10 under the gate) and
    # each profile's shown levels as a row of ``table``, where bit j is set
    # when the j-th shown attribute is at +1; int16 holds both
    keys, firsts, seconds, shown = (np.zeros(len(row_weights), np.int16) for _ in range(4))
    for attribute in range(k):
        on = design.firsts[:, attribute] != 0
        keys |= on << np.int16(attribute)
        firsts |= (design.firsts[:, attribute] > 0) << shown
        seconds |= (design.seconds[:, attribute] > 0) << shown
        shown += on
    present = np.bincount(keys, minlength=2**k) > 0
    subsets = np.nonzero(np.flatnonzero(present)[:, None] >> np.arange(k) & 1)[1]
    columns = _subset_terms(subsets.reshape(-1, s), k)
    # row x adds its weight at (subset, first, second) of the stacked 2^S x 2^S matrices W
    cell = ((np.cumsum(present) - 1)[keys] * n + firsts) * n + seconds
    per_batch = max(1, _BLOCK_FLOATS // 4**s)
    total = np.zeros(p * p, dtype=float)
    for start in range(0, len(columns), per_batch):
        batch = columns[start : start + per_batch]
        low, high = start * n * n, (start + len(batch)) * n * n
        rows = (cell >= low) & (cell < high)
        # W, then diag(deg) - W - W^T in place, one subset's transpose at a time
        laplacian = np.bincount(cell[rows] - low, row_weights[rows], high - low)
        laplacian = laplacian.reshape(len(batch), n, n)
        for square in laplacian:
            square += square.T
        degree = laplacian.sum(axis=2)
        np.negative(laplacian, out=laplacian)
        laplacian.reshape(len(batch), -1)[:, :: n + 1] += degree
        product = (laplacian.reshape(-1, n) @ table).reshape(len(batch), n, -1)
        del laplacian
        blocks = table.T @ product
        total += np.bincount(
            (batch[:, :, None] * p + batch[:, None, :]).ravel(), blocks.ravel(), p * p
        )
    total = total.reshape(p, p)
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
    first, second = _model_rows([pair.first, pair.second], design.spec)
    diff = (first - second).astype(float)
    try:
        solution = np.linalg.solve(info.entries, diff)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("oracle information matrix is singular") from exc
    return float(diff @ solution)


def _pair_variances(
    info: DenseInfo,
) -> Iterator[tuple[int, range, np.ndarray, np.ndarray, np.ndarray]]:
    """Oracle variances of every pair of every depth, each unordered pair once.

    On subset c, with G_c the block of M^-1 on c's terms and T the level
    table, Q_c = T G_c T^T holds (T_a - T_b)^T G_c (T_a - T_b) as
    Q_aa + Q_bb - 2 Q_ab for every pair of local level patterns a and b.  A
    pair of depth D is x and x with the positions D flipped; both orders
    have one variance, so only x at +1 on D's first position is kept.
    Subsets come in batches of ``_BLOCK_FLOATS // 4^S``.  Yields ``(depth,
    subsets, firsts, seconds, values)`` per batch and depth: the batch's
    indices in ``itertools.combinations`` order, the pairs' table rows and
    one row of variances per subset.
    """
    k, s = info.spec.n_attributes, info.spec.strength
    try:
        lower = np.linalg.inv(np.linalg.cholesky(info.entries))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("oracle information matrix is singular") from exc
    covariance = lower.T @ lower
    terms = _subset_terms(list(itertools.combinations(range(k), s)), k)
    table = _level_table(s)
    pairs = []
    for depth in info.spec.depths:
        flips = np.array([mask for mask in range(2**s) if mask.bit_count() == depth])
        which, firsts = np.nonzero(np.arange(2**s) & (flips & -flips)[:, None])
        pairs.append((depth, firsts, firsts ^ flips[which]))
    per_batch = max(1, _BLOCK_FLOATS // 4**s)
    for start in range(0, len(terms), per_batch):
        batch = terms[start : start + per_batch]
        gram = table @ covariance[batch[:, :, None], batch[:, None, :]] @ table.T
        diagonal = np.diagonal(gram, axis1=1, axis2=2)
        for depth, firsts, seconds in pairs:
            values = gram[:, firsts, seconds]
            values *= -2
            values += diagonal[:, firsts]
            values += diagonal[:, seconds]
            yield depth, range(start, start + len(batch)), firsts, seconds, values


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
    deviations = [np.max(np.abs(v - float(closed[d]))) for d, _, _, _, v in _pair_variances(info)]
    return float(np.max(deviations))  # unlike the builtin max, np.max keeps a NaN
