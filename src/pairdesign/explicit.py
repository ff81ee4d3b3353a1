"""Explicit designs: depth orbits spelled out as weighted ordered pairs.

An explicit design (``ExplicitDesign``, made by ``realize_design``) spells
an invariant design (``design_space.DepthDesign``) out as int8 level arrays,
one row per ordered pair, written by ``_fill_block``, the one array renderer
of the numpy-free orbit order and row weights of ``design_space._plan_blocks``
(the CLI renders them as CSV text, ``enumerate_orbit`` as pair objects).  The
row weights are int64 numerators over one common denominator when they are
exact (floats otherwise).  ``ExplicitDesign.entries`` shows the rows as pairs
on demand; model rows f(i) and the brute-force oracle live in ``oracle``.
This is the only module besides ``oracle`` that imports numpy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    count_pairs,
)

__all__ = ["ExplicitDesign", "realize_design"]

# Exact row weights are stored as int64 numerators over a denominator up to this.
_MAX_EXACT_DENOMINATOR = 10**12


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

    When all values are exact and their least common denominator D is at
    most _MAX_EXACT_DENOMINATOR, they become int64 numerators over D;
    otherwise float64 weights.  Values outside [0, 2] always go the float
    way, so a numerator cannot overflow before validation rejects the design.
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        fractions = [Fraction(v) for v in values]
        denominator = math.lcm(*(f.denominator for f in fractions))
        if denominator <= _MAX_EXACT_DENOMINATOR and all(0 <= f <= 2 for f in fractions):
            numerators = [f.numerator * (denominator // f.denominator) for f in fractions]
            return np.array(numerators, dtype=np.int64), denominator
    return np.array([float(v) for v in values], dtype=float), None


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
        n = len(weights)
        for name, levels in (("first", firsts), ("second", seconds)):
            levels = np.asarray(levels)
            if levels.shape != (n, k):
                raise ValueError(
                    f"{name} profiles have shape {levels.shape}, expected {n} rows "
                    f"of the spec's {k} attributes"
                )
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
            common = math.gcd(int(denominator), int(np.gcd.reduce(weights)))
            weights //= common
            denominator = int(denominator) // common
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
    depth_weights = {d: design.weights[d] for d in design.support}
    n_rows = sum(count_pairs(spec, d) for d in depth_weights)
    firsts = np.zeros((n_rows, spec.n_attributes), dtype=np.int8)
    seconds = np.zeros_like(firsts)
    shares, sizes, row = [], [], 0
    for block, share in _plan_blocks(spec, depth_weights):
        end = row + block.n_rows
        _fill_block(block, firsts[row:end], seconds[row:end])
        shares.append(share)
        sizes.append(block.n_rows)
        row = end
    weights, denominator = _weight_column(shares)
    explicit = object.__new__(ExplicitDesign)
    explicit._store(firsts, seconds, np.repeat(weights, sizes), denominator, spec)
    return explicit
