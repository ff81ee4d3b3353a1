"""Profiles, comparison pairs, and the depth-orbit structure of the design region.

A paired comparison presents two alternatives ("profiles") described by K
two-level attributes coded -1/+1.  In a partial profile only S of the K
attributes are shown; hidden attributes are coded 0, and both alternatives of
a pair always show the same S attributes.  Ordered pairs that differ in
exactly d of the shown attributes form one orbit of the symmetry group
(attribute permutations plus per-attribute sign flips applied to both
profiles), and every design that is invariant under that group is a mixture
of uniform designs on these orbits, so it is fully described by a weight per
comparison depth.

Two rules for the numbers that enter are decided here, and every layer reads
their answer: ``integral`` for K, S and every depth, and ``_weight`` for each
weight, which is exact exactly when it is held as a Fraction.

The order in which an orbit's rows are spelled out, and the weight each row
carries, are decided here once (``_orbit_order``, ``_plan_blocks``), with no
numpy: ``enumerate_orbit`` renders that order as pair objects, the CLI as
CSV text rows, and ``oracle`` as the numpy level arrays of an explicit
design.  This module, like the closed forms built on it, imports no numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ComparisonPair",
    "DepthDesign",
    "InvalidPairError",
    "ModelSpec",
    "Profile",
    "comparison_depth",
    "count_pairs",
    "enumerate_orbit",
    "param_dims",
]

Weight = Fraction | float | int

_WEIGHT_SUM_TOL = 1e-12
_LEVELS = {-1: -1, 0: 0, 1: 1}  # a profile level's int: 1.0 and True read as 1
# Rows per block when orbits stream (enumeration, realization, plan writing and reading).
_ORBIT_BLOCK_ROWS = 1 << 16


class InvalidPairError(ValueError):
    """Two profiles that cannot be compared (different shown attributes)."""


def integral(value, name: str) -> int:
    """An integral real (``5.0``, ``numpy.int64(5)``) as its int; else ``ValueError`` naming it.

    A bool, ``2.5``, inf, NaN, None and ``"5"`` are refused, not truncated or read as 1.
    """
    if type(value) is int:
        return value
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and value == int(value):
            return int(value)
    except (OverflowError, ValueError):  # int() of inf or NaN
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _weight(value) -> Fraction | float:
    """One weight as it is held: a rational (not a bool) as a Fraction, another real as a float."""
    if type(value) is Fraction or type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return Fraction(value) if isinstance(value, numbers.Rational) else float(value)
    raise ValueError(f"a weight must be a real number, got {value!r}")


def param_dims(n_attributes: int) -> tuple[int, int, int, int, int]:
    """Parameter-block sizes (p1, p2, p3, p4, p) for K two-level attributes.

    Main effects plus all two-, three- and four-way product terms give block
    sizes C(K,1), C(K,2), C(K,3), C(K,4); p is their sum.
    """
    n_attributes = integral(n_attributes, "n_attributes")
    if n_attributes < 4:
        raise ValueError(
            f"need at least 4 attributes, got {n_attributes}: four-way product "
            "terms require four distinct attributes, and with them a profile "
            "strength of at least 4"
        )
    dims = tuple(math.comb(n_attributes, r) for r in (1, 2, 3, 4))
    return (*dims, sum(dims))


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions of one design problem: K two-level attributes, S of them shown.

    Strength S >= 4 is required so that four-way products of shown attributes
    can be told apart from zero at all.
    """

    n_attributes: int
    strength: int
    block_dims: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("n_attributes", "strength"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        dims = param_dims(self.n_attributes)
        if not 4 <= self.strength <= self.n_attributes:
            raise ValueError(
                f"profile strength must satisfy 4 <= S <= K, "
                f"got S={self.strength}, K={self.n_attributes}"
            )
        object.__setattr__(self, "block_dims", dims[:4])
        object.__setattr__(self, "n_params", dims[4])

    @property
    def depths(self) -> range:
        """Comparison depths 1..S an informative pair can have."""
        return range(1, self.strength + 1)


@dataclass(frozen=True)
class Profile:
    """One alternative: a level in {-1, +1} per shown attribute, 0 per hidden one."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        try:  # 0.5 and NaN are not truncated
            levels = tuple(map(_LEVELS.__getitem__, levels))
        except (KeyError, TypeError):  # TypeError: an unhashable level
            raise ValueError(f"levels must be -1, 0 or +1, got {self.levels!r}") from None
        object.__setattr__(self, "levels", levels)

    @property
    def strength(self) -> int:
        """Number of shown (non-zero) attributes."""
        return sum(1 for v in self.levels if v != 0)

    @property
    def active(self) -> tuple[int, ...]:
        """Indices of the shown attributes."""
        return tuple(i for i, v in enumerate(self.levels) if v != 0)

    @classmethod
    def from_text(cls, text: str) -> "Profile":
        """Parse the comma-separated form, e.g. ``"1,-1,0,1,1"``."""
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"cannot parse profile from {text!r}") from exc

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.levels)


def comparison_depth(first: Profile, second: Profile) -> int:
    """Number of shown attributes in which two comparable profiles differ."""
    if len(first.levels) != len(second.levels):
        raise InvalidPairError(
            f"profiles have {len(first.levels)} and {len(second.levels)} attributes"
        )
    depth = 0
    for a, b in zip(first.levels, second.levels):
        if a != b:
            if not (a and b):  # of two levels that differ, one is 0 or both are shown
                raise InvalidPairError("profiles do not show the same attributes")
            depth += 1
    return depth


@dataclass(frozen=True)
class ComparisonPair:
    """Ordered pair of profiles showing the same attributes.

    The comparison depth (count of shown attributes with different levels) is
    computed on construction; building a pair from profiles with different
    shown attributes raises InvalidPairError.
    """

    first: Profile
    second: Profile
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", comparison_depth(self.first, self.second))

    @classmethod
    def from_text(cls, text: str) -> "ComparisonPair":
        """Parse the ``"i|j"`` form with comma-separated levels on each side."""
        parts = text.split("|")
        if len(parts) != 2:
            raise ValueError(f"expected exactly one '|' in {text!r}")
        return cls(Profile.from_text(parts[0]), Profile.from_text(parts[1]))

    def to_text(self) -> str:
        return f"{self.first.to_text()}|{self.second.to_text()}"


def count_pairs(spec: ModelSpec, depth: int) -> int:
    """Number of ordered pairs at one comparison depth: 2^S C(K,S) C(S,d)."""
    k, s, depth = spec.n_attributes, spec.strength, integral(depth, "depth")
    if not 0 <= depth <= s:
        raise ValueError(f"depth must lie in 0..{s}, got {depth}")
    return 2**s * math.comb(k, s) * math.comb(s, depth)


class _OrbitBlock(NamedTuple):
    """Consecutive rows of one depth orbit: every subset x pattern x flips triple, nested so.

    A row shows the attributes ``subset`` (ascending).  Level pattern n shows
    the subset's attribute j at +1 when bit S-1-j of n is set, else at -1
    (``itertools.product((-1, 1), repeat=S)`` order); the first profile has
    pattern n, and the second flips the positions ``flips`` of the subset, so
    its pattern is n XOR the mask of those positions' bits.
    """

    subsets: list[tuple[int, ...]]
    patterns: range
    flips: list[tuple[int, ...]]

    @property
    def n_rows(self) -> int:
        return len(self.subsets) * len(self.patterns) * len(self.flips)


def _batches(iterable, size: int) -> Iterator[list]:
    iterator = iter(iterable)
    while batch := list(itertools.islice(iterator, size)):
        yield batch


def _orbit_order(spec: ModelSpec, depth: int) -> Iterator[_OrbitBlock]:
    """The one row order of a depth orbit, as blocks of at most ``_ORBIT_BLOCK_ROWS`` rows.

    Attribute subsets, then first-profile patterns, then flipped positions,
    each in lexicographic order.  A block takes a batch of each factor; a
    batch of an outer factor holds more than one item only when every inner
    factor fits whole, which keeps the order.
    """
    k, s, depth = spec.n_attributes, spec.strength, integral(depth, "depth")
    if not 0 <= depth <= s:
        raise ValueError(f"depth must lie in 0..{s}, got {depth}")
    n_flips, n_levels = math.comb(s, depth), 2**s
    flip_batch = min(n_flips, _ORBIT_BLOCK_ROWS)
    level_batch = min(n_levels, _ORBIT_BLOCK_ROWS // flip_batch)
    subset_batch = _ORBIT_BLOCK_ROWS // (level_batch * flip_batch)

    def flip_batches() -> Iterator[list[tuple[int, ...]]]:
        return _batches(itertools.combinations(range(s), depth), flip_batch)

    # flips that fit in one batch are listed once and reused
    flips_once = list(flip_batches()) if flip_batch == n_flips else None
    for subsets in _batches(itertools.combinations(range(k), s), subset_batch):
        for start in range(0, n_levels, level_batch):
            patterns = range(start, min(start + level_batch, n_levels))
            for flips in flips_once or flip_batches():
                yield _OrbitBlock(subsets, patterns, flips)


def enumerate_orbit(spec: ModelSpec, depth: int) -> Iterator[ComparisonPair]:
    """Yield every ordered pair of the given comparison depth exactly once.

    The stream is deterministic: attribute subsets, then first-profile levels,
    then flipped positions, each in lexicographic order.  Pairs are built
    block by block of ``_orbit_order``, so large spaces can be consumed
    incrementally.
    """
    k, s = spec.n_attributes, spec.strength
    bits = range(s - 1, -1, -1)
    for block in _orbit_order(spec, depth):
        for subset in block.subsets:
            for pattern in block.patterns:
                levels = [0] * k
                for column, bit in zip(subset, bits):
                    levels[column] = 1 if pattern >> bit & 1 else -1
                # the rows of one pattern share their first profile
                first = Profile(levels)
                for flips in block.flips:
                    other = levels.copy()
                    for j in flips:
                        other[subset[j]] = -levels[subset[j]]
                    yield ComparisonPair(first, Profile(other))


@dataclass(frozen=True)
class DepthDesign:
    """Invariant design: one probability weight per comparison depth 1..S.

    A rational weight (an int, a Fraction, a numpy int; not a bool) is held as
    a Fraction and must make an exact sum of 1, another real as a float
    summing to 1 within 1e-12; a bool, a Decimal or a string raises ValueError.
    """

    weights: dict[int, Weight]
    spec: ModelSpec

    def __post_init__(self) -> None:
        cleaned: dict[int, Fraction | float] = {}
        for depth, weight in self.weights.items():
            depth, weight = integral(depth, "depth"), _weight(weight)
            if depth == 0:
                raise ValueError("depth 0 carries no information and cannot be weighted")
            if not 1 <= depth <= self.spec.strength:
                raise ValueError(
                    f"depth must lie in 1..{self.spec.strength}, got {depth}"
                )
            if weight < 0:
                raise ValueError(f"negative weight {weight} at depth {depth}")
            cleaned[depth] = weight
        object.__setattr__(self, "weights", dict(sorted(cleaned.items())))
        total = sum(cleaned.values())
        if self.is_exact and total != 1:
            raise ValueError(f"exact weights sum to {total}, not 1")
        if not abs(float(total) - 1.0) <= _WEIGHT_SUM_TOL:  # a NaN weight fails too
            raise ValueError(f"weights sum to {float(total)!r}, not 1")

    @classmethod
    def point_mass(cls, spec: ModelSpec, depth: int) -> "DepthDesign":
        """The uniform design on a single comparison depth."""
        return cls({depth: Fraction(1)}, spec)

    @property
    def support(self) -> tuple[int, ...]:
        """Depths carrying positive weight, ascending."""
        return tuple(d for d, w in self.weights.items() if w > 0)

    @property
    def is_exact(self) -> bool:
        """True when every weight is held as a Fraction."""
        return all(isinstance(w, Fraction) for w in self.weights.values())


def _plan_blocks(design: DepthDesign) -> Iterator[tuple[_OrbitBlock, Fraction | float]]:
    """The weighted orbit blocks ``(block, row weight)`` of ``design``'s support, depth ascending.

    Each depth's orbit streams from ``_orbit_order``, and every row of it
    weighs w_d / N_d, a Fraction when w_d is: this is the one place that
    weight is decided, for ``realize_design`` and for CSV plans alike.
    """
    spec = design.spec
    shares = [(d, design.weights[d] / count_pairs(spec, d)) for d in design.support]
    return ((block, share) for d, share in shares for block in _orbit_order(spec, d))
