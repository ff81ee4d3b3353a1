"""Optimal comparison depths per parameter block and D-optimal depth weightings.

Each parameter block is served best by specific depths: the argmax of its
block information over d = 1..S (ties are returned in full).  For the whole
parameter vector the objective log det M = sum_r p_r ln h_r(w) is concave in
the depth weights and depends on them only through h in R^4, so an optimum
needs at most four depths.  On full profiles K = S >= 5 optimize_full returns
the closed-form law of full_profile_design.  Every other spec is solved on
the candidate depths C(S), the law's support at strength S with the four-way
argmax (all four depths at S = 4), one support at a time, each decided by an
exact proof: point masses, pairs with a rational weight and four depths by
kw_certify at tol 0, pairs with an irrational weight by a rational bracket of
it.  Only C(S) itself, when it is three depths, is solved in floats.  At most
one support proves: log det is strictly concave in h, and any five h(d) are
affinely independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .design_space import DepthDesign, ModelSpec
from .equivalence import CertificationReport, _mirror_g0, kw_certify
from .information import _h_denominators, h_numerators

__all__ = [
    "OptimResult",
    "conjectured_design",
    "full_profile_design",
    "optimal_depth_first_order",
    "optimal_depth_main",
    "optimal_depth_second_order",
    "optimal_depth_third_order",
    "optimize_full",
]

_RULE_MAX_STRENGTH = 18


def _strength_of(spec: ModelSpec | int) -> int:
    return spec.strength if isinstance(spec, ModelSpec) else int(spec)


def _argmax_depths(strength: int, block: int) -> set[int]:
    values = [h_numerators(strength, d)[block] for d in range(1, strength + 1)]
    top = max(values)
    return {d for d, v in zip(range(1, strength + 1), values) if v == top}


def optimal_depth_main(spec: ModelSpec | int) -> set[int]:
    """Depths maximizing the main-effects information: always {S}."""
    strength = _strength_of(spec)
    if strength < 1:
        raise ValueError(f"strength must be at least 1, got {strength}")
    return _argmax_depths(strength, 0)


def optimal_depth_first_order(spec: ModelSpec | int) -> set[int]:
    """Depths maximizing the two-way block: S/2, or both nearest when S is odd."""
    strength = _strength_of(spec)
    if strength < 2:
        raise ValueError(
            f"two-way products need at least 2 shown attributes, got strength {strength}"
        )
    return _argmax_depths(strength, 1)


def optimal_depth_second_order(spec: ModelSpec | int) -> set[int]:
    """Depths maximizing the three-way block: {1, 3} for S=3, {S} for S >= 4."""
    strength = _strength_of(spec)
    if strength < 3:
        raise ValueError(
            f"three-way products need at least 3 shown attributes, got strength {strength}"
        )
    return _argmax_depths(strength, 2)


def optimal_depth_third_order(spec: ModelSpec | int) -> set[int]:
    """Depths maximizing the four-way block, symmetric under d <-> S-d.

    The full argmax set is returned; its minimum is the conventional single
    reported depth.
    """
    strength = _strength_of(spec)
    if strength < 4:
        raise ValueError(
            f"four-way products need at least 4 shown attributes, got strength {strength}"
        )
    return _argmax_depths(strength, 3)


def conjectured_design(spec: ModelSpec) -> DepthDesign:
    """Two-depth rational design: d* = floor((S+1)/3), d1* = S+1-d*, w(d*) = d1*/(S+1).

    The rule is exactly optimal (tol-0 certificate) for full profiles K = S
    with 5 <= S <= 18 and raises ValueError elsewhere: it first fails at
    S = 19, and no partial profile K > S satisfies it.  The strength-4
    optimum needs all four depths, with weights 4/15, 2/5, 4/15, 1/15 on
    depths 1..4.  Use full_profile_design or optimize_full outside its range.
    """
    s = spec.strength
    if not 5 <= s <= _RULE_MAX_STRENGTH or spec.n_attributes != s:
        raise ValueError(
            f"the two-depth rule holds only for full profiles K = S with "
            f"5 <= S <= {_RULE_MAX_STRENGTH}, got K={spec.n_attributes} S={s} "
            "(the strength-4 optimum mixes all four depths with weights "
            "4/15, 2/5, 4/15, 1/15); use full_profile_design or optimize_full"
        )
    d_low = (s + 1) // 3
    d_high = s + 1 - d_low
    return DepthDesign(
        {d_low: Fraction(d_high, s + 1), d_high: Fraction(d_low, s + 1)}, spec
    )


def full_profile_design(spec: ModelSpec) -> DepthDesign:
    """The full-profile law: the mirror pair {d, e = S+1-d}, w(d) = e/(S+1), w(e) = d/(S+1).

    With a = 2(S-1)(S-2) and u = x(S+1-x), V(x) - p has the sign of
    (u - de)(g0 - a u), so the design is D-optimal exactly when no attainable u
    lies strictly between de and g0/a: a (d-1)(e+1) <= g0 <= a (d+1)(e-1).
    g0 - a de vanishes at d0 = ((S+1) - sqrt(N/D)) / 2, N = (S-1)(3S^2-13S+20)
    and D = S^2-3S+8, so only d0-1 .. d0+2 are checked, in integers.  Raises
    ValueError unless K = S >= 5 and exactly one passes (exactly one did at
    every S in 5..20000 and at samples up to 10^15).  kw_certify(design,
    tol=0) is the proof.
    """
    s = spec.strength
    if spec.n_attributes != s or s < 5:
        raise ValueError(f"the full-profile law needs K = S >= 5, got K={spec.n_attributes} S={s}")
    a, n, den = 2 * (s - 1) * (s - 2), (s - 1) * (3 * s * s - 13 * s + 20), s * s - 3 * s + 8
    d0 = ((s + 1) * den - math.isqrt(n * den)) // (2 * den)
    passing = [
        d for d in range(max(1, d0 - 1), d0 + 3)
        if 2 * d < s + 1 and a * (d - 1) * (s + 2 - d) <= _mirror_g0(s, d) <= a * (d + 1) * (s - d)
    ]
    if len(passing) != 1:
        raise ValueError(f"the full-profile law passes at depths {passing} for S={s}")
    (d,) = passing
    return DepthDesign({d: Fraction(s + 1 - d, s + 1), s + 1 - d: Fraction(d, s + 1)}, spec)


@dataclass(frozen=True)
class OptimResult:
    """Outcome of one D-optimality run over the depth simplex."""

    design: DepthDesign
    # the kw_certify report of ``design``; its tol is the proof's: 0 for
    # exact weights, the run's ``tol`` for float ones
    report: CertificationReport = field(repr=False, compare=False)

    @property
    def iterations(self) -> int:
        """Always 0: no step of the solve ascends over the depth simplex."""
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        """``design.support``: the depths carrying positive weight."""
        return self.design.support

    @property
    def certified(self) -> bool:
        """``report.certified``: optimal with the support condition."""
        return self.report.certified


def _h_matrix(spec: ModelSpec) -> list[tuple[float, ...]]:
    """Block informations as one float tuple (h_1..h_4)(d) per depth d = 1..S.

    Int true division n / den rounds correctly at any size, as
    float(Fraction(n, den)) does.
    """
    den1, den2, den3, den4 = _h_denominators(spec.n_attributes)
    numerators = (h_numerators(spec.strength, d) for d in spec.depths)
    return [(n1 / den1, n2 / den2, n3 / den3, n4 / den4) for n1, n2, n3, n4 in numerators]


def _solve(matrix: list[list], rhs: list) -> list | None:
    """x with matrix @ x = rhs, or None at a zero pivot: Gauss-Jordan in row order.

    Exact in Fractions.  The four-depth systems of S = 4 need no pivot search.
    """
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for column in range(n):
        if not rows[column][column]:
            return None
        pivot = rows[column] = [v / rows[column][column] for v in rows[column]]
        for i in range(n):
            factor = rows[i][column]
            if i != column and factor:
                rows[i] = [v - factor * u for v, u in zip(rows[i], pivot)]
    return [row[n] for row in rows]


def _slope(p_blocks, h_from, h_to, a: float) -> float:
    """Slope of log det at (1-a) h_from + a h_to, toward h_to: it falls with a."""
    return sum(p * (t - x) / ((1.0 - a) * x + a * t) for p, x, t in zip(p_blocks, h_from, h_to))


def _bisect(rises) -> float:
    """The last float of [0, 1) at which the falling function ``rises`` is still true."""
    low, high = 0.0, 1.0
    while (mid := 0.5 * (low + high)) not in (low, high):
        low, high = (mid, high) if rises(mid) else (low, mid)
    return low


def _bound_holds(spec: ModelSpec, support, low: list[int], den: int) -> bool:
    """sum_r p_r h_r(y) den / low_r <= p at every depth y off ``support``, in integers.

    low_r / den is a lower bound of the design's block r numerator, as in h_numerators.
    """
    total = math.prod(low)
    coefficients = [den * p_r * (total // m) for p_r, m in zip(spec.block_dims, low)]
    limit = spec.n_params * total
    return all(
        sum(c * n for c, n in zip(coefficients, h_numerators(spec.strength, y))) <= limit
        for y in spec.depths
        if y not in support
    )


def _pair_cubic(spec: ModelSpec, d: int, e: int) -> list[int]:
    """Integer coefficients c0..c3 of P(a) = sum_r p_r (t_r - x_r) prod_{q!=r} ((1-a) x_q + a t_q).

    x, t are the h_numerators of d < e, and a is the weight on e.  P is the
    slope of log det along the edge, sum_r p_r (t_r - x_r) / ((1-a) x_r + a t_r),
    times its denominators, so on (0, 1) P has the sign of the falling slope.
    """
    x, t = h_numerators(spec.strength, d), h_numerators(spec.strength, e)
    cubic = [0, 0, 0, 0]
    for r, p_r in enumerate(spec.block_dims):
        term = [p_r * (t[r] - x[r])]
        for q in range(4):
            if q != r:  # times x_q + (t_q - x_q) a
                term = [x[q] * c + (t[q] - x[q]) * b for c, b in zip([*term, 0], [0, *term])]
        cubic = [c + b for c, b in zip(cubic, term)]
    return cubic


def _cubic_at(cubic: list[int], value: Fraction) -> int:
    """P(value) times the cube of value's denominator: an integer with P(value)'s sign."""
    return sum(c * value.numerator**i * value.denominator ** (3 - i) for i, c in enumerate(cubic))


def _pair_bracket(cubic: list[int], start: float) -> tuple[Fraction, Fraction]:
    """(root, root) if P's root next to ``start`` is rational, else its nearest float and the next.

    A rational root u/v has v dividing the leading coefficient L of P over its
    content, and fractions with denominators up to L lie 1/L^2 apart, so Newton
    in integers at 2^-k, far below 1/(2 L^2) and the float spacing, finds it by
    limit_denominator(L).  Else P's exact sign at the nearest float picks the next.
    """
    lead = abs(next(c for c in reversed(cubic) if c)) // math.gcd(*cubic)
    k = 2 * lead.bit_length() + 64 - math.frexp(start)[1]
    m = int(Fraction(start) * (1 << k))
    for _ in range(16):
        value = sum(c * m**i << k * (3 - i) for i, c in enumerate(cubic))
        step = value // sum(i * c * m ** (i - 1) << k * (3 - i) for i, c in enumerate(cubic) if i)
        m -= step
        if not step:
            break
    root = Fraction(m, 1 << k).limit_denominator(lead)
    if _cubic_at(cubic, root) == 0:
        return root, root
    alpha = float(Fraction(m, 1 << k))
    beyond = math.nextafter(alpha, 1.0 if _cubic_at(cubic, Fraction(alpha)) > 0 else 0.0)
    return Fraction(alpha), Fraction(beyond)


def _bracket_proves(spec: ModelSpec, d: int, e: int, lo, hi) -> bool:
    """Prove the optimum on {d < e} D-optimal, with its weight on e in [lo, hi].

    Exact signs P(lo) >= 0 >= P(hi) put the edge's optimum a*, where V(d) =
    V(e) = p, in [lo, hi].  Each h_r is linear in a, so V(y) <= sum_r p_r h_r(y)
    / min(h_r(lo), h_r(hi)) there; that bound at most p at every other depth
    proves a* optimal (Kiefer & Wolfowitz 1960).  lo = hi checks a rational root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    cubic = _pair_cubic(spec, d, e)
    if not (0 < lo <= hi < 1 and any(cubic) and _cubic_at(cubic, lo) >= 0 >= _cubic_at(cubic, hi)):
        return False
    den = math.lcm(lo.denominator, hi.denominator)
    ends = [int(a * den) for a in (lo, hi)]
    x, t = h_numerators(spec.strength, d), h_numerators(spec.strength, e)
    low = [min((den - a) * x_r + a * t_r for a in ends) for x_r, t_r in zip(x, t)]
    return _bound_holds(spec, (d, e), low, den)


def _point_step(spec: ModelSpec, support, h_matrix, tol: float) -> CertificationReport | None:
    """A point mass whose V is at most p off its depth, with its kw_certify report at tol 0."""
    x = h_numerators(spec.strength, support[0])
    if 0 in x or not _bound_holds(spec, support, list(x), 1):
        return None
    return kw_certify(DepthDesign.point_mass(spec, support[0]), tol=0)


def _pair_step(spec: ModelSpec, support, h_matrix, tol: float) -> CertificationReport | None:
    """The optimum on {d, e} if its edge's slope has an interior root whose bracket proves.

    A rational weight is reported at tol 0, an irrational one's float at ``tol``.
    """
    d, e = support
    cubic = _pair_cubic(spec, d, e)
    h_d, h_e = h_matrix[d - 1], h_matrix[e - 1]
    # the slope is +inf at a = 0 when d alone leaves a block empty, and -inf at a = 1 likewise
    if not (any(cubic) and (0 in h_d or cubic[0] > 0) and (0 in h_e or sum(cubic) < 0)):
        return None
    near, far = _pair_bracket(cubic, _bisect(lambda a: _slope(spec.block_dims, h_d, h_e, a) > 0))
    if not _bracket_proves(spec, d, e, min(near, far), max(near, far)):
        return None
    weights = {d: 1 - near, e: near} if near == far else {d: float(1 - near), e: float(near)}
    return kw_certify(DepthDesign(weights, spec), tol=0 if near == far else tol)


def _four_step(spec: ModelSpec, support, h_matrix, tol: float) -> CertificationReport | None:
    """Four depths, exactly: V(d) = sum_r (p_r / h_r) h_r(d) = p at each is linear in the
    p_r / h_r, and the weights follow from h_r = sum_d w_d h_r(d).  Proved at tol 0.
    """
    rows = [[Fraction(n) for n in h_numerators(spec.strength, d)] for d in support]
    inverse_h = _solve(rows, [Fraction(spec.n_params)] * 4)
    if inverse_h is None or min(inverse_h) <= 0:
        return None
    h = [p_r / z for p_r, z in zip(spec.block_dims, inverse_h)]
    weights = _solve([list(column) for column in zip(*rows)], h)
    if weights is None or min(weights) <= 0:
        return None
    report = kw_certify(DepthDesign(dict(zip(support, weights)), spec), tol=0)
    return report if report.certified else None


def _three_step(spec: ModelSpec, support, h_matrix, tol: float) -> CertificationReport:
    """Three depths d1 < d2 < d3 in floats, certified at ``tol``.

    At weight b on d3, d1 and d2 split the rest at the root a of their edge's
    slope; log det there is concave in b with the slope toward d3 as its
    derivative.  Both roots are found by bisection.
    """
    p_blocks, (h1, h2, h3) = spec.block_dims, (h_matrix[d - 1] for d in support)

    def mix(h_from, h_to, a: float) -> list[float]:
        return [(1.0 - a) * x + a * t for x, t in zip(h_from, h_to)]

    def split(b: float) -> float:
        low, high = mix(h1, h3, b), mix(h2, h3, b)
        return _bisect(lambda a: _slope(p_blocks, low, high, a) > 0)

    b = _bisect(lambda b: _slope(p_blocks, mix(h1, h2, split(b)), h3, b) > 0)
    a = split(b)
    weights = dict(zip(support, ((1.0 - a) * (1.0 - b), a * (1.0 - b), b)))
    return kw_certify(DepthDesign(weights, spec), tol=tol)


# support sizes in the order they are tried: the exact steps first
_STEPS = {1: _point_step, 2: _pair_step, 4: _four_step, 3: _three_step}


def _solve_on_candidates(spec: ModelSpec, tol: float) -> CertificationReport:
    """optimize_full off full profiles: the report of the first support in C(S) that proves."""
    s, h_matrix = spec.strength, _h_matrix(spec)
    law = full_profile_design(ModelSpec(s, s)).support if s > 4 else (1, 2, 3, 4)
    candidates = sorted({*law, *optimal_depth_third_order(s)})
    for size, step in _STEPS.items():
        for support in itertools.combinations(candidates, size):
            report = step(spec, support, h_matrix, tol)
            if report is not None:
                return report
    raise ValueError(f"no support in C(S) = {candidates} proves optimal for {spec}")


def optimize_full(spec: ModelSpec, *, tol: float = 1e-9) -> OptimResult:
    """Maximize log det over depth weightings and certify the result.

    Full profiles K = S >= 5 take ``full_profile_design``, the closed-form
    law, with its ``kw_certify`` report at tol 0; every other spec is solved
    on C(S).  ``tol`` is the tolerance of a float result's certificate; a
    float result that fails it is returned with ``certified=False`` and its
    true excess.  A ValueError means that the law or every support inside
    C(S) failed (neither has been seen).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if spec.n_attributes == spec.strength >= 5:
        report = kw_certify(full_profile_design(spec), tol=0)
    else:
        report = _solve_on_candidates(spec, tol)
    return OptimResult(design=report.design, report=report)
