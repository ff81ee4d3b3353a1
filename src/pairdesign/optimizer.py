"""Optimal comparison depths per parameter block and D-optimal depth weightings.

Each parameter block is served best by specific depths: the argmax of its
block information over d = 1..S (ties are returned in full).  For the whole
parameter vector the objective log det M = sum_r p_r ln h_r(w) is concave in
the depth weights and depends on them only through h in R^4, so an optimum
needs at most four depths.  On full profiles K = S >= 5 optimize_full returns
the closed-form law ``equivalence.full_profile_design``, which sits beside
the identity that proves it.  Every other spec is solved here, on the
candidate depths C(S), the law's support at strength S with the four-way
argmax (all four depths at S = 4), one support at a time, each decided by one
integer check: V(y) = sum_r z_r h_numerators(S, y)[r] <= p off the support for
an upper bound of the design's dual z.  A pair's or a triple's optimum is the
root of one integer cubic, exact when rational, else bracketed by two adjacent
floats.  At most one support proves: log det is strictly concave in h, and
any five h(d) are affinely independent.  The result of ``optimize_full`` is
the optimum's ``kw_certify`` report, which holds the design.  The paper's
two-depth rule ``conjectured_design`` stays beside it, with the range where
it holds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .design_space import DepthDesign, ModelSpec, integral
from .equivalence import CertificationReport, full_profile_design, h_numerators, kw_certify

__all__ = [
    "conjectured_design",
    "optimal_depth_first_order",
    "optimal_depth_main",
    "optimal_depth_second_order",
    "optimal_depth_third_order",
    "optimize_full",
]

_RULE_MAX_STRENGTH = 18


def _strength_of(spec: ModelSpec | int) -> int:
    return spec.strength if isinstance(spec, ModelSpec) else integral(spec, "strength")


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


def _det(m: list[list]):
    """Determinant by Laplace expansion along the first row, exact for ints and Fractions."""
    if not m:
        return 1
    return sum(
        (-1) ** j * v * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, v in enumerate(m[0])
    )


def _solve(matrix: list[list], rhs: list) -> list | None:
    """x with matrix @ x = rhs by Cramer's rule, or None when singular; exact without floats."""
    det = _det(matrix)
    if not det:
        return None
    return [
        _det([[*row[:i], b, *row[i + 1 :]] for row, b in zip(matrix, rhs)]) / Fraction(det)
        for i in range(len(rhs))
    ]


def _bound_holds(spec: ModelSpec, support, z) -> bool:
    """V(y) = sum_r z_r n_r(y) <= p at every depth y off ``support``, in integers.

    n = h_numerators, and each rational z_r bounds the design's dual p_r / N_r
    from above, N_r = sum_d w_d n_r(d).
    """
    den = math.lcm(*(z_r.denominator for z_r in z))
    coefficients = [z_r.numerator * (den // z_r.denominator) for z_r in z]
    limit = spec.n_params * den
    return all(
        sum(c * n for c, n in zip(coefficients, h_numerators(spec.strength, y))) <= limit
        for y in spec.depths
        if y not in support
    )


def _edge_cubic(p_blocks, x, t) -> list[int]:
    """Integer coefficients c0..c3 of P(a) = sum_r p_r (t_r - x_r) prod_{q!=r} ((1-a) x_q + a t_q).

    On (0, 1), for x, t >= 0, P has the sign of the slope sum_r p_r (t_r - x_r) /
    ((1-a) x_r + a t_r); rational x, t give a P scaled here to integers.
    """
    cubic = [0, 0, 0, 0]
    for r, p_r in enumerate(p_blocks):
        term = [p_r * (t[r] - x[r])]
        for q in range(4):
            if q != r:  # times x_q + (t_q - x_q) a
                term = [x[q] * c + (t[q] - x[q]) * b for c, b in zip([*term, 0], [0, *term])]
        cubic = [c + b for c, b in zip(cubic, term)]
    scale = math.lcm(*(c.denominator for c in cubic))
    return [c.numerator * (scale // c.denominator) for c in cubic]


def _cubic_at(cubic: list[int], value: Fraction | float) -> int:
    """P(value) times the cube of value's denominator: an integer with P(value)'s sign."""
    (c0, c1, c2, c3), (u, v) = cubic, value.as_integer_ratio()
    return ((c3 * u + c2 * v) * u + c1 * v * v) * u + c0 * v * v * v


def _root_bracket(cubic: list[int]) -> tuple[Fraction, Fraction]:
    """(root, root) if P's falling root in (0, 1) is rational, else its nearest float and the next.

    Bisection on P's exact sign starts Newton's method in integers at 2^-k.  A
    rational root u/v has v dividing the leading coefficient L of P over its
    content, and fractions with denominators up to L lie 1/L^2 apart, so at 2^-k
    far below 1/(2 L^2) limit_denominator(L) finds it.  Else P's sign picks the next.
    """
    low, high = 0.0, 1.0
    while (mid := 0.5 * (low + high)) not in (low, high):
        low, high = (mid, high) if _cubic_at(cubic, mid) > 0 else (low, mid)
    lead = abs(next(c for c in reversed(cubic) if c)) // math.gcd(*cubic)
    k = 2 * lead.bit_length() + 64 - math.frexp(low)[1]
    m = int(Fraction(low) * (1 << k))
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


def _edge(spec: ModelSpec, support):
    """(x, t, cubic, at) of the segment on which a pair's or triple's optimum is the cubic's root.

    ``at(a)`` gives the dual z and, per depth, the terms that sum to its
    weight; each is monotone in a.  A pair {d, e} walks N(a) = (1-a) n(d) +
    a n(e) with z = p / N, and the cubic is the slope of log det.  A triple's z
    lies on the line V(d_i) = sum_r z_r n_r(d_i) = p.  Each nonzero 3 x 3 minor
    gives, by Cramer's rule, the point where z_r = 0; the two with z >= 0 end
    the positive part, z(a) = (1-a) x + a t.  The cubic is the slope of
    sum_r p_r ln z_r: at its root p / z lies in the span of the n(d_i), so the
    weights that give three blocks N_r = p_r / z_r give the fourth.  None when
    the positive part is not a segment.
    """
    p_blocks, rows = spec.block_dims, [h_numerators(spec.strength, d) for d in support]
    if len(support) == 2:
        x, t = rows

        def at(a):
            n = [(1 - a) * x_r + a * t_r for x_r, t_r in zip(x, t)]
            return [p_r / n_r for p_r, n_r in zip(p_blocks, n)], [[1 - a], [a]]

        return x, t, _edge_cubic(p_blocks, x, t), at
    ends = []
    for r in range(4):
        others = [q for q in range(4) if q != r]
        end = _solve([[row[q] for q in others] for row in rows], [spec.n_params] * 3)
        if end is not None:  # a nonzero minor: its blocks' equations fix the weights too
            blocks = others
            end.insert(r, Fraction(0))
            ends += [end] if min(end) >= 0 and end not in ends else []
    # a bounded positive part, inside no face z_q = 0
    if len(ends) != 2 or 0 in map(sum, zip(*ends)):
        return None
    x, t = ends
    columns = [[row[q] for row in rows] for q in blocks]
    inverse = [_solve(columns, [int(i == j) for i in range(3)]) for j in range(3)]

    def at(a):
        z = [(1 - a) * x_r + a * t_r for x_r, t_r in zip(x, t)]
        return z, [[c[i] * p_blocks[q] / z[q] for c, q in zip(inverse, blocks)] for i in range(3)]

    return x, t, _edge_cubic(p_blocks, x, t), at


def _bracket_proves(spec: ModelSpec, support, edge, lo, hi) -> bool:
    """Prove the optimum on a pair or triple D-optimal, given its ``_edge`` and root a* in [lo, hi].

    Exact signs P(lo) >= 0 >= P(hi) put a* there.  Each z_r is monotone in a, so
    V(y) <= sum_r max(z_r(lo), z_r(hi)) n_r(y), and each weight is at least the sum of
    its terms' minima at lo and hi.  Positive weights and that bound at most p off
    the support prove a* optimal (Kiefer & Wolfowitz 1960).  lo = hi: a rational root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    _, _, cubic, at = edge
    if not (0 < lo <= hi < 1 and any(cubic) and _cubic_at(cubic, lo) >= 0 >= _cubic_at(cubic, hi)):
        return False
    (z_lo, w_lo), (z_hi, w_hi) = at(lo), at(hi)
    if min(sum(map(min, low, high)) for low, high in zip(w_lo, w_hi)) <= 0:
        return False
    return _bound_holds(spec, support, list(map(max, z_lo, z_hi)))


def _point_step(spec: ModelSpec, support) -> DepthDesign | None:
    """A point mass, if z_r = p_r / n_r(d) bounds V by p off its depth."""
    x = h_numerators(spec.strength, support[0])
    if 0 in x or not _bound_holds(spec, support, list(map(Fraction, spec.block_dims, x))):
        return None
    return DepthDesign.point_mass(spec, support[0])


def _edge_step(spec: ModelSpec, support) -> DepthDesign | None:
    """The optimum on a pair or triple: exact at a rational root, else floats at its nearest."""
    edge = _edge(spec, support)
    if edge is None:
        return None
    x, t, cubic, at = edge
    # the slope is +inf at a = 0 when x leaves a block empty, and -inf at a = 1 likewise
    if not (any(cubic) and (0 in x or cubic[0] > 0) and (0 in t or sum(cubic) < 0)):
        return None
    near, far = _root_bracket(cubic)
    if not _bracket_proves(spec, support, edge, min(near, far), max(near, far)):
        return None
    weights = [sum(terms) for terms in at(near)[1]]
    return DepthDesign(dict(zip(support, weights if near == far else map(float, weights))), spec)


def _four_step(spec: ModelSpec, support) -> DepthDesign | None:
    """Four depths: V(d) = sum_r z_r n_r(d) = p at each fixes z, and N_r = p_r / z_r the weights."""
    rows = [h_numerators(spec.strength, d) for d in support]
    z = _solve(rows, [spec.n_params] * 4)
    if z is None or min(z) <= 0:
        return None
    numerators = [p_r / z_r for p_r, z_r in zip(spec.block_dims, z)]
    weights = _solve(list(zip(*rows)), numerators)
    if min(weights) <= 0 or not _bound_holds(spec, support, z):
        return None
    return DepthDesign(dict(zip(support, weights)), spec)


# support sizes in the order tried, each step a proof by _bound_holds; the costliest last
_STEPS = {1: _point_step, 2: _edge_step, 4: _four_step, 3: _edge_step}


def _solve_on_candidates(spec: ModelSpec) -> DepthDesign:
    """optimize_full off full profiles: the design on the first support in C(S) that proves."""
    s = spec.strength
    law = full_profile_design(ModelSpec(s, s)).support if s > 4 else (1, 2, 3, 4)
    candidates = sorted({*law, *optimal_depth_third_order(s)})
    for size, step in _STEPS.items():
        for support in itertools.combinations(candidates, size):
            design = step(spec, support)
            if design is not None:
                return design
    raise ValueError(f"no support in C(S) = {candidates} proves optimal for {spec}")


def optimize_full(spec: ModelSpec) -> CertificationReport:
    """Maximize log det over depth weightings; the result is the optimum's certificate.

    Full profiles K = S >= 5 take ``full_profile_design``, the closed-form
    law; every other spec is solved on C(S).  The result is ``kw_certify(design)``
    at its default: tol 0 for exact weights, 1e-9 for the floats of an irrational
    optimum; its ``design``, ``support`` and ``certified`` are read off it.
    A ValueError means that the law or every support in C(S) failed (never seen).
    """
    if spec.n_attributes == spec.strength >= 5:
        design = full_profile_design(spec)
    else:
        design = _solve_on_candidates(spec)
    return kw_certify(design)
