"""Optimal comparison depths per parameter block and D-optimal depth weightings.

Each parameter block is served best by specific depths: the argmax of its
block information over d = 1..S (ties are returned in full).  For the whole
parameter vector the objective log det M = sum_r p_r ln h_r(w) is concave in
the depth weights and depends on them only through h in R^4, so an optimum
needs at most four depths.  On full profiles K = S >= 5 optimize_full
returns the closed-form law of full_profile_design with its tol-0 kw_certify
report and runs nothing else.  Elsewhere it holds an active set of at most
five depths as a {depth index: weight} map, with vertex-direction steps and
a Newton polish, all stopping tests relative to p or |phi|.  Five distinct
depths are affinely independent in h (det[1, h_numerators] is 16384 times
their Vandermonde), so the Newton system is positive definite and is solved
with no pivot search.  Results are certified by kw_certify, the one
equivalence-theorem check: at tol 0 in exact arithmetic when each weight
snaps (limit_denominator(_SNAP_DENOMINATOR)) to a positive rational and the
snapped weights sum to exactly 1, at tol otherwise.  An OptimResult is the
design, that certificate and the iteration count; the excess, the proof's
tol and the verdict are read from the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .design_space import DepthDesign, ModelSpec
from .equivalence import CertificationReport, _mirror_g0, kw_certify, variance_from_blocks
from .information import SingularDesignError, _h_denominators, h_numerators, mix_h

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

_PRUNE_EPS = 1e-8
_LINE_SEARCH_XTOL = 1e-12
_SNAP_DENOMINATOR = 10**4
_FLOAT_RTOL = 1e-12
_PHI_ULPS = 8
_MAX_SUPPORT = 4
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
    iterations: int

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


def _mix(h_matrix: list[tuple[float, ...]], w: dict[int, float]) -> list[float]:
    """h = sum_d w_d h(d), each block summed over the support with one rounding (fsum)."""
    return [math.fsum(h_matrix[j][r] * x for j, x in w.items()) for r in range(4)]


def _phi(h: list[float], p_blocks: list[float]) -> float:
    if min(h) <= 0:
        return -math.inf
    return math.fsum(p * math.log(x) for p, x in zip(p_blocks, h))


def _variances(h: list[float], p_blocks: list[float], columns) -> list[float]:
    """V(d) for each depth's tuple (h_1..h_4)(d): the gradient of phi over the simplex."""
    c1, c2, c3, c4 = (p / x for p, x in zip(p_blocks, h))
    return [c1 * a + c2 * b + c3 * c + c4 * d for a, b, c, d in columns]


def _line_search(h: list[float], h_target, p_blocks: list[float]) -> float:
    """Maximize phi((1-a) h + a h_target) over a in [0, 1] by bisection.

    The section is concave, so its slope falls with a.  a = 1 itself, where a
    target with an empty block would divide by zero, is never evaluated.
    """
    rows = list(zip(p_blocks, h, h_target))

    def slope(a: float) -> float:
        return sum(p * (t - x) / ((1.0 - a) * x + a * t) for p, x, t in rows)

    low, high = 0.0, 1.0
    while high - low > _LINE_SEARCH_XTOL:
        mid = 0.5 * (low + high)
        if slope(mid) > 0.0:
            low = mid
        else:
            high = mid
    return low


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """x with matrix @ x = rhs for a symmetric positive definite matrix, or None.

    Gauss-Jordan elimination in row order: a positive definite matrix needs
    no pivot search.  A zero pivot means the matrix is singular, and gives None.
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


def _newton_on_support(
    h_matrix: list[tuple[float, ...]], p_blocks: list[float], w: dict[int, float]
) -> dict[int, float] | None:
    """Damped Newton polish of phi on the support of ``w``, a {depth index: weight > 0} map.

    Stops once the support variances agree to _FLOAT_RTOL * p; weights pushed
    below _PRUNE_EPS leave the map.  None means the iterate or its Newton
    system is singular.
    """
    p_total = math.fsum(p_blocks)
    for _ in range(200):
        if len(w) <= 1:
            return w
        support = sorted(w)
        h = _mix(h_matrix, w)
        if min(h) <= 0:
            return None
        columns = [h_matrix[j] for j in support]
        variances = _variances(h, p_blocks, columns)
        # the last support depth anchors the simplex constraint
        grad = [v - variances[-1] for v in variances[:-1]]
        if max(abs(g) for g in grad) <= _FLOAT_RTOL * p_total:
            return w
        diffs = [[x - a for x, a in zip(column, columns[-1])] for column in columns[:-1]]
        curvature = [p / (x * x) for p, x in zip(p_blocks, h)]
        scaled = [[x * c for x, c in zip(diff, curvature)] for diff in diffs]
        hessian = [[sum(x * y for x, y in zip(a, b)) for b in scaled] for a in diffs]
        step = _solve(hessian, grad)
        if step is None:
            return None
        direction = dict(zip(support, [*step, -math.fsum(step)]))
        # largest feasible step, halved until phi is within rounding of phi_now
        scale = min([1.0, *(-w[j] / v for j, v in direction.items() if v < 0)])
        phi_now = _phi(h, p_blocks)
        slack = _PHI_ULPS * math.ulp(1.0) * abs(phi_now)
        while scale > 1e-14:
            trial = {j: x + scale * direction[j] for j, x in w.items()}
            total = math.fsum(x for x in trial.values() if x >= _PRUNE_EPS)
            trial = {j: x / total for j, x in trial.items() if x >= _PRUNE_EPS}
            if _phi(_mix(h_matrix, trial), p_blocks) >= phi_now - slack:
                break
            scale /= 2.0
        else:
            return w
        w = trial
    return w


def _snap_to_exact(spec: ModelSpec, kept: dict[int, float]) -> CertificationReport | None:
    """Snap each kept weight to limit_denominator(_SNAP_DENOMINATOR) and certify exactly.

    None unless the snapped weights are all positive and sum to exactly 1,
    and unless their tol-0 certificate proves optimality: V(d) <= p for every
    depth and V(d) = p on the support, in exact arithmetic.
    """
    exact = {d: Fraction(w).limit_denominator(_SNAP_DENOMINATOR) for d, w in kept.items()}
    if min(exact.values()) <= 0 or sum(exact.values()) != 1:
        return None
    design = DepthDesign(exact, spec)
    info = mix_h(design)
    try:
        # V(d) = p on the support first: a miss costs no full profile
        if any(variance_from_blocks(info, d) != spec.n_params for d in exact):
            return None
        report = kw_certify(design, tol=0)
    except SingularDesignError:
        return None
    return report if report.certified else None


def optimize_full(
    spec: ModelSpec, *, tol: float = 1e-9, max_iter: int = 5000
) -> OptimResult:
    """Maximize log det over depth weightings and certify the result.

    Full profiles K = S >= 5 take ``full_profile_design``, the closed-form
    law, with iterations=0 and its ``kw_certify`` report at tol 0; no float
    solve runs, so a rule that raises surfaces as its ``ValueError`` and a
    failed proof as ``certified=False`` (neither has been seen).  Every
    other spec (K > S, and K = S = 4) takes ``_float_solve``, which alone
    reads ``max_iter`` and ``tol``.  The result carries its certificate:
    ``certified``, the max excess and the proof's tol come from it, so a
    result that does not certify (say, because the budget ran out) is
    returned with ``certified=False`` and its true excess, never silently.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if spec.n_attributes == spec.strength >= 5:
        report = kw_certify(full_profile_design(spec), tol=0)
        return OptimResult(design=report.design, report=report, iterations=0)
    return _float_solve(spec, tol=tol, max_iter=max_iter)


def _float_solve(spec: ModelSpec, *, tol: float, max_iter: int) -> OptimResult:
    """optimize_full's float solve: any spec, with its snap and certificate.

    The weights are a {depth index: weight > 0} map.  It starts uniform on
    depths 1..S-1 (depth S alone would start on a singular boundary).  Each
    iteration steps toward the worst-variance depth with an exact line
    search, keeps it and at most _MAX_SUPPORT of the heaviest other depths
    above _PRUNE_EPS (ties to the lower depth), and Newton-polishes on that
    active set of at most five depths (an iterate the polish finds singular
    stays as the step left it), until max_d V(d) - p <= _FLOAT_RTOL * p,
    whatever ``tol`` is, or ``max_iter`` iterations have run.  Weights at
    most _PRUNE_EPS are then dropped.  The result carries exact weights when
    the snap to small rationals passes ``kw_certify`` at tol 0; otherwise the
    pruned float weights go through ``kw_certify`` at ``tol``, its one use.
    The float work runs in plain Python, h, phi and the renormalization as
    correctly rounded sums (``math.fsum``), so a float optimum does not
    depend on the summation order of a linear algebra library.
    """
    s, p = spec.strength, spec.n_params
    h_matrix = _h_matrix(spec)
    p_blocks = [float(n) for n in spec.block_dims]
    w = dict.fromkeys(range(s - 1), 1.0 / (s - 1))
    iterations = 0
    while iterations < max_iter:
        h = _mix(h_matrix, w)
        variances = _variances(h, p_blocks, h_matrix)
        worst = max(variances)
        if worst - p <= _FLOAT_RTOL * p:
            break
        target = variances.index(worst)
        alpha = _line_search(h, h_matrix[target], p_blocks)
        w = {j: x * (1.0 - alpha) for j, x in w.items()}
        w[target] = w.get(target, 0.0) + alpha
        # active set: the depth just stepped toward and the heaviest others (stable sort)
        others = [j for j in sorted(sorted(w), key=w.__getitem__, reverse=True) if j != target]
        active = [target, *(j for j in others[:_MAX_SUPPORT] if w[j] >= _PRUNE_EPS)]
        total = math.fsum(w[j] for j in active)
        w = {j: w[j] / total for j in active if w[j] > 0}
        polished = _newton_on_support(h_matrix, p_blocks, w)
        if polished is not None:
            w = polished
        iterations += 1
    kept = {j + 1: weight for j, weight in sorted(w.items()) if weight > _PRUNE_EPS}
    report = _snap_to_exact(spec, kept)
    if report is None:
        total = sum(kept.values())
        floats = DepthDesign({d: weight / total for d, weight in kept.items()}, spec)
        report = kw_certify(floats, tol=tol)
    design = report.design
    if report.certified:
        # V(d) - p is a quartic in d, so a true optimum weights at most four depths
        assert len(design.support) <= _MAX_SUPPORT, (
            f"certified design on {len(design.support)} depths; "
            "at most four can satisfy the support condition"
        )
    return OptimResult(design=design, report=report, iterations=iterations)
