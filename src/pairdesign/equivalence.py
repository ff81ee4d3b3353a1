"""The closed forms: block informations h1..h4, the variance function V(d), the certificate.

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
SingularDesignError naming the dead blocks.

For an invariant design with block informations h1..h4 the normalized
prediction variance of a pair depends on the pair only through its comparison
depth.  It is the gradient of log det M = sum_r p_r ln h_r towards the depth-d
orbit,

    V(d) = sum_r p_r h_r(d) / h_r,

with h_r(d) the block informations of that orbit alone; the optimizer steps
on the same formula.  Written out with the h_r(d) above it is the paper's
display

    V(d) = 4d ( 1/h1 + (S-d)/h2 + (3S^2 - 6dS + 4d^2 - 3S + 2) / (6 h3)
                + (S-d)(2d^2 - 2Sd + S^2 - 3S + 4) / (6 h4) )

which ``variance_uniform`` keeps, for point masses, as an independent check.

By the Kiefer-Wolfowitz equivalence theorem a design is D-optimal exactly when
V(d) <= p for every depth, with equality at every depth it actually weights.
The certificate below holds the design it checked and reports the worst
excess max_d V(d) - p, read off the profile's one max; ``certified`` is its
one verdict, optimal with the support condition.  ``kw_certify`` alone picks
the tolerance: exact weights are checked at tol 0, in exact arithmetic, so a
verdict of "optimal" is a proof, not an approximation; float weights are
certified at 1e-9 relative to p.  A design with some h_r = 0 is neither: it
raises the one SingularDesignError.

On full profiles K = S >= 5 the optimum is the law of ``full_profile_design``,
a mirror pair {d, e = S+1-d} weighted e/(S+1) on d and d/(S+1) on e, and on
that family the profile factors, with u = x(S+1-x), a = 2(S-1)(S-2) and g0,
q(d) > 0 the integer polynomials in S and d of ``_mirror_g0`` and
``_mirror_law_values``:

    V(x) - p = S(S+1) (u - de) (g0 - a u) / (24 d e q(d)).

``TestMirrorLaw.test_mirror_law_identity`` proves it for every S, d and x,
and the law's integer condition is read off it.  Only ``BlockInfo.as_matrix``
imports numpy; the brute-force layer ``oracle`` checks h and V pair by pair.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .design_space import DepthDesign, ModelSpec, Weight

__all__ = [
    "BlockInfo",
    "CertificationReport",
    "SingularDesignError",
    "VarianceProfile",
    "full_profile_design",
    "h_numerators",
    "h_values",
    "is_identifiable",
    "kw_certify",
    "log_det",
    "mix_h",
    "variance_from_blocks",
    "variance_profile",
    "variance_uniform",
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


# the certificate tolerance, relative to p, of a design with float weights
_FLOAT_TOL = 1e-9


def _gradient_coefficients(info: BlockInfo) -> tuple[Weight, ...]:
    """c_r = p_r / (den_r h_r), so that V(d) = sum_r c_r h_numerators(S, d)[r]."""
    _require_identifiable(info)
    dens = _h_denominators(info.spec.n_attributes)
    return tuple(
        p / (den * h) for p, den, h in zip(info.spec.block_dims, dens, info.values)
    )


def _dot(coefficients: tuple[Weight, ...], numerators: tuple[int, ...]) -> Weight:
    return sum(c * n for c, n in zip(coefficients, numerators))


def variance_from_blocks(info: BlockInfo, depth: int) -> Weight:
    """V(depth) for a design with the given block informations.

    Exact when the h values are exact.  Depth 0 is the degenerate identical
    pair and evaluates to 0 by convention.
    """
    numerators = h_numerators(info.spec.strength, depth)
    if depth == 0:
        return 0
    return _dot(_gradient_coefficients(info), numerators)


@dataclass(frozen=True)
class VarianceProfile:
    """Variance function of an invariant design, tabulated over depths 1..S."""

    values: dict[int, Weight]
    p: int
    max_value: Weight = field(init=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("empty variance profile")
        object.__setattr__(self, "max_value", max(self.values.values()))

    def normalized(self) -> dict[int, float]:
        """V(d)/p per depth, as floats."""
        return {d: float(v) / self.p for d, v in self.values.items()}


def _mirror_g0(s: int, d: int) -> int:
    """g0 of the factored identity for the mirror pair {d, S+1-d} at K = S."""
    return (
        s**4 - 2 * s**3 * d - 4 * s**3 + 2 * s**2 * d**2 + 4 * s**2 * d + 19 * s**2
        - 6 * s * d**2 - 22 * s * d - 20 * s + 28 * d**2 - 28 * d + 28
    )


def full_profile_design(spec: ModelSpec) -> DepthDesign:
    """The full-profile law: the mirror pair {d, e = S+1-d}, w(d) = e/(S+1), w(e) = d/(S+1).

    By the module docstring's identity, with a = 2(S-1)(S-2) and u = x(S+1-x),
    V(x) - p has the sign of (u - de)(g0 - a u), so the design is D-optimal
    exactly when no attainable u lies strictly between de and g0/a:
    a (d-1)(e+1) <= g0 <= a (d+1)(e-1).
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


def _mirror_law_values(design: DepthDesign) -> dict[int, Fraction] | None:
    """V at every depth by the factored identity, or None outside the mirror-pair family."""
    spec, s, support = design.spec, design.spec.strength, design.support
    if not (design.is_exact and spec.n_attributes == s and len(support) == 2):
        return None
    d, e = support
    if d + e != s + 1 or design.weights[d] * (s + 1) != e or design.weights[e] * (s + 1) != d:
        return None
    a, de, g0 = 2 * (s - 1) * (s - 2), d * e, _mirror_g0(s, d)
    den = 24 * de * (s**2 - 2 * s * d - s + 2 * d**2 - 2 * d + 2)  # 24 d e q(d)
    base, scale = spec.n_params * den, s * (s + 1)
    # u = x(S+1-x), so V(S+1-x) = V(x): only x <= ceil(S/2) is evaluated
    half = [
        Fraction(base + scale * ((u := x * (s + 1 - x)) - de) * (g0 - a * u), den)
        for x in range(1, (s + 1) // 2 + 1)
    ]
    return {x: half[min(x, s + 1 - x) - 1] for x in spec.depths}


def variance_profile(design: DepthDesign) -> VarianceProfile:
    """Evaluate the variance function of an invariant design at every depth.

    An exact K = S mirror design takes the module docstring's factored identity.
    """
    spec = design.spec
    values = _mirror_law_values(design)
    if values is None:
        coefficients = _gradient_coefficients(mix_h(design))
        values = {d: _dot(coefficients, h_numerators(spec.strength, d)) for d in spec.depths}
    return VarianceProfile(values=values, p=spec.n_params)


def variance_uniform(depth: int, design_depth: int, spec: ModelSpec) -> Fraction:
    """Variance at one depth under the uniform design on a single depth.

    Closed form in the block sizes alone:

        V(d) = (d/d') ( p1 + p2 (S-d)/(S-d')
                        + p3 q3(d)/q3(d') + p4 (S-d) q4(d) / ((S-d') q4(d')) )

    with q3, q4 the cubic and quartic depth factors of the h values.  This is
    an independent route to the same number as ``variance_profile`` of a point
    mass and is always exact.
    """
    s = spec.strength
    d, dd = int(depth), int(design_depth)
    for name, value in (("depth", d), ("design depth", dd)):
        if not 1 <= value <= s:
            raise ValueError(f"{name} must lie in 1..{s}, got {value}")
    _require_identifiable(h_values(spec, dd))
    p1, p2, p3, p4 = spec.block_dims

    def q3(x: int) -> int:
        return 3 * s * s - 6 * x * s + 4 * x * x - 3 * s + 2

    def q4(x: int) -> int:
        return 2 * x * x - 2 * s * x + s * s - 3 * s + 4

    return Fraction(d, dd) * (
        p1
        + p2 * Fraction(s - d, s - dd)
        + p3 * Fraction(q3(d), q3(dd))
        + p4 * Fraction((s - d) * q4(d), (s - dd) * q4(dd))
    )


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the equivalence-theorem check for the invariant design it holds."""

    design: DepthDesign
    profile: VarianceProfile
    tol: float
    max_excess: Weight
    optimal: bool
    support_ok: bool

    @property
    def p(self) -> int:
        return self.profile.p

    @property
    def certified(self) -> bool:
        """Optimal and the support condition holds: the theorem's whole verdict."""
        return self.optimal and self.support_ok

    @property
    def verdict(self) -> str:
        return "optimal" if self.optimal else "not optimal"

    def to_dict(self) -> dict:
        spec = self.design.spec
        return {
            "K": spec.n_attributes,
            "S": spec.strength,
            "weights": {str(d): float(w) for d, w in self.design.weights.items()},
            "V_by_depth": {str(d): float(v) for d, v in self.profile.values.items()},
            "p": self.p,
            "max_excess": float(self.max_excess),
            # JSON holds an int or a float as it is, any other tol as its exact text ("1/3")
            "tol": self.tol if isinstance(self.tol, (int, float)) else str(self.tol),
            "verdict": self.verdict,
            "support_ok": self.support_ok,
        }

    def to_text(self) -> str:
        """Human-readable block: normalized variances with supported depths starred."""
        spec, support = self.design.spec, set(self.design.support)
        normalized = self.profile.normalized()
        header = "depth " + "".join(f"{d:>9d}" for d in sorted(normalized))
        row = "V/p   " + "".join(
            f"{normalized[d]:>8.3f}{'*' if d in support else ' '}"
            for d in sorted(normalized)
        )
        lines = [
            f"K={spec.n_attributes} S={spec.strength} p={self.p}",
            header,
            row,
            f"max excess: {float(self.max_excess):.3e} (tol {_format_g(self.tol)} relative to p)",
            f"verdict: {self.verdict}"
            + ("" if self.support_ok else " (support condition violated)"),
        ]
        return "\n".join(lines)


def _format_g(value: Weight) -> str:
    """A finite real as ``:g`` prints a float, also past the float range (1e+400)."""
    try:
        return f"{float(value):g}"
    except OverflowError:
        fraction = Fraction(value)
        quotient = decimal.Context(prec=6).divide(fraction.numerator, fraction.denominator)
        return f"{quotient.normalize():g}"


def kw_certify(design: DepthDesign, *, tol: float | None = None) -> CertificationReport:
    """Certify D-optimality of an invariant design.

    Optimal means max_d V(d) - p <= tol * p over all depths 1..S, in exact
    arithmetic for exact weights; the support condition asks every weighted
    depth to sit within tol * p of p; ``certified`` asks for both.  With no
    ``tol`` exact weights are proved at tol 0 and float weights certified at
    1e-9; an explicit ``tol`` must be a finite real number at least 0, not a
    bool (ValueError otherwise), and -0.0 is held as 0.0.  Singular designs
    raise SingularDesignError, they are neither optimal nor suboptimal.
    """
    if tol is None:
        tol = 0 if design.is_exact else _FLOAT_TOL
    elif (
        isinstance(tol, bool)
        or not isinstance(tol, numbers.Real)
        # an int or Fraction is finite, though math.isfinite overflows past 1e308
        or not (isinstance(tol, numbers.Rational) or math.isfinite(tol))
        or tol < 0
    ):
        raise ValueError(f"tol must be a finite number at least 0, got {tol!r}")
    else:
        tol += 0  # -0.0 becomes 0.0
    profile = variance_profile(design)
    p = design.spec.n_params
    max_excess = profile.max_value - p
    # exact designs compare exactly: float() rounds an excess below 5e-324 to 0
    bound = Fraction(tol) * p if design.is_exact else tol * p
    optimal = max_excess <= bound
    support_ok = all(abs(profile.values[d] - p) <= bound for d in design.support)
    return CertificationReport(
        design=design,
        profile=profile,
        tol=tol,
        max_excess=max_excess,
        optimal=optimal,
        support_ok=support_ok,
    )
