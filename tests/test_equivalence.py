"""Variance functions, trace identities and the optimality certificate."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairdesign import (
    DenseInfo,
    DepthDesign,
    ModelSpec,
    SingularDesignError,
    enumerate_orbit,
    full_profile_design,
    h_values,
    kw_certify,
    mix_h,
    optimize_full,
    realize_design,
    variance_exact,
    variance_profile,
    variance_sweep_max_deviation,
    variance_uniform,
)
from pairdesign import equivalence, oracle
from pairdesign.oracle import _pair_variances, info_matrix_exact


def swept_pairs(info):
    """``_pair_variances`` as {(depth, unordered pair of level tuples): variance}.

    A pair met twice fails, so the dict holds each swept unordered pair once.
    """
    spec = info.spec
    subsets = list(itertools.combinations(range(spec.n_attributes), spec.strength))

    def levels(subset, pattern):
        row = [0] * spec.n_attributes
        for j, attribute in enumerate(subset):
            row[attribute] = 1 if pattern >> j & 1 else -1
        return tuple(row)

    swept = {}
    for depth, batch, firsts, seconds, values in _pair_variances(info):
        for subset, row in zip([subsets[c] for c in batch], values.tolist(), strict=True):
            for x, y, value in zip(firsts.tolist(), seconds.tolist(), row):
                key = depth, frozenset((levels(subset, x), levels(subset, y)))
                assert key not in swept
                swept[key] = value
    return swept


def check_pair_variances(design, info, depths):
    """Each swept variance against ``variance_exact`` of both orders.

    Every ordered pair of ``depths`` must meet its unordered pair in the sweep
    and no other pair of these depths may be swept.  Returns the brute-force
    max |variance - closed form| over these depths.
    """
    spec = info.spec
    explicit = realize_design(design)
    swept = swept_pairs(info)
    closed = variance_profile(design)
    solved, looked_up = [], []
    for depth in depths:
        for pair in enumerate_orbit(spec, depth):
            solved.append(variance_exact(pair, explicit, info) - float(closed.values[depth]))
            key = depth, frozenset((pair.first.levels, pair.second.levels))
            looked_up.append(swept[key] - float(closed.values[depth]))
    assert 2 * sum(depth in depths for depth, _ in swept) == len(solved)
    # same quadratic forms by another factorization: float64 rounding only
    np.testing.assert_allclose(looked_up, solved, rtol=1e-12, atol=1e-12 * spec.n_params)
    return max(abs(value) for value in solved)


def random_spd_info(spec, seed):
    """A well-conditioned SPD oracle matrix with no symmetry of the design region."""
    a = np.random.default_rng(seed).standard_normal((spec.n_params, spec.n_params))
    m = a @ a.T + spec.n_params * np.eye(spec.n_params)
    return DenseInfo(entries=(m + m.T) / 2, spec=spec)


def four_depth_optimum(spec44):
    return DepthDesign(
        {1: Fraction(4, 15), 2: Fraction(2, 5), 3: Fraction(4, 15), 4: Fraction(1, 15)},
        spec44,
    )


class TestVarianceProfile:
    def test_constant_fifteen(self, spec44):
        profile = variance_profile(four_depth_optimum(spec44))
        assert profile.values == {1: 15, 2: 15, 3: 15, 4: 15}

    def test_k5_two_depth_row(self, spec55):
        design = DepthDesign({2: Fraction(2, 3), 4: Fraction(1, 3)}, spec55)
        profile = variance_profile(design)
        normalized = [round(float(v) / 30, 3) for _, v in sorted(profile.values.items())]
        assert normalized == [0.938, 1.0, 0.938, 1.0, 0.938]
        assert profile.values[2] == 30
        assert profile.values[4] == 30

    def test_k8_two_depth_row(self):
        spec = ModelSpec(8, 8)
        design = DepthDesign({3: Fraction(2, 3), 6: Fraction(1, 3)}, spec)
        profile = variance_profile(design)
        normalized = [
            round(float(v) / spec.n_params, 3) for _, v in sorted(profile.values.items())
        ]
        assert normalized == [0.759, 0.998, 1.0, 0.954, 0.954, 1.0, 0.998, 0.759]

    def test_singular_raises(self, spec44):
        with pytest.raises(SingularDesignError):
            variance_profile(DepthDesign.point_mass(spec44, 4))

    def test_trace_identity_random(self):
        rng = np.random.default_rng(20240907)
        for _ in range(100):
            k = int(rng.integers(4, 13))
            s = int(rng.integers(4, k + 1))
            spec = ModelSpec(k, s)
            raw = rng.dirichlet(np.ones(s))
            weights = {d + 1: float(w) for d, w in enumerate(raw)}
            design = DepthDesign(weights, spec)
            profile = variance_profile(design)
            total = sum(
                float(w) * float(profile.values[d]) for d, w in design.weights.items()
            )
            assert abs(total - spec.n_params) <= 1e-9


def dot_product(info, x):
    """V(x) = sum_r p_r h_r(x) / h_r, from ``h_values`` and the mixture's h: the reference path."""
    own = h_values(info.spec, x).values
    return sum(p * h_x / h for p, h_x, h in zip(info.spec.block_dims, own, info.values))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_profile_matches_paper_display(data):
    """The gradient form equals the paper's expanded q3/q4 display on exact mixtures."""
    k = data.draw(st.integers(4, 14))
    s = data.draw(st.integers(4, k))
    counts = data.draw(st.lists(st.integers(0, 9), min_size=s, max_size=s))
    assume(sum(counts) > 0)
    spec = ModelSpec(k, s)
    design = DepthDesign(
        {d: Fraction(c, sum(counts)) for d, c in enumerate(counts, start=1) if c}, spec
    )
    info = mix_h(design)
    assume(not info.is_singular)
    h1, h2, h3, h4 = info.values
    profile = variance_profile(design)
    for d in spec.depths:
        q3 = 3 * s * s - 6 * d * s + 4 * d * d - 3 * s + 2
        q4 = 2 * d * d - 2 * s * d + s * s - 3 * s + 4
        display = (4 * d) * (
            1 / h1 + (s - d) / h2 + q3 / (6 * h3) + (s - d) * q4 / (6 * h4)
        )
        assert profile.values[d] == display
        assert dot_product(info, d) == display


def law_design(s, d):
    """The full-profile law design on {d, S+1-d}: weight (S+1-d)/(S+1) on d."""
    e = s + 1 - d
    return DepthDesign({d: Fraction(e, s + 1), e: Fraction(d, s + 1)}, ModelSpec(s, s))


def dot_values(design, depths):
    """V(x) by ``dot_product``, at each of ``depths``."""
    info = mix_h(design)
    return {x: dot_product(info, x) for x in depths}


class TestMirrorLaw:
    def test_mirror_law_identity(self):
        # Multiplied by 24 d e q(d) prod_r (e n_r(d) + d n_r(e)), n_r = h_numerators,
        # the factored form minus the dot product is a polynomial of degree at most
        # 17 in S, 14 in d and 4 in x.  It vanishes on this grid of 18 x 15 x 5
        # points (every point a law design with d < e), so it vanishes identically:
        # the two forms agree at every S, d and x.
        for s in range(30, 48):
            for d in range(1, 16):
                design = law_design(s, d)
                law = equivalence._mirror_law_values(design)
                assert law == variance_profile(design).values
                assert {x: law[x] for x in range(1, 6)} == dot_values(design, range(1, 6))

    @pytest.mark.parametrize(
        "s,d", [(4, 1), (4, 2), (200, 88), (600, 279), (1000, 473)]
    )
    def test_full_profiles_match_the_dot_product(self, s, d):
        design = law_design(s, d)
        law = equivalence._mirror_law_values(design)
        assert law == dot_values(design, design.spec.depths)
        assert list(law) == list(design.spec.depths)

    def test_mirrored_half_matches_the_dot_product(self):
        # only x <= ceil(S/2) is evaluated; odd S has a middle depth of its own
        for s in range(5, 120):
            for d in sorted({1, full_profile_design(ModelSpec(s, s)).support[0]}):
                design = law_design(s, d)
                values = variance_profile(design).values
                assert list(values.items()) == list(dot_values(design, design.spec.depths).items())

    def test_law_designs_skip_the_dot_product(self, monkeypatch):
        def refuse(info):
            raise AssertionError("the dot product ran on a law design")

        monkeypatch.setattr(equivalence, "_gradient_coefficients", refuse)
        assert kw_certify(law_design(1000, 473), tol=0).certified

    @pytest.mark.parametrize(
        "k,s,weights",
        [
            (7, 7, {2: 0.75, 6: 0.25}),  # the law's weights, but floats
            (8, 7, {2: Fraction(3, 4), 6: Fraction(1, 4)}),  # K = S + 1
            (7, 7, {2: Fraction(1, 2), 6: Fraction(1, 2)}),  # not the law's weights
            (7, 7, {2: Fraction(3, 4), 5: Fraction(1, 4)}),  # not a mirror pair
        ],
    )
    def test_other_designs_keep_the_dot_product(self, k, s, weights):
        design = DepthDesign(weights, ModelSpec(k, s))
        assert equivalence._mirror_law_values(design) is None
        values = variance_profile(design).values
        assert values == dot_values(design, design.spec.depths)
        assert all(type(v) is type(values[1]) for v in values.values())
        assert isinstance(values[1], float) == (not design.is_exact)


class TestVarianceUniform:
    @pytest.mark.parametrize("k,s", [(4, 4), (5, 5), (6, 5), (8, 8)])
    def test_own_depth_gives_p(self, k, s):
        spec = ModelSpec(k, s)
        for d in range(1, s + 1):
            if h_values(spec, d).is_singular:
                continue
            assert variance_uniform(d, d, spec) == spec.n_params

    def test_matches_point_mass_profile(self):
        for k in (5, 6, 7, 8):
            spec = ModelSpec(k, k)
            for dd in range(1, k + 1):
                try:
                    profile = variance_profile(DepthDesign.point_mass(spec, dd))
                except SingularDesignError:
                    with pytest.raises(SingularDesignError):
                        variance_uniform(1, dd, spec)
                    continue
                for d in range(1, k + 1):
                    assert variance_uniform(d, dd, spec) == profile.values[d]

    def test_extrapolation_example(self, spec55):
        profile = variance_profile(DepthDesign.point_mass(spec55, 1))
        assert variance_uniform(5, 1, spec55) == profile.values[5]

    def test_dead_quartic_depth_single(self, spec44):
        # 2 d'^2 - 2 S d' + S^2 - 3S + 4 = 0 at S=4, d'=2
        with pytest.raises(SingularDesignError):
            variance_uniform(1, 2, spec44)

    def test_range_validation(self, spec44):
        with pytest.raises(ValueError):
            variance_uniform(0, 1, spec44)
        with pytest.raises(ValueError):
            variance_uniform(1, 5, spec44)

    def test_non_integral_depth_is_refused_not_truncated(self, spec55):
        # truncation would read 2.5 as depth 2: V(2) = 75/2
        with pytest.raises(ValueError, match="depth must be an integer, got 2.5"):
            variance_uniform(2.5, 1, spec55)
        with pytest.raises(ValueError, match="design depth must be an integer, got 1.5"):
            variance_uniform(2, 1.5, spec55)
        with pytest.raises(ValueError, match="depth must be an integer, got inf"):
            variance_uniform(float("inf"), 1, spec55)

    def test_integral_float_depth_is_its_int(self, spec55):
        assert variance_uniform(2.0, np.int64(1), spec55) == variance_uniform(2, 1, spec55)


class TestVarianceExact:
    def test_depth_zero_pair(self, spec44):
        from pairdesign import ComparisonPair, Profile

        design = realize_design(four_depth_optimum(spec44))
        info = info_matrix_exact(design)
        profile = Profile((1, -1, 1, 1))
        pair = ComparisonPair(profile, profile)
        assert variance_exact(pair, design, info) == 0.0

    def test_optimum_gives_fifteen_everywhere(self, spec44):
        design = realize_design(four_depth_optimum(spec44))
        info = info_matrix_exact(design)
        for depth in range(1, 5):
            for pair in enumerate_orbit(spec44, depth):
                assert variance_exact(pair, design, info) == pytest.approx(15, abs=1e-10)

    def test_depends_only_on_depth(self, spec54):
        design = realize_design(
            DepthDesign({1: Fraction(1, 2), 3: Fraction(1, 2)}, spec54)
        )
        info = info_matrix_exact(design)
        closed = variance_profile(DepthDesign({1: Fraction(1, 2), 3: Fraction(1, 2)}, spec54))
        for depth in range(1, 5):
            values = [
                variance_exact(pair, design, info)
                for pair in enumerate_orbit(spec54, depth)
            ]
            assert max(values) - min(values) <= 1e-10
            assert values[0] == pytest.approx(float(closed.values[depth]), abs=1e-10)

    def test_singular_matrix_raises(self, spec44):
        design = realize_design(DepthDesign({4: Fraction(1)}, spec44))
        pair = next(enumerate_orbit(spec44, 1))
        with pytest.raises(SingularDesignError):
            variance_exact(pair, design)

    def test_sweep_helper_tight(self, spec54):
        design = DepthDesign({1: Fraction(1, 4), 2: Fraction(3, 4)}, spec54)
        assert variance_sweep_max_deviation(design) <= 1e-10

    def test_batched_sweep_matches_per_pair_solves(self):
        spec = ModelSpec(5, 5)
        design = DepthDesign({2: Fraction(2, 3), 4: Fraction(1, 3)}, spec)
        info = info_matrix_exact(realize_design(design))
        worst = check_pair_variances(design, info, spec.depths)
        sweep = variance_sweep_max_deviation(design, info=info)
        assert sweep <= 1e-9 * spec.n_params
        assert abs(sweep - worst) <= 1e-12 * spec.n_params

    @pytest.mark.parametrize("k,s", [(5, 5), (6, 4), (6, 6)])
    def test_sweep_on_a_matrix_that_is_not_invariant(self, k, s):
        # every pair has its own variance here, so a misplaced pair shows;
        # under an invariant oracle each pair of a depth has the same one
        spec = ModelSpec(k, s)
        design = optimize_full(spec).design
        info = random_spd_info(spec, seed=k * s)
        worst = check_pair_variances(design, info, spec.depths)
        sweep = variance_sweep_max_deviation(design, info=info)
        assert worst > 1
        assert abs(sweep - worst) <= 1e-12 * worst

    def test_budget_leaves_swept_pairs_unchanged(self, monkeypatch):
        # K=7 S=5: 21 subsets of 4^5 Gram entries each, so batches of 4 subsets
        spec = ModelSpec(7, 5)
        info = info_matrix_exact(realize_design(optimize_full(spec).design))
        whole = swept_pairs(info)
        monkeypatch.setattr(oracle, "_BLOCK_FLOATS", 4 * 4**5)
        batches = {batch for _, batch, _, _, _ in _pair_variances(info)}
        assert sorted(len(batch) for batch in batches) == [1, 4, 4, 4, 4, 4]
        chunked = swept_pairs(info)
        assert chunked.keys() == whole.keys()
        np.testing.assert_allclose(
            [chunked[key] for key in whole], list(whole.values()), rtol=1e-13
        )

    def test_sweep_never_reads_nan_as_agreement(self, monkeypatch):
        spec = ModelSpec(5, 5)
        design = DepthDesign({2: Fraction(2, 3), 4: Fraction(1, 3)}, spec)
        info = info_matrix_exact(realize_design(design))
        cholesky = np.linalg.cholesky

        def with_nan(matrix):
            factor = cholesky(matrix)
            factor[-1, -1] = np.nan
            return factor

        monkeypatch.setattr(np.linalg, "cholesky", with_nan)
        assert math.isnan(variance_sweep_max_deviation(design, info=info))

    def test_sweep_factors_once(self, monkeypatch):
        spec = ModelSpec(5, 5)
        design = DepthDesign({2: Fraction(2, 3), 4: Fraction(1, 3)}, spec)
        info = info_matrix_exact(realize_design(design))
        cholesky = np.linalg.cholesky
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert variance_sweep_max_deviation(design, info=info) <= 1e-9 * spec.n_params
        assert calls == [(spec.n_params, spec.n_params)]

    def test_sweep_reuses_given_oracle(self, spec54, monkeypatch):
        design = DepthDesign({1: Fraction(1, 4), 2: Fraction(3, 4)}, spec54)
        info = info_matrix_exact(realize_design(design))

        def refuse(*args):
            raise AssertionError("oracle rebuilt")

        monkeypatch.setattr(oracle, "info_matrix_exact", refuse)
        monkeypatch.setattr(oracle, "realize_design", refuse)
        assert variance_sweep_max_deviation(design, info=info) <= 1e-10


    @pytest.mark.parametrize(
        "k,s,floats,depths",
        [(6, 4, False, range(1, 5)), (7, 5, True, (1, 5))],
        ids=["k6-s4", "k7-s5-float"],
    )
    def test_subset_sweep_matches_per_pair_solves(self, k, s, floats, depths):
        # more than one shown subset: the sweep's values come per block and subset;
        # at K=7 S=5 two depths (4 032 pairs, all 21 subsets) keep the solves short
        spec = ModelSpec(k, s)
        design = optimize_full(spec).design
        if floats:
            design = DepthDesign({d: float(w) for d, w in design.weights.items()}, spec)
        info = info_matrix_exact(realize_design(design))
        check_pair_variances(design, info, depths)

    def test_sweep_refuses_a_foreign_oracle(self):
        design = optimize_full(ModelSpec(7, 5)).design
        other = realize_design(optimize_full(ModelSpec(7, 6)).design)
        assert other.spec.n_params == design.spec.n_params == 98
        with pytest.raises(ValueError, match="oracle input"):
            variance_sweep_max_deviation(design, explicit=other)
        with pytest.raises(ValueError, match="oracle input"):
            variance_sweep_max_deviation(design, info=info_matrix_exact(other))


class TestQuarticShape:
    @pytest.mark.parametrize("k,s", [(4, 4), (5, 5), (8, 6), (12, 12)])
    def test_leading_coefficient_negative(self, k, s):
        spec = ModelSpec(k, s)
        weights = {1: Fraction(1, 2), min(3, s - 1): Fraction(1, 2)}
        design = DepthDesign(weights, spec)
        info = mix_h(design)
        depths = np.arange(0, 5)
        values = np.array([float(dot_product(info, int(d))) for d in depths])
        fitted = np.polyfit(depths, values, 4)
        assert fitted[0] < 0
        # exact fourth finite difference gives 4! times the leading coefficient
        exact = [dot_product(info, d) for d in range(5)]
        lead = (
            exact[4] - 4 * exact[3] + 6 * exact[2] - 4 * exact[1] + exact[0]
        ) / 24
        assert lead < 0
        assert lead == -Fraction(4, 3) / info.h4


class TestKWCertify:
    def test_four_depth_optimum(self, spec44):
        report = kw_certify(four_depth_optimum(spec44))
        assert report.optimal
        assert report.support_ok
        assert float(report.max_excess) <= 1e-10
        assert report.verdict == "optimal"

    def test_point_mass_not_optimal(self, spec55):
        report = kw_certify(DepthDesign.point_mass(spec55, 2))
        assert not report.optimal
        assert float(report.profile.values[4]) > spec55.n_params

    @pytest.mark.parametrize("s", range(5, 13))
    def test_two_depth_rule_certifies(self, s):
        from pairdesign import conjectured_design

        spec = ModelSpec(s, s)
        report = kw_certify(conjectured_design(spec))
        assert report.optimal
        assert report.support_ok

    # an explicit tol may only be 0: a bool (True == 1, False == 0) and Fraction(0) too
    @pytest.mark.parametrize(
        "tol",
        [-1.0, -1, Fraction(-1, 10**400), -(10**400), float("nan"), float("inf"),
         float("-inf"), True, False, "0", 1j, None.__class__,
         1e-9, 1e-6, 1, 10**400, Fraction(1, 3), Fraction(0)],
    )
    def test_bad_tol_raises(self, spec44, tol):
        with pytest.raises(ValueError, match="an explicit tol may only be 0, got"):
            kw_certify(four_depth_optimum(spec44), tol=tol)

    @pytest.mark.parametrize("tol", [0, 0.0, -0.0])
    def test_explicit_zero_tol_is_the_int_zero(self, tol):
        # also on float weights, whose default would be 1e-9
        law = DepthDesign({2: 0.75, 6: 0.25}, ModelSpec(7, 7))
        report = kw_certify(law, tol=tol)
        assert report.tol == 0 and type(report.tol) is int
        assert "(tol 0 relative to p)" in report.to_text()

    def test_negative_zero_tol_is_held_as_zero(self):
        law = DepthDesign({2: Fraction(3, 4), 6: Fraction(1, 4)}, ModelSpec(7, 7))
        report = kw_certify(law, tol=-0.0)
        assert report.tol == 0 and math.copysign(1, report.tol) == 1
        assert "max excess: 0.000e+00 (tol 0 relative to p)" in report.to_text()
        assert report.certified

    def test_tol_zero_proves_optimum(self, spec44):
        report = kw_certify(four_depth_optimum(spec44), tol=0)
        assert report.optimal and report.support_ok
        assert report.max_excess == 0

    def test_tol_is_keyword_only(self, spec44):
        with pytest.raises(TypeError):
            kw_certify(four_depth_optimum(spec44), spec44)

    def test_singular_raises_not_suboptimal(self, spec44):
        with pytest.raises(SingularDesignError, match="not identifiable"):
            kw_certify(DepthDesign.point_mass(spec44, 4))

    def test_report_serialization(self, spec44):
        report = kw_certify(four_depth_optimum(spec44))
        record = report.to_dict()
        assert record["K"] == 4 and record["S"] == 4 and record["p"] == 15
        assert record["verdict"] == "optimal"
        assert set(record["V_by_depth"]) == {"1", "2", "3", "4"}
        text = report.to_text()
        assert "verdict: optimal" in text
        assert "1.000*" in text

    @pytest.mark.parametrize(
        "weights,written",
        [({2: Fraction(3, 4), 6: Fraction(1, 4)}, "0"), ({2: 0.75, 6: 0.25}, "1e-09")],
        ids=["zero", "float"],
    )
    def test_report_serializes_every_tol(self, weights, written):
        # the K=S=7 law: its tol, 0 or 1e-9, is written as it is
        record = json.dumps(kw_certify(DepthDesign(weights, ModelSpec(7, 7))).to_dict())
        assert f'"tol": {written},' in record
        assert json.loads(record)["tol"] == float(written)

    def test_support_condition_flag(self, spec55):
        report = kw_certify(DepthDesign({1: 0.5, 2: 0.5}, spec55))
        assert not report.optimal
        assert not report.support_ok

    def test_report_holds_its_design(self, spec44):
        design = four_depth_optimum(spec44)
        report = kw_certify(design, tol=0)
        assert report.design is design
        assert report.certified

    def test_dust_weight_is_optimal_but_not_certified(self, spec55):
        # V(1) = 0.9375 p on the K=S=5 optimum, so weight there breaks the support condition
        design = DepthDesign({1: 1e-12, 2: 2 / 3 - 1e-12, 4: 1 / 3}, spec55)
        # at the float tol 1e-9 the excess passes and only the support half fails
        report = kw_certify(design)
        assert report.tol == 1e-9 and 0 < report.max_excess <= 1e-9 * spec55.n_params
        assert report.optimal
        assert not report.support_ok
        assert not report.certified

    def test_exact_excess_below_the_least_float_is_not_optimal(self):
        # 10^-400 of weight moved from depth 6 to depth 2 of the K=S=7 law design: the
        # exact excess and the support miss are positive, but each rounds to 0.0 as a float
        spec = ModelSpec(7, 7)
        law = full_profile_design(spec)
        assert law.weights == {2: Fraction(3, 4), 6: Fraction(1, 4)}
        eps = Fraction(1, 10**400)
        design = DepthDesign({2: Fraction(3, 4) + eps, 6: Fraction(1, 4) - eps}, spec)
        report = kw_certify(design, tol=0)
        assert report.max_excess > 0 and float(report.max_excess) == 0.0
        assert report.profile.values[6] != spec.n_params
        assert not report.optimal and not report.support_ok
        assert report.verdict == "not optimal"

    def test_default_tol_proves_exact_weights(self):
        # 10^-9 of weight moved from depth 6 to depth 2 of the K=S=7 law design: the
        # excess is 1.244e-8, inside any float tolerance but not the exact proof's 0
        spec = ModelSpec(7, 7)
        eps = Fraction(1, 10**9)
        report = kw_certify(DepthDesign({2: Fraction(3, 4) + eps, 6: Fraction(1, 4) - eps}, spec))
        assert report.tol == 0 and type(report.tol) is int
        assert f"{float(report.max_excess):.3e}" == "1.244e-08"
        assert not report.optimal and not report.support_ok

    def test_default_tol_of_float_weights(self):
        # the same design as floats: the float certificate holds at 1e-9 relative to p
        spec = ModelSpec(7, 7)
        report = kw_certify(DepthDesign({2: 0.75 + 1e-9, 6: 0.25 - 1e-9}, spec))
        assert report.tol == 1e-9
        assert report.certified
