"""Per-block optimal depths and the full D-criterion optimizer."""

import collections
import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairdesign
from pairdesign import (
    DepthDesign,
    ModelSpec,
    conjectured_design,
    full_profile_design,
    kw_certify,
    log_det,
    mix_h,
    optimal_depth_first_order,
    optimal_depth_main,
    optimal_depth_second_order,
    optimal_depth_third_order,
    optimize_full,
    variance_profile,
)
from pairdesign import optimizer
from pairdesign.cli import main
from pairdesign.equivalence import _mirror_g0, h_numerators

THIRD_ORDER_REPORTED_DEPTH = {4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 2, 11: 3, 12: 3}

TWO_DEPTH_TABLE = {
    5: (2, 0.667, 4, 0.333),
    6: (2, 0.714, 5, 0.286),
    7: (2, 0.750, 6, 0.250),
    8: (3, 0.667, 6, 0.333),
    9: (3, 0.700, 7, 0.300),
    10: (3, 0.727, 8, 0.273),
    11: (4, 0.667, 8, 0.333),
    12: (4, 0.692, 9, 0.308),
}


def brute_argmax(strength, block):
    values = [h_numerators(strength, d)[block] for d in range(1, strength + 1)]
    top = max(values)
    return {d + 1 for d, v in enumerate(values) if v == top}


class TestSubsetCriteria:
    @pytest.mark.parametrize("s", range(1, 13))
    def test_main_effects(self, s):
        assert optimal_depth_main(s) == {s}
        assert optimal_depth_main(s) == brute_argmax(s, 0)

    @pytest.mark.parametrize("s", range(2, 13))
    def test_first_order(self, s):
        expected = {s // 2} if s % 2 == 0 else {(s - 1) // 2, (s + 1) // 2}
        assert optimal_depth_first_order(s) == expected
        assert optimal_depth_first_order(s) == brute_argmax(s, 1)

    @pytest.mark.parametrize("s", range(3, 13))
    def test_second_order(self, s):
        expected = {1, 3} if s == 3 else {s}
        assert optimal_depth_second_order(s) == expected
        assert optimal_depth_second_order(s) == brute_argmax(s, 2)

    @pytest.mark.parametrize("s", range(4, 13))
    def test_third_order_minimum(self, s):
        depths = optimal_depth_third_order(s)
        assert depths == brute_argmax(s, 3)
        assert min(depths) == THIRD_ORDER_REPORTED_DEPTH[s]

    def test_third_order_symmetry_pair(self):
        assert optimal_depth_third_order(5) == {1, 4}

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="three-way products need a strength of at least 3"):
            optimal_depth_second_order(2)
        with pytest.raises(ValueError, match="four-way products need a strength of at least 4"):
            optimal_depth_third_order(3)
        with pytest.raises(ValueError, match="two-way products need a strength of at least 2"):
            optimal_depth_first_order(1)
        with pytest.raises(ValueError, match="main effects need a strength of at least 1, got 0"):
            optimal_depth_main(0)

    def test_non_integral_strength_is_refused_not_truncated(self):
        # truncation would read 6.9 as 6: {1, 5}
        with pytest.raises(ValueError, match="strength must be an integer, got 6.9"):
            optimal_depth_third_order(6.9)
        with pytest.raises(ValueError, match="strength must be an integer, got '6'"):
            optimal_depth_main("6")
        with pytest.raises(ValueError, match="strength must be an integer, got inf"):
            optimal_depth_third_order(float("inf"))
        # True was read as strength 1: {1}
        with pytest.raises(ValueError, match="strength must be an integer, got True"):
            optimal_depth_main(True)
        # the rules take a strength: a spec is refused, not read as its S
        with pytest.raises(ValueError, match="strength must be an integer, got ModelSpec"):
            optimal_depth_main(ModelSpec(9, 7))

    def test_integral_float_strength_is_its_int(self):
        assert optimal_depth_third_order(6.0) == optimal_depth_third_order(6) == {1, 5}
        # a spec built from floats stores ints, and is solved as one
        assert optimize_full(ModelSpec(6, 5.0)) == optimize_full(ModelSpec(6, 5))


class TestConjecturedDesign:
    @pytest.mark.parametrize(
        "s,d_low,d_high,weight",
        [(5, 2, 4, Fraction(4, 6)), (9, 3, 7, Fraction(7, 10)), (11, 4, 8, Fraction(8, 12))],
    )
    def test_rule(self, s, d_low, d_high, weight):
        design = conjectured_design(ModelSpec(s, s))
        assert design.support == (d_low, d_high)
        assert design.weights[d_low] == weight
        assert design.weights[d_high] == 1 - weight

    def test_strength_four_rejected(self, spec44):
        with pytest.raises(ValueError, match="4/15"):
            conjectured_design(spec44)

    @pytest.mark.parametrize("s", range(5, 19))
    def test_exactly_optimal_in_stated_range(self, s):
        assert kw_certify(conjectured_design(ModelSpec(s, s)), tol=0).optimal

    @pytest.mark.parametrize("k,s", [(19, 19), (30, 30), (8, 6)])
    def test_outside_stated_range_rejected(self, k, s):
        with pytest.raises(ValueError, match="optimize_full"):
            conjectured_design(ModelSpec(k, s))


class TestFullProfileDesign:
    @staticmethod
    def passes(s, d):
        """The exact condition a (d-1)(e+1) <= g0 <= a (d+1)(e-1), e = S+1-d."""
        a, e = 2 * (s - 1) * (s - 2), s + 1 - d
        return a * (d - 1) * (e + 1) <= _mirror_g0(s, d) <= a * (d + 1) * (e - 1)

    def test_exactly_one_depth_passes(self):
        for s in range(5, 4001):
            design = full_profile_design(ModelSpec(s, s))
            d, e = design.support
            assert d + e == s + 1 and d < e
            assert design.weights == {d: Fraction(e, s + 1), e: Fraction(d, s + 1)}
            # the condition is met at d and nowhere else below the mirror
            window = range(max(1, d - 6), min(d + 7, s // 2 + 1))  # d < S+1-d
            assert [x for x in window if self.passes(s, x)] == [d]

    def test_only_passing_depth_at_small_s(self):
        for s in range(5, 120):
            mirror_depths = range(1, s // 2 + 1)
            passing = [d for d in mirror_depths if self.passes(s, d)]
            assert passing == [full_profile_design(ModelSpec(s, s)).support[0]]
        # at S = 4 no mirror pair passes: the optimum weights all four depths
        assert not any(self.passes(4, d) for d in (1, 2))

    @pytest.mark.parametrize("s", [*range(5, 1300, 37), 2000, 3500, 10_000])
    def test_rule_is_proved_at_tol_0(self, s):
        report = kw_certify(full_profile_design(ModelSpec(s, s)), tol=0)
        assert report.certified
        assert report.max_excess == 0

    def test_paper_rule_parts_from_the_law_at_19(self):
        for s in range(5, 19):
            assert full_profile_design(ModelSpec(s, s)) == conjectured_design(ModelSpec(s, s))
        # the paper's floor((S+1)/3) gives 6
        assert full_profile_design(ModelSpec(19, 19)).support == (7, 13)

    def test_large_s_in_under_a_millisecond(self):
        rng = random.Random(7)
        for s in [10**6, 10**9, *(rng.randint(5, 10**9) for _ in range(20))]:
            spec = ModelSpec(s, s)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                design = full_profile_design(spec)
                times.append(time.perf_counter() - start)
            assert min(times) < 1e-3
            d, e = design.support
            assert self.passes(s, d) and not self.passes(s, d - 1) and not self.passes(s, d + 1)

    @pytest.mark.parametrize("k,s", [(6, 5), (41, 40), (4, 4), (5, 4)])
    def test_outside_k_equals_s_at_least_5_rejected(self, k, s):
        with pytest.raises(ValueError, match="K = S >= 5"):
            full_profile_design(ModelSpec(k, s))


class TestOptimizeFull:
    def test_strength_four_exact(self, spec44):
        result = optimize_full(spec44)
        assert result.certified
        assert result.support == (1, 2, 3, 4)
        expected = {
            1: Fraction(4, 15),
            2: Fraction(2, 5),
            3: Fraction(4, 15),
            4: Fraction(1, 15),
        }
        for depth, weight in expected.items():
            assert abs(float(result.design.weights[depth]) - float(weight)) <= 1e-8
        # the four-depth step solves for the exact fractions
        assert result.design.is_exact
        assert dict(result.design.weights) == expected
        profile = variance_profile(result.design)
        for depth in range(1, 5):
            assert abs(float(profile.values[depth]) - 15) <= 1e-10

    @pytest.mark.parametrize("s", range(5, 13))
    def test_reference_weights(self, s):
        result = optimize_full(ModelSpec(s, s))
        d_low, w_low, d_high, w_high = TWO_DEPTH_TABLE[s]
        assert result.certified
        assert result.support == (d_low, d_high)
        assert round(float(result.design.weights[d_low]), 3) == w_low
        assert round(float(result.design.weights[d_high]), 3) == w_high
        # refined weights are the exact two-depth rationals
        assert result.design.weights[d_low] == Fraction(d_high, s + 1)

    @pytest.mark.parametrize("s", range(5, 13))
    def test_not_worse_than_conjecture(self, s):
        spec = ModelSpec(s, s)
        result = optimize_full(spec)
        reference = log_det(mix_h(conjectured_design(spec)))
        assert log_det(mix_h(result.design)) >= reference - 1e-9

    def test_output_passes_own_certificate(self):
        # (13, 8), (16, 10), (20, 7): dust weight on a depth with V < p fails support_ok
        for k, s in [(4, 4), (7, 7), (6, 4), (9, 5), (13, 8), (16, 10), (20, 7)]:
            result = optimize_full(ModelSpec(k, s))
            assert result.certified
            report = kw_certify(result.design)
            assert report.optimal
            assert report.support_ok

    @pytest.mark.parametrize("k,s,exact", [(6, 6, True), (4, 4, True), (8, 6, False), (7, 6, False)])
    def test_result_is_the_kw_certify_report(self, k, s, exact):
        result = optimize_full(ModelSpec(k, s))
        assert result.design.is_exact == exact
        report = kw_certify(result.design)
        assert report == result
        assert result.certified == report.certified == (report.optimal and report.support_ok)
        assert result.certified

    # the two three-depth optima, and a pair whose weight is irrational
    @pytest.mark.parametrize(
        "k,s,support", [(6, 5, (1, 2, 4)), (16, 14, (4, 5, 10)), (27, 25, (9, 17))]
    )
    def test_float_optima_certified_at_tol(self, k, s, support):
        result = optimize_full(ModelSpec(k, s))
        assert not result.design.is_exact
        assert result.support == support
        assert result.certified
        assert result.tol == 1e-9

    def test_irrational_weight_builds_no_exact_profile(self, monkeypatch):
        # the (8,6) optimum's weight is the root of an irreducible cubic: no candidate
        # reaches a tol-0 profile, and only the float design is certified
        calls = []
        certify = optimizer.kw_certify

        def counting(design, **kwargs):
            calls.append(design)
            return certify(design, **kwargs)

        monkeypatch.setattr(optimizer, "kw_certify", counting)
        result = optimize_full(ModelSpec(8, 6))
        assert calls == [result.design] and not result.design.is_exact
        assert result.certified and result.tol == 1e-9

    def test_rational_weight_of_any_denominator_is_exact(self):
        # 20568 lies past a denominator guess of 10^4; the cubic's leading coefficient bounds it
        result = optimize_full(ModelSpec(60, 50))
        assert result.design.weights == {19: Fraction(8959, 20568), 31: Fraction(11609, 20568)}
        assert result.certified and result.tol == 0

    @pytest.mark.parametrize(
        "s,law", [(3200, (1552, 1649)), (5000, (2439, 2562)), (20_000, (9878, 10123))]
    )
    def test_one_more_attribute_than_shown_takes_the_law_support(self, s, law):
        # a float stop test relative to p ~ K^4/24 once stopped here on a point mass
        assert full_profile_design(ModelSpec(s, s)).support == law
        result = optimize_full(ModelSpec(s + 1, s))
        assert result.support == law
        assert result.certified and result.tol == 1e-9
        for depth in law:
            point = kw_certify(DepthDesign.point_mass(ModelSpec(s + 1, s), depth), tol=0)
            assert point.max_excess > 0 and not point.certified

    def test_bracket_of_the_8_6_optimum(self):
        spec = ModelSpec(8, 6)
        lo = optimize_full(spec).design.weights[5]
        hi = math.nextafter(lo, 1.0)
        edge = optimizer._edge(spec, (2, 5))
        assert optimizer._bracket_proves(spec, (2, 5), edge, lo, hi)
        # one ulp up or down, the root lies outside
        assert not optimizer._bracket_proves(spec, (2, 5), edge, hi, math.nextafter(hi, 1.0))
        assert not optimizer._bracket_proves(spec, (2, 5), edge, math.nextafter(lo, 0.0), lo)
        # widened by 1/4 the root stays inside, but the off-support bound fails
        cubic = edge[2]
        assert optimizer._cubic_at(cubic, lo - 0.25) > 0
        assert optimizer._cubic_at(cubic, hi + 0.25) < 0
        assert optimizer._bracket_proves(spec, (2, 5), edge, lo - 0.125, hi + 0.125)
        assert not optimizer._bracket_proves(spec, (2, 5), edge, lo - 0.25, hi + 0.25)

    @pytest.mark.parametrize(
        "k,s,support,proves,fails", [(6, 5, (1, 2, 4), 2**-6, 2**-5), (16, 14, (4, 5, 10), 2**-9, 2**-8)]
    )
    def test_bracket_of_the_three_depth_optima(self, k, s, support, proves, fails):
        # a triple's root is a point on its dual line: the floats around it prove it
        spec = ModelSpec(k, s)
        edge = optimizer._edge(spec, support)
        cubic, at = edge[2:]
        near, far = optimizer._root_bracket(cubic)
        lo, hi = float(min(near, far)), float(max(near, far))
        assert hi == math.nextafter(lo, 1.0)
        assert optimizer._bracket_proves(spec, support, edge, lo, hi)
        # the design is the weights at the root's nearest float
        weights = [float(sum(terms)) for terms in at(near)[1]]
        assert list(optimize_full(spec).design.weights.values()) == weights
        # one ulp up or down, the root lies outside
        assert not optimizer._bracket_proves(spec, support, edge, hi, math.nextafter(hi, 1.0))
        assert not optimizer._bracket_proves(spec, support, edge, math.nextafter(lo, 0.0), lo)
        # widened, the root stays inside until the weights' lower bound fails
        assert optimizer._cubic_at(cubic, lo - fails) > 0 > optimizer._cubic_at(cubic, hi + fails)
        assert optimizer._bracket_proves(spec, support, edge, lo - proves, hi + proves)
        assert not optimizer._bracket_proves(spec, support, edge, lo - fails, hi + fails)

    @pytest.mark.parametrize("k,s,support", [(8, 6, (2, 5)), (6, 5, (1, 2, 4)), (16, 14, (4, 5, 10))])
    def test_bracket_reaching_an_end_of_the_edge_is_refused(self, k, s, support):
        # the cubic's signs hold at 0 and 1, but a triple's z has a zero block at
        # each end, so only the interval guard keeps at(0) and at(1) from dividing by 0
        spec = ModelSpec(k, s)
        edge = optimizer._edge(spec, support)
        cubic = edge[2]
        lo, hi = sorted(optimizer._root_bracket(cubic))
        assert optimizer._cubic_at(cubic, Fraction(0)) >= 0 >= optimizer._cubic_at(cubic, Fraction(1))
        assert optimizer._bracket_proves(spec, support, edge, lo, hi)
        assert not optimizer._bracket_proves(spec, support, edge, 0, hi)
        assert not optimizer._bracket_proves(spec, support, edge, lo, 1)

    def test_four_step_refuses_a_zero_dual(self, monkeypatch, spec44):
        # p_r / z_r would divide by the zero
        monkeypatch.setattr(optimizer, "_solve", lambda matrix, rhs: [Fraction(1), 0, 1, 1])
        assert optimizer._four_step(spec44, (1, 2, 3, 4)) is None

    def test_four_step_refuses_a_zero_weight(self, monkeypatch, spec44):
        # with the bound passing, only the weight guard keeps a zero-weight depth out
        solve, results = optimizer._solve, []

        def zeroing(matrix, rhs):
            results.append(solve(matrix, rhs))
            if len(results) == 1:
                return results[0]  # the true dual z
            return [Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 4)]  # weights with a zero

        monkeypatch.setattr(optimizer, "_solve", zeroing)
        monkeypatch.setattr(optimizer, "_bound_holds", lambda *args: True)
        assert optimizer._four_step(spec44, (1, 2, 3, 4)) is None
        assert len(results) == 2 and min(results[0]) > 0

    @pytest.mark.parametrize("k,s", [(6, 5), (8, 6), (60, 50), (19, 4), (4, 4)])
    def test_steps_prove_and_optimize_full_certifies_once(self, monkeypatch, k, s):
        calls, solved = [], []
        certify, solve = optimizer.kw_certify, optimizer._solve_on_candidates

        def counting(design, **kwargs):
            calls.append(design)
            return certify(design, **kwargs)

        def solving(spec):
            design = solve(spec)
            solved.append(len(calls))
            return design

        monkeypatch.setattr(optimizer, "kw_certify", counting)
        monkeypatch.setattr(optimizer, "_solve_on_candidates", solving)
        result = optimize_full(ModelSpec(k, s))
        assert solved == [0]  # no step certifies: the integer bound decides
        assert calls == [result.design] and result.certified
        assert result.tol == (0 if result.design.is_exact else 1e-9)

    @pytest.mark.parametrize("k,s", [(5, 4), (6, 4), (8, 5), (10, 7), (12, 4), (12, 12)])
    def test_partial_profiles_certify_with_small_support(self, k, s):
        result = optimize_full(ModelSpec(k, s))
        assert result.certified
        assert len(result.support) <= 4
        assert float(result.max_excess) <= result.tol * ModelSpec(k, s).n_params

    @pytest.mark.parametrize("s,d_low", [(650, 303), (1000, 473)])
    def test_large_full_profile_exact_two_depth(self, s, d_low):
        result = optimize_full(ModelSpec(s, s))
        d_high = s + 1 - d_low
        assert result.certified
        assert result.support == (d_low, d_high)
        assert result.design.is_exact
        assert result.design.weights[d_low] == Fraction(d_high, s + 1)
        assert result.design.weights[d_high] == Fraction(d_low, s + 1)
        assert kw_certify(result.design, tol=0).optimal

    def assert_full_profile_law(self, s):
        """K=S: support {d, S+1-d} with weights ((S+1-d)/(S+1), d/(S+1)), proved at tol 0."""
        result = optimize_full(ModelSpec(s, s))
        d_low = result.support[0]
        assert result.support == (d_low, s + 1 - d_low)
        assert result.design.weights == {
            d_low: Fraction(s + 1 - d_low, s + 1), s + 1 - d_low: Fraction(d_low, s + 1)
        }
        assert result.certified and result.tol == 0
        assert result.iterations == 0  # the rule, with no float solve

    @given(st.integers(min_value=5, max_value=458))
    @settings(max_examples=30, deadline=None)
    def test_full_profile_law(self, s):
        self.assert_full_profile_law(s)

    def test_full_profile_law_at_every_s(self):
        # optimize_full takes the rule at K = S >= 5; the solve on the candidate
        # depths, which it does not run there, reaches the same design on its own
        for s in range(5, 459):
            spec = ModelSpec(s, s)
            assert optimizer._solve_on_candidates(spec) == full_profile_design(spec)

    # an S-depth float ascent missed here: float weights from S = 459, one depth from S = 3460
    @pytest.mark.parametrize("s", [459, 648, 2000, 3500, 10_000])
    def test_full_profile_law_at_large_s(self, s):
        self.assert_full_profile_law(s)

    def test_full_profile_without_iterations(self):
        result = optimize_full(ModelSpec(12, 12))
        assert result.certified and result.tol == 0
        assert result.iterations == 0
        assert result.design == full_profile_design(ModelSpec(12, 12))

    def test_concavity_of_objective(self):
        spec = ModelSpec(7, 7)
        rng = np.random.default_rng(11)
        p_blocks = np.array(spec.block_dims, dtype=float)

        def phi(weights):
            design = DepthDesign(
                {d + 1: float(w) for d, w in enumerate(weights)}, spec
            )
            info = mix_h(design)
            return float(
                sum(p * np.log(float(h)) for p, h in zip(spec.block_dims, info.values))
            )

        for _ in range(50):
            u = rng.dirichlet(np.ones(7))
            v = rng.dirichlet(np.ones(7))
            lam = rng.uniform(0.05, 0.95)
            blend = lam * u + (1 - lam) * v
            assert phi(blend) >= lam * phi(u) + (1 - lam) * phi(v) - 1e-12

    def test_bad_tol(self, spec44):
        # optimize_full takes no tol: the proof sets its report's tol
        with pytest.raises(TypeError, match="tol"):
            optimize_full(spec44, tol=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_tol(self, spec44, tol):
        with pytest.raises(TypeError, match="tol"):
            optimize_full(spec44, tol=tol)

    @pytest.mark.parametrize("k,s,proof_tol", [(6, 6, 0), (8, 6, 1e-9)])
    def test_result_carries_its_report(self, k, s, proof_tol):
        result = optimize_full(ModelSpec(k, s))
        assert result.tol == proof_tol
        assert result.support == result.design.support
        assert result.certified == (result.optimal and result.support_ok)

    def test_repr_leaves_out_the_profile(self):
        # the K=S=2000 profile holds 2000 values, about 109 000 characters of repr
        assert len(repr(optimize_full(ModelSpec(2000, 2000)))) < 500


class TestOnePath:
    """At K = S >= 5 optimize_full returns the law's result, whatever it is: no candidate solve."""

    @pytest.fixture
    def candidate_solves(self, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizer, "_solve_on_candidates", lambda *args: calls.append(args))
        return calls

    def test_rule_that_raises_surfaces(self, monkeypatch, capsys, candidate_solves):
        def no_depth(spec):
            raise ValueError("the full-profile law passes at depths [] for S=12")

        monkeypatch.setattr(optimizer, "full_profile_design", no_depth)
        with pytest.raises(ValueError, match="passes at depths"):
            optimize_full(ModelSpec(12, 12))
        assert main(["optimize", "--k", "12", "--s", "12"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
        assert candidate_solves == []

    def test_failed_proof_is_returned_uncertified(self, monkeypatch, candidate_solves):
        certify = optimizer.kw_certify
        monkeypatch.setattr(
            optimizer,
            "kw_certify",
            lambda design, **kwargs: dataclasses.replace(certify(design, **kwargs), optimal=False),
        )
        spec = ModelSpec(12, 12)
        result = optimize_full(spec)
        assert result.design == full_profile_design(spec)
        assert not result.certified and result.iterations == 0
        assert candidate_solves == []


# one line "K S support weights" per exact optimum of the 703-spec grid, weights as
# fractions; float weights are left out, since their last digits follow the platform's libm
GRID_K40_EXACT_SHA256 = "b6d97eb4d54ff10ee21f7b6ccb99c2ca811cda4dc064446368310e434a2840fc"


def test_grid_k40_optima_are_pinned():
    counts, three_depth, lines = collections.Counter(), [], []
    for k in range(4, 41):
        for s in range(4, k + 1):
            result = optimize_full(ModelSpec(k, s))
            assert result.certified
            design = result.design
            counts[len(design.support), design.is_exact] += 1
            if len(design.support) == 3:
                three_depth.append((k, s))
            if design.is_exact:
                weights = (str(design.weights[d]) for d in design.support)
                lines.append(" ".join([str(k), str(s), *map(str, design.support), *weights]))
    assert counts == {(1, True): 504, (2, True): 97, (2, False): 99, (3, False): 2, (4, True): 1}
    assert three_depth == [(6, 5), (16, 14)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GRID_K40_EXACT_SHA256


@pytest.fixture(scope="module")
def grid_k40_results():
    """optimize_full of the 703 specs with 4 <= S <= K <= 40."""
    return [optimize_full(ModelSpec(k, s)) for k in range(4, 41) for s in range(4, k + 1)]


def test_grid_k40_results_are_their_certificates(grid_k40_results):
    assert len(grid_k40_results) == 703
    for result in grid_k40_results:
        assert result == kw_certify(result.design)
        assert result.iterations == 0 and result.support == result.design.support


def test_explicit_tol_0_is_the_default_on_exact_grid_optima(grid_k40_results):
    # the benchmark's exact proof: kw_certify(design, tol=0) of each exact optimum
    exact = [result.design for result in grid_k40_results if result.design.is_exact]
    assert len(exact) == 602
    for design in exact:
        assert kw_certify(design, tol=0) == kw_certify(design)


def test_import_does_not_load_scipy():
    src = str(Path(pairdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pairdesign; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def integer_det(matrix):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    rows = [list(row) for row in matrix]
    n, sign, previous = len(rows), 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                rows[r][j] = (rows[r][j] * rows[c][c] - rows[r][c] * rows[c][j]) // previous
        previous = rows[c][c]
    return sign * rows[-1][-1]


def five_depth_sets():
    """Every 5-subset of 1..S for S <= 12, then 300 random ones with S up to 10^4."""
    for s in range(5, 13):
        for depths in itertools.combinations(range(1, s + 1), 5):
            yield s, depths
    rng = random.Random(20)
    for _ in range(300):
        s = rng.randint(5, 10_000)
        yield s, tuple(sorted(rng.sample(range(1, s + 1), 5)))


class TestActiveSet:
    """optimize_full's linear systems never need rank handling."""

    def test_any_five_depths_are_affinely_independent(self):
        # det[1, h_numerators(S, d_i)] is the product of the leading coefficients
        # 4, -8, 16, -32 of h1..h4 in d times a Vandermonde, whatever S is
        for s, depths in five_depth_sets():
            det = integer_det([[1, *h_numerators(s, d)] for d in depths])
            vandermonde = math.prod(b - a for a, b in itertools.combinations(depths, 2))
            assert det == 16384 * vandermonde != 0, (s, depths)

    def test_exact_solves_have_at_most_four_unknowns(self, monkeypatch):
        # the 703 specs 4 <= S <= K <= 40: 4 x 4 only in the four-depth systems of
        # K = S = 4; 3 x 3 only on the dual lines of the triples of (6, 5) and (16, 14),
        # four minors and three weight columns each
        sizes = []
        solve = optimizer._solve

        def spy(matrix, rhs):
            sizes.append(len(rhs))
            return solve(matrix, rhs)

        monkeypatch.setattr(optimizer, "_solve", spy)
        specs = [ModelSpec(k, s) for k in range(4, 41) for s in range(4, k + 1)]
        assert len(specs) == 703
        assert all(optimize_full(spec).certified for spec in specs)
        assert sizes == [4, 4] + [3] * 14

    def test_singular_system_gives_none(self):
        assert optimizer._solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]) is None
        assert optimizer._solve([[4.0, 2.0], [2.0, 3.0]], [2.0, 1.0]) == [0.5, 0.0]
