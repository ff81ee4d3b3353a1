"""Closed-form block informations against the brute-force oracle."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pairdesign import (
    BlockInfo,
    DenseInfo,
    DepthDesign,
    ExplicitDesign,
    ModelSpec,
    SingularDesignError,
    count_pairs,
    enumerate_orbit,
    h_numerators,
    h_values,
    info_matrix_exact,
    is_identifiable,
    log_det,
    mix_h,
    optimize_full,
    realize_design,
    variance_sweep_max_deviation,
)
from pairdesign import oracle
from pairdesign.oracle import _MAX_EXACT_DENOMINATOR, _regression_matrix

from conftest import reference_uniform_info


def uniform_orbit_design(spec, depth, exact=True):
    n = count_pairs(spec, depth)
    weight = Fraction(1, n) if exact else 1.0 / n
    return ExplicitDesign(
        tuple((pair, weight) for pair in enumerate_orbit(spec, depth)), spec
    )


class TestHValues:
    def test_depth_zero(self, spec44):
        assert h_values(spec44, 0).values == (0, 0, 0, 0)

    def test_depth_one(self, spec44):
        assert h_values(spec44, 1).values == (1, 2, 3, 4)

    def test_depth_two(self, spec44):
        assert h_values(spec44, 2).values == (2, Fraction(8, 3), 2, 0)

    def test_depth_full(self, spec44):
        hv = h_values(spec44, 4)
        assert hv.values == (4, 0, 4, 0)
        assert hv.is_singular
        assert hv.zero_blocks == ("h2", "h4")

    def test_out_of_range(self, spec44):
        with pytest.raises(ValueError):
            h_values(spec44, 5)

    @pytest.mark.parametrize(
        "strength,depth",
        [(5, 2.5), (5.9, 2), ("5", 2), (5, Fraction(5, 2)), (float("inf"), 2), (5, True)],
    )
    def test_non_integral_strength_or_depth_is_refused_not_truncated(self, strength, depth):
        # truncation would read (5, 2.5) and (5.9, 2) as (5, 2): (8, 48, 144, 192),
        # and True was read as depth 1
        name, value = ("depth", depth) if type(strength) is int else ("strength", strength)
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=message):
            h_numerators(strength, depth)

    def test_non_integral_depth_of_h_values(self):
        with pytest.raises(ValueError, match="depth must be an integer, got 2.5"):
            h_values(ModelSpec(5, 5), 2.5)

    def test_integral_float_is_its_int(self):
        assert h_numerators(5.0, 2.0) == h_numerators(np.int64(5), 2) == (8, 48, 144, 192)
        assert h_values(ModelSpec(5, 5), 2.0) == h_values(ModelSpec(5, 5), 2)

    @pytest.mark.parametrize("s", range(1, 13))
    def test_depth_symmetry(self, s):
        for d in range(s + 1):
            n_here = h_numerators(s, d)
            n_mirror = h_numerators(s, s - d)
            assert n_here[1] == n_mirror[1]
            assert n_here[3] == n_mirror[3]


class TestReferenceOracle:
    """Independent accumulation (conftest) against both library routes."""

    @pytest.mark.parametrize("k,s", [(4, 4), (5, 4)])
    def test_uniform_orbits_match_everywhere(self, k, s):
        spec = ModelSpec(k, s)
        for depth in range(s + 1):
            reference = reference_uniform_info(k, s, depth)
            hv = h_values(spec, depth)
            expected_diag = []
            for h, dim in zip(hv.values, spec.block_dims):
                expected_diag.extend([h] * dim)
            dense = info_matrix_exact(uniform_orbit_design(spec, depth))
            for a in range(spec.n_params):
                for b in range(spec.n_params):
                    want = expected_diag[a] if a == b else 0
                    assert reference[a][b] == want, (depth, a, b)
                    assert dense.exact_entry(a, b) == want, (depth, a, b)


class TestInfoMatrixExact:
    def test_model_row_leaves_nothing_behind(self):
        # the term index arrays are built per call: kept, they would hold
        # about 3 MiB at K=40
        from pairdesign import Profile, regression_vector

        spec = ModelSpec(40, 40)
        profile = Profile((1, -1) * 20)
        tracemalloc.start()
        try:
            row = regression_vector(profile, spec)
            assert row.shape == (spec.n_params,)
            del row
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_single_pair_rank_one(self, spec44):
        from pairdesign import ComparisonPair, Profile, regression_vector

        pair = ComparisonPair(Profile((1, 1, 1, 1)), Profile((-1, 1, 1, 1)))
        design = ExplicitDesign(((pair, Fraction(1)),), spec44)
        dense = info_matrix_exact(design)
        diff = (
            regression_vector(pair.first, spec44)
            - regression_vector(pair.second, spec44)
        ).astype(float)
        assert np.linalg.matrix_rank(dense.entries) == 1
        assert dense.entries.trace() == pytest.approx(float(diff @ diff))
        np.testing.assert_allclose(dense.entries, np.outer(diff, diff))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_entries_that_are_not_finite(self, spec44, bad):
        # a NaN passes a symmetry check, and inf - inf is NaN
        entries = np.eye(spec44.n_params)
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            DenseInfo(entries=entries, spec=spec44)

    def test_entries_are_a_read_only_copy(self, spec44):
        # a NaN written after the checks cannot reach the validated matrix
        entries = np.eye(spec44.n_params)
        dense = DenseInfo(entries=entries, spec=spec44)
        entries[0, 0] = np.nan
        assert np.all(np.isfinite(dense.entries))
        with pytest.raises(ValueError, match="read-only"):
            dense.entries[0, 0] = np.nan

    def test_refuses_exact_matrix_that_differs_from_entries(self, spec44):
        # one DenseInfo cannot say 1.0 in its floats and 0 in its fractions
        zeros = np.zeros((spec44.n_params,) * 2, dtype=np.int64)
        with pytest.raises(ValueError, match="differ"):
            DenseInfo(entries=np.eye(spec44.n_params), spec=spec44, exact_num=zeros, exact_den=1)
        scaled = np.eye(spec44.n_params, dtype=np.int64) * 3
        with pytest.raises(ValueError, match="differ"):
            DenseInfo(entries=np.eye(spec44.n_params), spec=spec44, exact_num=scaled, exact_den=2)
        dense = DenseInfo(entries=scaled / 3, spec=spec44, exact_num=scaled, exact_den=3)
        assert dense.is_exact and dense.exact_entry(0, 0) == 1

    def test_exact_num_is_a_read_only_int64_copy(self, spec44):
        # a write after the checks cannot make the fractions disagree with the floats
        num = np.eye(spec44.n_params, dtype=np.int64)
        dense = DenseInfo(entries=np.eye(spec44.n_params), spec=spec44, exact_num=num, exact_den=1)
        num[0, 0] = 0
        assert dense.exact_entry(0, 0) == 1 and dense.entries[0, 0] == 1.0
        assert dense.exact_num.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            dense.exact_num[0, 0] = 0
        # integers held in floats are taken, anything else is refused
        dense = DenseInfo(entries=num / 2, spec=spec44, exact_num=num.astype(float), exact_den=2)
        assert dense.exact_num.dtype == np.int64 and dense.exact_entry(1, 1) == Fraction(1, 2)
        with pytest.raises(ValueError, match="integers"):
            DenseInfo(entries=num * 0.75, spec=spec44, exact_num=num * 1.5, exact_den=2)

    @pytest.mark.parametrize("given", ["exact_num", "exact_den"])
    def test_refuses_half_an_exact_matrix(self, spec44, given):
        exact = {"exact_num": np.eye(spec44.n_params, dtype=np.int64), "exact_den": 1}
        with pytest.raises(ValueError, match="together"):
            DenseInfo(entries=np.eye(spec44.n_params), spec=spec44, **{given: exact[given]})

    @pytest.mark.parametrize("den", [2.5, True])
    def test_refuses_a_denominator_that_is_not_an_integer(self, spec44, den):
        # 2.5 was held, and exact_entry then raised TypeError; True was held as 1
        num = np.eye(spec44.n_params, dtype=np.int64)
        with pytest.raises(ValueError, match=f"exact_den must be an integer, got {den}"):
            DenseInfo(entries=num / den, spec=spec44, exact_num=num, exact_den=den)

    def test_integral_float_denominator_is_its_int(self, spec44):
        num = np.eye(spec44.n_params, dtype=np.int64)
        dense = DenseInfo(entries=num / 4, spec=spec44, exact_num=num, exact_den=4.0)
        assert type(dense.exact_den) is int and dense.exact_entry(0, 0) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "entries,message",
        [
            (np.eye(14), "expected a 15 x 15 matrix, got shape \\(14, 14\\)"),
            (np.eye(15) + np.eye(15, k=1), "not symmetric"),
        ],
        ids=["shape", "asymmetric"],
    )
    def test_refuses_a_matrix_that_is_not_p_by_p_symmetric(self, spec44, entries, message):
        with pytest.raises(ValueError, match=message):
            DenseInfo(entries=entries, spec=spec44)

    def test_float_matrix_has_no_exact_entry(self, spec44):
        dense = DenseInfo(entries=np.eye(spec44.n_params), spec=spec44)
        with pytest.raises(ValueError, match="accumulated in floating point"):
            dense.exact_entry(0, 0)

    @pytest.mark.parametrize("den", [0, -1])
    def test_refuses_a_denominator_that_is_not_positive(self, spec44, den):
        num = np.eye(spec44.n_params, dtype=np.int64) * den
        with pytest.raises(ValueError, match="positive"):
            DenseInfo(entries=np.eye(spec44.n_params), spec=spec44, exact_num=num, exact_den=den)

    def test_uniform_orbit_equals_blocks(self, spec44):
        dense = info_matrix_exact(uniform_orbit_design(spec44, 2))
        np.testing.assert_allclose(dense.entries, h_values(spec44, 2).as_matrix())
        off = dense.exact_num.copy()
        np.fill_diagonal(off, 0)
        assert np.all(off == 0)

    def test_half_and_half_orbits(self, spec44):
        entries = []
        for depth in (1, 3):
            n = count_pairs(spec44, depth)
            entries.extend(
                (pair, Fraction(1, 2 * n)) for pair in enumerate_orbit(spec44, depth)
            )
        dense = info_matrix_exact(ExplicitDesign(tuple(entries), spec44))
        blended = mix_h(DepthDesign({1: Fraction(1, 2), 3: Fraction(1, 2)}, spec44))
        np.testing.assert_allclose(dense.entries, blended.as_matrix())

    def test_linearity(self, spec44):
        a = info_matrix_exact(uniform_orbit_design(spec44, 1)).entries
        b = info_matrix_exact(uniform_orbit_design(spec44, 3)).entries
        entries = []
        for depth, share in ((1, Fraction(1, 4)), (3, Fraction(3, 4))):
            n = count_pairs(spec44, depth)
            entries.extend(
                (pair, share / n) for pair in enumerate_orbit(spec44, depth)
            )
        mixed = info_matrix_exact(ExplicitDesign(tuple(entries), spec44)).entries
        np.testing.assert_allclose(mixed, 0.25 * a + 0.75 * b)

    def test_float_path(self, spec44):
        dense = info_matrix_exact(uniform_orbit_design(spec44, 2, exact=False))
        assert not dense.is_exact
        assert np.max(np.abs(dense.entries - h_values(spec44, 2).as_matrix())) <= 1e-12

    def test_trace_identity(self, spec55):
        dense = info_matrix_exact(uniform_orbit_design(spec55, 3))
        hv = h_values(spec55, 3)
        expected = sum(p * h for p, h in zip(spec55.block_dims, hv.values))
        assert Fraction(int(dense.exact_num.trace()), dense.exact_den) == expected

    def test_oracle_gate_on_params(self):
        from pairdesign import ComparisonPair, Profile

        spec = ModelSpec(12, 12)  # p = 793 > 500
        pair = ComparisonPair(Profile((1,) * 12), Profile((-1,) * 12))
        design = ExplicitDesign(((pair, 1.0),), spec)
        with pytest.raises(ValueError, match="oracle gate"):
            info_matrix_exact(design)

    def test_oracle_gate_on_pairs(self, spec44):
        oracle._check_oracle_gate(spec44, 10**7)
        with pytest.raises(ValueError, match="oracle gate: 10000001 pairs exceed 10000000"):
            oracle._check_oracle_gate(spec44, 10**7 + 1)

    def test_nonnegative_definite(self, spec54):
        dense = info_matrix_exact(uniform_orbit_design(spec54, 2))
        assert np.linalg.eigvalsh(dense.entries).min() >= -1e-9


class TestMixH:
    def test_point_mass(self, spec44):
        for depth in range(1, 5):
            design = DepthDesign.point_mass(spec44, depth)
            assert mix_h(design).values == h_values(spec44, depth).values

    def test_known_equal_blend(self, spec44):
        design = DepthDesign(
            {1: Fraction(4, 15), 2: Fraction(2, 5), 3: Fraction(4, 15), 4: Fraction(1, 15)},
            spec44,
        )
        assert mix_h(design).values == (Fraction(32, 15),) * 4

    def test_blend_matches_oracle(self, spec44):
        weights = {
            1: Fraction(4, 15),
            2: Fraction(2, 5),
            3: Fraction(4, 15),
            4: Fraction(1, 15),
        }
        entries = []
        for depth, share in weights.items():
            n = count_pairs(spec44, depth)
            entries.extend((pair, share / n) for pair in enumerate_orbit(spec44, depth))
        assert len(entries) == 240
        dense = info_matrix_exact(ExplicitDesign(tuple(entries), spec44))
        blended = mix_h(DepthDesign(weights, spec44))
        expected_diag = []
        for h, dim in zip(blended.values, spec44.block_dims):
            expected_diag.extend([h] * dim)
        for a in range(spec44.n_params):
            assert dense.exact_entry(a, a) == expected_diag[a]

    def test_k5_blend_positive_and_matches_oracle(self, spec55):
        weights = {2: Fraction(2, 3), 4: Fraction(1, 3)}
        blended = mix_h(DepthDesign(weights, spec55))
        assert all(h > 0 for h in blended.values)
        entries = []
        for depth, share in weights.items():
            n = count_pairs(spec55, depth)
            entries.extend((pair, share / n) for pair in enumerate_orbit(spec55, depth))
        dense = info_matrix_exact(ExplicitDesign(tuple(entries), spec55))
        np.testing.assert_allclose(dense.entries, blended.as_matrix(), atol=1e-12)


class TestLogDet:
    def test_identity(self, spec44):
        assert log_det(BlockInfo(1, 1, 1, 1, spec44)) == 0.0

    def test_point_mass_full_depth_singular(self, spec44):
        info = mix_h(DepthDesign.point_mass(spec44, 4))
        with pytest.raises(SingularDesignError) as err:
            log_det(info)
        assert err.value.zero_blocks == ("h2", "h4")

    def test_point_mass_depth_one(self, spec44):
        import math

        info = mix_h(DepthDesign.point_mass(spec44, 1))
        expected = 4 * math.log(1) + 6 * math.log(2) + 4 * math.log(3) + math.log(4)
        assert log_det(info) == pytest.approx(expected, abs=1e-12)


class TestIdentifiability:
    def test_depth_one_yes(self, spec44):
        assert is_identifiable(DepthDesign.point_mass(spec44, 1))

    def test_depth_full_no(self, spec44):
        assert not is_identifiable(DepthDesign.point_mass(spec44, 4))

    def test_two_dead_quartic_depths(self, spec44):
        # h4 vanishes at both d=2 and d=4 when S=4
        design = DepthDesign({2: 0.5, 4: 0.5}, spec44)
        assert not is_identifiable(design)


class TestExactOracleInFloat64:
    @pytest.mark.parametrize("strength", [4, 5, 7])
    def test_k7_optima_equal_closed_form_integers(self, strength):
        spec = ModelSpec(7, strength)
        design = optimize_full(spec).design
        assert design.is_exact
        dense = info_matrix_exact(realize_design(design))
        assert dense.is_exact and dense.exact_num.dtype == np.int64
        scaled = [Fraction(h) * dense.exact_den for h in mix_h(design).values]
        assert all(v.denominator == 1 for v in scaled)
        want = np.diag(np.repeat([int(v) for v in scaled], spec.block_dims))
        assert np.array_equal(dense.exact_num, want)
        assert np.array_equal(dense.entries, dense.exact_num / dense.exact_den)

    def test_k9_full_profile_optimum_equals_closed_form_integers(self):
        # p = 255 and 61 440 rows: both orbits of the optimum, no variance sweep
        spec = ModelSpec(9, 9)
        design = optimize_full(spec).design
        assert design.weights == {3: Fraction(7, 10), 7: Fraction(3, 10)}
        explicit = realize_design(design)
        assert spec.n_params == 255 and len(explicit.entries) == 61_440
        dense = info_matrix_exact(explicit)
        assert dense.is_exact and dense.exact_den == 61_440
        scaled = [Fraction(h) * dense.exact_den for h in mix_h(design).values]
        assert all(v.denominator == 1 for v in scaled)
        want = np.diag(np.repeat([int(v) for v in scaled], spec.block_dims))
        assert np.array_equal(dense.exact_num, want)

    def test_k10_full_profile_optimum_equals_closed_form_and_sweeps_tight(self):
        # p = 385 and 168 960 rows on one subset: 1024 x 1024 pattern-pair
        # counts for the oracle, every pair of 1024 profiles for the sweep
        spec = ModelSpec(10, 10)
        design = optimize_full(spec).design
        assert design.is_exact and spec.n_params == 385
        explicit = realize_design(design)
        assert len(explicit.weights) == 168_960
        dense = info_matrix_exact(explicit)
        assert dense.is_exact
        scaled = [Fraction(h) * dense.exact_den for h in mix_h(design).values]
        assert all(v.denominator == 1 for v in scaled)
        want = np.diag(np.repeat([int(v) for v in scaled], spec.block_dims))
        assert np.array_equal(dense.exact_num, want)
        assert variance_sweep_max_deviation(design, info=dense) <= 1e-9 * spec.n_params

    @pytest.mark.parametrize(
        "denominator,exact",
        [(_MAX_EXACT_DENOMINATOR, True), (_MAX_EXACT_DENOMINATOR + 1, False)],
    )
    def test_denominator_limit_selects_path(self, spec44, denominator, exact):
        pairs = list(enumerate_orbit(spec44, 2))
        weights = [Fraction(1, denominator)] * (len(pairs) - 1)
        weights.append(1 - sum(weights))
        dense = info_matrix_exact(ExplicitDesign(tuple(zip(pairs, weights)), spec44))
        assert dense.is_exact is exact
        floats = ExplicitDesign(tuple(zip(pairs, map(float, weights))), spec44)
        reference = info_matrix_exact(floats).entries
        assert np.max(np.abs(dense.entries - reference)) <= 1e-12


def full_width_info(explicit):
    """Reference accumulation over every model column, one pass over all rows."""
    k = explicit.spec.n_attributes
    diffs = (
        _regression_matrix(explicit.firsts, k) - _regression_matrix(explicit.seconds, k)
    ).astype(float)
    return diffs.T @ (diffs * explicit.weights.astype(float)[:, None])


class TestOracleBySubset:
    """The oracle accumulates per shown subset; K=7 S=5 has 21 of them."""

    @pytest.fixture(scope="class")
    def optimum(self):
        return optimize_full(ModelSpec(7, 5)).design

    @staticmethod
    def shuffled(explicit, seed=7):
        rows = np.random.default_rng(seed).permutation(len(explicit.weights))
        return ExplicitDesign.from_arrays(
            explicit.firsts[rows], explicit.seconds[rows], explicit.weights[rows],
            explicit.spec, explicit.denominator,
        )

    def test_exact_path_equals_full_width_reference(self, optimum):
        assert optimum.is_exact
        explicit = realize_design(optimum)
        dense = info_matrix_exact(explicit)
        assert dense.is_exact
        reference = full_width_info(explicit)
        assert np.array_equal(dense.exact_num, reference.astype(np.int64))
        shuffled = self.shuffled(explicit)
        assert not np.array_equal(shuffled.firsts != 0, explicit.firsts != 0)
        again = info_matrix_exact(shuffled)
        assert again.exact_den == dense.exact_den
        assert np.array_equal(again.exact_num, dense.exact_num)

    def test_float_path_matches_full_width_reference(self, optimum):
        floats = DepthDesign({d: float(w) for d, w in optimum.weights.items()}, optimum.spec)
        for explicit in (realize_design(floats), self.shuffled(realize_design(floats))):
            dense = info_matrix_exact(explicit)
            assert not dense.is_exact
            reference = full_width_info(explicit)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(dense.entries - reference)) <= 1e-12 * scale

    def test_chunking_leaves_exact_result_unchanged(self, optimum, monkeypatch):
        explicit = realize_design(optimum)
        whole = info_matrix_exact(explicit)
        # batches of 4 of the 21 subsets, 4^5 counts each; the shuffled rows
        # of one batch are spread over the whole design
        monkeypatch.setattr(oracle, "_BLOCK_FLOATS", 4 * 4**5)
        bincount, lengths = np.bincount, []

        def recording(indices, weights=None, minlength=0):
            lengths.append(minlength)
            return bincount(indices, weights, minlength)

        monkeypatch.setattr(np, "bincount", recording)
        for design in (explicit, self.shuffled(explicit)):
            lengths.clear()
            chunked = info_matrix_exact(design)
            # the 2^7 subset keys, then per batch its subsets' counts and the
            # scatter into the 98 x 98 matrix
            assert lengths == [2**7] + [4 * 4**5, 98 * 98] * 5 + [4**5, 98 * 98]
            assert chunked.exact_den == whole.exact_den
            assert np.array_equal(chunked.exact_num, whole.exact_num)

    @pytest.mark.parametrize("k,s", [(7, 5), (6, 6)])
    def test_random_rows_match_full_width_reference(self, k, s):
        # rows that form no orbit, with distinct weights: a row read from the
        # wrong pattern of the level table cannot cancel out
        spec, n = ModelSpec(k, s), 600
        rng = np.random.default_rng(k * s)
        shown = np.argsort(rng.random((n, k)), axis=1)[:, :s]
        firsts = np.zeros((n, k), dtype=np.int8)
        np.put_along_axis(firsts, shown, rng.choice(np.array([-1, 1], np.int8), (n, s)), axis=1)
        seconds = np.where(rng.random((n, k)) < 0.5, -firsts, firsts)
        counts = rng.permutation(np.arange(1, n + 1))
        exact = ExplicitDesign.from_arrays(firsts, seconds, counts, spec, int(counts.sum()))
        dense = info_matrix_exact(exact)
        assert dense.is_exact and dense.exact_den == counts.sum()
        assert np.array_equal(dense.exact_num, full_width_info(exact).astype(np.int64))
        floats = ExplicitDesign.from_arrays(firsts, seconds, counts / counts.sum(), spec)
        dense = info_matrix_exact(floats)
        assert not dense.is_exact
        reference = full_width_info(floats)
        assert np.max(np.abs(dense.entries - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_hand_built_rows_match_full_width_reference(self):
        # the pattern-pair counts W are read in both orientations: a depth-0
        # row adds nothing, a pair and its reverse add the same outer product,
        # and a repeated pair adds its two weights
        spec = ModelSpec(5, 4)
        a, b = [1, 1, -1, 0, 1], [-1, 1, 1, 0, 1]
        c, d = [0, 1, 1, 1, -1], [0, -1, 1, -1, -1]
        same = [1, -1, 1, 1, 0]
        firsts = np.array([same, a, b, c, c], dtype=np.int8)
        seconds = np.array([same, b, a, d, d], dtype=np.int8)
        counts = np.array([5, 2, 3, 7, 11])
        explicit = ExplicitDesign.from_arrays(firsts, seconds, counts, spec, 28)
        dense = info_matrix_exact(explicit)
        assert dense.is_exact and dense.exact_den == 28
        assert np.array_equal(dense.exact_num, full_width_info(explicit).astype(np.int64))
