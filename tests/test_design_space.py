"""Profiles, pairs, enumeration and counting."""

import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdesign import (
    ComparisonPair,
    DepthDesign,
    ExplicitDesign,
    InvalidPairError,
    ModelSpec,
    Profile,
    comparison_depth,
    count_pairs,
    enumerate_orbit,
    kw_certify,
    optimize_full,
    param_dims,
    realize_design,
    regression_vector,
)

from pairdesign import design_space
from pairdesign.oracle import _fill_block, _regression_matrix, _subset_terms

from conftest import reference_pairs, reference_regression


def reference_orbit_stream(k, s, depth):
    """The documented stream order by lazy nested loops: subsets, levels, flips."""
    for support in itertools.combinations(range(k), s):
        for levels in itertools.product((-1, 1), repeat=s):
            first = [0] * k
            for pos, value in zip(support, levels):
                first[pos] = value
            for flips in itertools.combinations(range(s), depth):
                second = list(first)
                for index in flips:
                    second[support[index]] = -second[support[index]]
                yield tuple(first), tuple(second)


def ordered_reference_orbit(k, s, depth):
    return list(reference_orbit_stream(k, s, depth))


class TestParamDims:
    def test_k4(self):
        assert param_dims(4) == (4, 6, 4, 1, 15)

    def test_k5(self):
        assert param_dims(5) == (5, 10, 10, 5, 30)

    def test_k12(self):
        # brute-force count of index tuples
        k = 12
        p2 = sum(1 for _ in itertools.combinations(range(k), 2))
        p3 = sum(1 for _ in itertools.combinations(range(k), 3))
        p4 = sum(1 for _ in itertools.combinations(range(k), 4))
        assert param_dims(12) == (12, p2, p3, p4, 12 + p2 + p3 + p4)
        assert param_dims(12) == (12, 66, 220, 495, 793)

    def test_too_small(self):
        with pytest.raises(ValueError):
            param_dims(3)

    @pytest.mark.parametrize("k", [4.5, float("inf"), True, None])
    def test_non_integral_count_is_refused_not_truncated(self, k):
        message = re.escape(f"n_attributes must be an integer, got {k!r}")
        with pytest.raises(ValueError, match=message):
            param_dims(k)

    def test_integral_float_count_is_its_int(self):
        assert param_dims(6.0) == param_dims(np.int64(6)) == param_dims(6)


class TestModelSpec:
    def test_blocks(self, spec55):
        assert spec55.block_dims == (5, 10, 10, 5)
        assert spec55.n_params == 30

    @pytest.mark.parametrize("k,s", [(4, 3), (4, 5), (5, 3), (3, 3)])
    def test_invalid_strength(self, k, s):
        with pytest.raises(ValueError):
            ModelSpec(k, s)

    @pytest.mark.parametrize(
        "k,s,name", [(6, 5.5, "strength"), (6.5, 5, "n_attributes"), ("6", 5, "n_attributes"),
                     (6, Fraction(9, 2), "strength"), (float("inf"), 5, "n_attributes"),
                     (float("nan"), 5, "n_attributes"), (None, 5, "n_attributes"),
                     (6, True, "strength")]
    )
    def test_non_integral_dimension_is_refused_not_truncated(self, k, s, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            ModelSpec(k, s)

    @pytest.mark.parametrize("k,s", [(6, 5.0), (6.0, 5), (np.int64(6), Fraction(5))])
    def test_integral_dimensions_are_stored_as_ints(self, k, s):
        spec = ModelSpec(k, s)
        assert spec == ModelSpec(6, 5) and type(spec.n_attributes) is type(spec.strength) is int
        assert spec.n_params == ModelSpec(6, 5).n_params


class TestProfile:
    def test_round_trip(self):
        profile = Profile.from_text("1,-1,0,1,1")
        assert profile.levels == (1, -1, 0, 1, 1)
        assert profile.strength == 4
        assert profile.active == (0, 1, 3, 4)
        assert profile.to_text() == "1,-1,0,1,1"

    def test_bad_level(self):
        with pytest.raises(ValueError):
            Profile((1, 2, 0, 1))
        # True and False were read as 1 and 0
        with pytest.raises(ValueError, match="got \\(True, False, -1, 1\\)"):
            Profile((True, False, -1, 1))

    @pytest.mark.parametrize(
        "bad", [0.5, -0.5, 0.9, 1.9, -1.7, float("nan"), "1", [1], True, False]
    )
    def test_non_integral_level_is_refused_not_truncated(self, bad):
        with pytest.raises(ValueError, match="levels must be -1, 0 or \\+1"):
            Profile((bad, 1, -1, 1, 1))

    def test_integral_float_levels_are_accepted(self):
        assert Profile((1.0, -1.0, 0.0, 1, np.int8(-1))).levels == (1, -1, 0, 1, -1)

    def test_bad_text(self):
        with pytest.raises(ValueError):
            Profile.from_text("1,x,0")


class TestRegressionVector:
    def test_all_ones(self, spec44):
        f = regression_vector(Profile((1, 1, 1, 1)), spec44)
        assert f.tolist() == [1] * 15

    def test_alternating(self, spec44):
        f = regression_vector(Profile((1, -1, 1, -1)), spec44)
        mains = [1, -1, 1, -1]
        pairs = [-1, 1, -1, -1, 1, -1]
        triples = [-1, 1, -1, 1]
        quad = [1]
        assert f.tolist() == mains + pairs + triples + quad

    def test_matches_reference(self, spec54):
        profile = Profile((1, 1, 0, 1, 1))
        f = regression_vector(profile, spec54)
        assert f.tolist() == reference_regression(profile.levels)

    def test_hidden_attribute_zeroes_products(self, spec54):
        f = regression_vector(Profile((1, 1, 0, 1, 1)), spec54)
        # every component whose index tuple contains attribute 3 must be 0
        names = [(i,) for i in range(5)]
        for r in (2, 3, 4):
            names.extend(itertools.combinations(range(5), r))
        for name, value in zip(names, f.tolist()):
            if 2 in name:
                assert value == 0
            else:
                assert value in (-1, 1)

    @pytest.mark.parametrize(
        "subset", [(0, 1, 2, 3), (0, 2, 4, 6), (1, 2, 3, 5, 6), (0, 1, 3, 4, 5, 6), tuple(range(7))]
    )
    def test_subset_terms_are_the_shown_terms(self, subset):
        spec = ModelSpec(7, len(subset))
        levels = np.zeros(7, dtype=np.int64)
        levels[list(subset)] = [(-1) ** n for n in range(len(subset))]
        row = regression_vector(Profile(tuple(levels)), spec)
        columns = _subset_terms([subset], 7)[0]
        assert columns.tolist() == np.flatnonzero(row).tolist()
        every = list(itertools.combinations(range(7), len(subset)))
        assert _subset_terms(every, 7)[every.index(subset)].tolist() == columns.tolist()
        # the S-attribute regression row scatters into exactly these columns
        shown = _regression_matrix(levels[None, list(subset)], len(subset))[0]
        assert row[columns].tolist() == shown.tolist()

    def test_wrong_length(self, spec44):
        with pytest.raises(ValueError):
            regression_vector(Profile((1, 1, 1)), spec44)

    def test_wrong_strength(self, spec55):
        with pytest.raises(ValueError):
            regression_vector(Profile((1, 1, 0, 1, 1)), spec55)


class TestComparisonDepth:
    def test_identical(self):
        i = Profile((1, -1, 0, 1, 1))
        assert comparison_depth(i, i) == 0

    def test_all_flipped(self):
        assert comparison_depth(Profile((1, 1, 1, 1)), Profile((-1, -1, -1, -1))) == 4

    def test_partial(self):
        i = Profile((1, 1, 0, 1, 1))
        j = Profile((1, -1, 0, -1, 1))
        assert comparison_depth(i, j) == 2
        assert ComparisonPair(i, j).depth == 2

    def test_mismatched_support(self):
        with pytest.raises(InvalidPairError):
            comparison_depth(Profile((1, 1, 0, 1, 1)), Profile((1, 1, 1, 0, 1)))

    def test_mismatched_length(self):
        with pytest.raises(InvalidPairError):
            ComparisonPair(Profile((1, 1)), Profile((1, 1, 1)))

    def test_pair_text_round_trip(self):
        pair = ComparisonPair.from_text("1,-1,0,1,1|1,1,0,1,-1")
        assert pair.depth == 2
        assert pair.to_text() == "1,-1,0,1,1|1,1,0,1,-1"


class TestCounting:
    def test_examples(self, spec44, spec54):
        assert count_pairs(spec44, 2) == 96
        assert count_pairs(spec54, 4) == 80
        assert [count_pairs(spec44, d) for d in range(5)] == [16, 64, 96, 64, 16]

    def test_out_of_range(self, spec44):
        with pytest.raises(ValueError):
            count_pairs(spec44, 5)
        with pytest.raises(ValueError):
            count_pairs(spec44, -1)

    @pytest.mark.parametrize("depth", [2.5, float("inf"), True, "2"])
    def test_non_integral_depth_is_refused_not_truncated(self, depth):
        # True was read as depth 1: 384 pairs
        message = re.escape(f"depth must be an integer, got {depth!r}")
        with pytest.raises(ValueError, match=message):
            count_pairs(ModelSpec(6, 6), depth)
        with pytest.raises(ValueError, match=message):
            next(enumerate_orbit(ModelSpec(6, 6), depth))

    def test_integral_float_depth_is_its_int(self):
        assert count_pairs(ModelSpec(6, 6), 2.0) == count_pairs(ModelSpec(6, 6), 2) == 960

    @pytest.mark.parametrize("k,s", [(4, 4), (5, 4), (5, 5), (6, 4), (6, 5), (6, 6)])
    def test_matches_enumeration(self, k, s):
        spec = ModelSpec(k, s)
        for d in range(s + 1):
            assert sum(1 for _ in enumerate_orbit(spec, d)) == count_pairs(spec, d)


class TestEnumerateOrbit:
    def test_tiny_space_by_hand(self):
        # the smallest space: every profile of K = S = 4, one level flipped
        pairs = [(p.first.levels, p.second.levels) for p in enumerate_orbit(ModelSpec(4, 4), 1)]
        assert len(pairs) == 64
        expected = set()
        for i in itertools.product((-1, 1), repeat=4):
            for flip in range(4):
                j = list(i)
                j[flip] = -j[flip]
                expected.add((i, tuple(j)))
        assert set(pairs) == expected

    def test_depth_equals_strength(self, spec44):
        pairs = list(enumerate_orbit(spec44, 4))
        assert len(pairs) == 16
        for pair in pairs:
            assert pair.second.levels == tuple(-v for v in pair.first.levels)

    def test_count_k5_d1(self, spec54):
        assert sum(1 for _ in enumerate_orbit(spec54, 1)) == 5 * 2**4 * 4 == 320

    def test_yields_correct_depth_exactly_once(self, spec54):
        seen = set()
        for pair in enumerate_orbit(spec54, 2):
            assert pair.depth == 2
            key = (pair.first.levels, pair.second.levels)
            assert key not in seen
            seen.add(key)
        assert len(seen) == count_pairs(spec54, 2)

    def test_deterministic(self, spec44):
        first = [(p.first.levels, p.second.levels) for p in enumerate_orbit(spec44, 2)]
        second = [(p.first.levels, p.second.levels) for p in enumerate_orbit(spec44, 2)]
        assert first == second

    def test_matches_reference_enumeration(self):
        for k, s, d in [(4, 4, 2), (5, 4, 1), (5, 4, 3), (5, 5, 5)]:
            ours = {
                (p.first.levels, p.second.levels)
                for p in enumerate_orbit(ModelSpec(k, s), d)
            }
            assert ours == set(reference_pairs(k, s, d))

    def test_orbit_closed_under_permutation_and_sign_flip(self, spec54):
        orbit = {
            (p.first.levels, p.second.levels) for p in enumerate_orbit(spec54, 2)
        }
        rng = random.Random(7)
        for _ in range(5):
            perm = list(range(5))
            rng.shuffle(perm)
            flip_at = rng.randrange(5)
            mapped = set()
            for i, j in orbit:
                i2 = [i[perm[idx]] for idx in range(5)]
                j2 = [j[perm[idx]] for idx in range(5)]
                i2[flip_at] = -i2[flip_at]
                j2[flip_at] = -j2[flip_at]
                mapped.add((tuple(i2), tuple(j2)))
            assert mapped == orbit

    @pytest.mark.parametrize("k,s", [(4, 4), (5, 4), (5, 5)])
    def test_orbits_partition_design_region(self, k, s):
        spec = ModelSpec(k, s)
        by_depth = [
            {(p.first.levels, p.second.levels) for p in enumerate_orbit(spec, d)}
            for d in range(s + 1)
        ]
        for a in range(len(by_depth)):
            for b in range(a + 1, len(by_depth)):
                assert not (by_depth[a] & by_depth[b])
        union = set().union(*by_depth)
        everything = {
            (i, j)
            for d in range(s + 1)
            for i, j in reference_pairs(k, s, d)
        }
        assert union == everything


def filled_blocks(k, s, d):
    """Each ``_orbit_order`` block of one orbit as int8 ``(firsts, seconds)`` arrays."""
    for block in design_space._orbit_order(ModelSpec(k, s), d):
        firsts = np.zeros((block.n_rows, k), dtype=np.int8)
        seconds = np.zeros_like(firsts)
        _fill_block(block, firsts, seconds)
        yield firsts, seconds


class TestOrbitBlocks:
    @pytest.mark.parametrize("k,s,d", [(5, 4, 2), (6, 6, 1), (7, 7, 7)])
    @pytest.mark.parametrize("chunk", [1 << 16, 1, 5, 16, 100, 1000])
    def test_blocks_concatenate_to_orbit_stream(self, k, s, d, chunk, monkeypatch):
        # small chunks split flip masks, level patterns and subsets across blocks
        monkeypatch.setattr(design_space, "_ORBIT_BLOCK_ROWS", chunk)
        blocks = list(filled_blocks(k, s, d))
        assert all(f.dtype == np.int8 and g.dtype == np.int8 for f, g in blocks)
        assert all(0 < len(f) == len(g) <= chunk for f, g in blocks)
        firsts = np.concatenate([f for f, _ in blocks]).tolist()
        seconds = np.concatenate([g for _, g in blocks]).tolist()
        rows = [(tuple(f), tuple(g)) for f, g in zip(firsts, seconds)]
        assert rows == [
            (p.first.levels, p.second.levels) for p in enumerate_orbit(ModelSpec(k, s), d)
        ]
        assert rows == ordered_reference_orbit(k, s, d)

    def test_default_block_holds_many_subsets(self):
        # 495 subsets x 16 level patterns x 6 flip masks = 47 520 rows in one block
        (firsts, seconds), = filled_blocks(12, 4, 2)
        rows = list(zip(map(tuple, firsts.tolist()), map(tuple, seconds.tolist())))
        assert rows == ordered_reference_orbit(12, 4, 2)

    def test_level_pattern_bits_past_64(self):
        # at S=70 attributes 0..5 read bits 69..64 of the pattern index, which
        # numpy's >> must read as 0 (not wrap round to bits 5..0)
        firsts, seconds = next(filled_blocks(70, 70, 1))
        assert len(firsts) == (design_space._ORBIT_BLOCK_ROWS // 70) * 70
        head = itertools.islice(reference_orbit_stream(70, 70, 1), len(firsts))
        rows = list(zip(map(tuple, firsts.tolist()), map(tuple, seconds.tolist())))
        assert rows == list(head)

    def test_huge_orbit_streams(self):
        # 2^40 level patterns times C(40, 20) flip masks: only the first block is built
        pair = next(enumerate_orbit(ModelSpec(40, 40), 20))
        assert pair.first.levels == (-1,) * 40
        assert pair.second.levels == (1,) * 20 + (-1,) * 20

    def test_depth_zero_and_bad_depth(self):
        (firsts, seconds), = filled_blocks(4, 4, 0)
        assert len(firsts) == 16 and np.array_equal(firsts, seconds)
        with pytest.raises(ValueError):
            next(filled_blocks(4, 4, 5))


class TestDesigns:
    def test_depth_design_validation(self, spec44):
        with pytest.raises(ValueError):
            DepthDesign({0: 0.5, 1: 0.5}, spec44)
        with pytest.raises(ValueError):
            DepthDesign({1: 0.5, 5: 0.5}, spec44)
        with pytest.raises(ValueError):
            DepthDesign({1: -0.1, 2: 1.1}, spec44)
        with pytest.raises(ValueError):
            DepthDesign({1: 0.5, 2: 0.6}, spec44)

    @pytest.mark.parametrize("depth", [2.7, 2.5, Fraction(5, 2), float("inf"), True])
    def test_non_integral_depth_is_refused_not_truncated(self, depth):
        # True was read as depth 1
        with pytest.raises(ValueError, match=re.escape(f"depth must be an integer, got {depth!r}")):
            DepthDesign({depth: 1}, ModelSpec(5, 4))

    def test_integral_float_depth_is_accepted(self):
        assert DepthDesign({2.0: 1}, ModelSpec(5, 4)).weights == {2: 1}

    @pytest.mark.parametrize(
        "weights",
        [{1: float("nan"), 2: 1.0}, {2: float("nan")}, {1: Fraction(1, 2), 2: float("nan")}],
    )
    def test_depth_design_rejects_nan(self, spec44, weights):
        with pytest.raises(ValueError, match="sum"):
            DepthDesign(weights, spec44)

    def test_exact_weights_sum_to_exactly_one(self, spec44):
        optimum = {1: Fraction(4, 15), 2: Fraction(2, 5), 3: Fraction(4, 15), 4: Fraction(1, 15)}
        off = {**optimum, 1: optimum[1] + Fraction(1, 10**13)}
        with pytest.raises(ValueError, match="sum to 10000000000001/10000000000000, not 1"):
            DepthDesign(off, spec44)
        # float weights keep the 1e-12 tolerance
        assert not DepthDesign({d: float(w) for d, w in off.items()}, spec44).is_exact
        assert DepthDesign(optimum, spec44).is_exact

    def test_support_and_exactness(self, spec44):
        from fractions import Fraction

        design = DepthDesign({1: Fraction(1, 2), 3: Fraction(1, 2)}, spec44)
        assert design.support == (1, 3)
        assert design.is_exact
        assert not DepthDesign({1: 0.5, 3: 0.5}, spec44).is_exact

    def test_rational_weights_are_held_as_fractions(self, spec44):
        design = DepthDesign({1: np.int64(1), 2: 0}, spec44)
        assert design.is_exact and design.support == (1,)
        assert all(type(w) is Fraction for w in design.weights.values())
        floats = DepthDesign({1: np.float64(0.5), 3: 0.5}, spec44)
        assert all(type(w) is float for w in floats.weights.values())

    def test_numpy_int_point_mass_is_proved_at_tol_0(self):
        report = kw_certify(DepthDesign({1: np.int64(1)}, ModelSpec(19, 4)))
        assert report.certified and report.tol == 0

    @pytest.mark.parametrize("weight", [Decimal(1), True, "1", 1j])
    def test_weight_that_is_not_a_real_is_refused(self, spec44, weight):
        message = re.escape(f"a weight must be a real number, got {weight!r}")
        with pytest.raises(ValueError, match=message):
            DepthDesign({1: weight}, spec44)
        pair = ComparisonPair(Profile((1, 1, 1, 1)), Profile((-1, 1, 1, 1)))
        with pytest.raises(ValueError, match=message):
            ExplicitDesign(((pair, weight),), spec44)

    def test_realize_uniform_rows(self, spec44):
        from fractions import Fraction

        design = DepthDesign({2: Fraction(1)}, spec44)
        explicit = realize_design(design)
        assert len(explicit.entries) == 96
        assert all(w == Fraction(1, 96) for _, w in explicit.entries)

    def test_explicit_design_validation(self, spec44, spec54):
        pair44 = ComparisonPair(Profile((1, 1, 1, 1)), Profile((-1, 1, 1, 1)))
        with pytest.raises(ValueError):
            ExplicitDesign(((pair44, 0.5),), spec44)  # weights must sum to 1
        with pytest.raises(ValueError):
            ExplicitDesign(((pair44, 1.0),), spec54)  # wrong attribute count


class TestExplicitDesignArrays:
    """Both constructors accept and reject the same rows."""

    FIRST = (1, 1, 1, 1, 0)
    SECOND = (-1, 1, 1, 1, 0)

    def build(self, spec, firsts, seconds, weights):
        """The design through both constructors; one of them raising fails both."""
        by_arrays = ExplicitDesign.from_arrays(
            np.array(firsts), np.array(seconds), np.array(weights, dtype=float), spec
        )
        pairs = [ComparisonPair(Profile(i), Profile(j)) for i, j in zip(firsts, seconds)]
        by_pairs = ExplicitDesign(tuple(zip(pairs, weights)), spec)
        return by_arrays, by_pairs

    def test_accepts_depth_zero_pairs(self, spec54):
        for design in self.build(spec54, [self.FIRST] * 2, [self.FIRST, self.SECOND], [0.5, 0.5]):
            assert len(design.entries) == 2
            assert [pair.depth for pair, _ in design.entries] == [0, 1]

    @pytest.mark.parametrize(
        "second,error",
        [
            ((-1, 1, 1, 0, 1), InvalidPairError),
            ((1, 1, 1, 1, 1), InvalidPairError),
            ((-1, 1, 1, 0, 0), InvalidPairError),
            ((-1, 1, 1, 2, 0), ValueError),
        ],
        ids=["shown-attributes-differ", "hidden-in-first-only", "hidden-in-second-only", "level-2"],
    )
    def test_rejects_bad_levels(self, spec54, second, error):
        with pytest.raises(error):
            ExplicitDesign.from_arrays(
                np.array([self.FIRST]), np.array([second]), np.array([1.0]), spec54
            )
        # a pair object refuses the same rows on construction
        with pytest.raises(error):
            ComparisonPair(Profile(self.FIRST), Profile(second))

    @pytest.mark.parametrize(
        "rows,weights",
        [
            ([((1, 1, 1, 1, 1), (-1, 1, 1, 1, 1))], [1.0]),  # strength 5, spec has 4
            ([((1, 1, 1, 1), (-1, 1, 1, 1))], [1.0]),  # 4 attributes, spec has 5
            ([(FIRST, SECOND)] * 2, [1.5, -0.5]),  # negative weight
            ([(FIRST, SECOND)] * 2, [0.5, 0.4]),  # sum 0.9
            ([], []),  # no rows, sum 0
            ([(FIRST, SECOND)] * 2, [float("nan"), 1.0]),  # NaN passes w < 0
        ],
        ids=["strength", "attributes", "negative", "sum", "empty", "nan"],
    )
    def test_rejects_bad_rows_and_weights(self, spec54, rows, weights):
        firsts = [i for i, _ in rows]
        seconds = [j for _, j in rows]
        with pytest.raises(ValueError):
            ExplicitDesign.from_arrays(
                np.array(firsts, dtype=np.int8).reshape(len(rows), -1),
                np.array(seconds, dtype=np.int8).reshape(len(rows), -1),
                np.array(weights, dtype=float),
                spec54,
            )
        pairs = [ComparisonPair(Profile(i), Profile(j)) for i, j in rows]
        with pytest.raises(ValueError):
            ExplicitDesign(tuple(zip(pairs, weights)), spec54)

    @pytest.mark.parametrize("bad", [0.5, -0.5, 0.9, float("nan")])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_non_integral_level_is_refused_not_truncated(self, spec54, bad, side):
        # a level of 0.5 would become a hidden attribute; NaN would warn in the cast
        row = {"first": list(self.FIRST), "second": list(self.SECOND)}
        row[side][3] = bad
        with pytest.raises(ValueError, match="row 0: levels must be -1, 0 or \\+1"):
            ExplicitDesign.from_arrays(
                np.array([row["first"]], dtype=float),
                np.array([row["second"]], dtype=float),
                np.array([1.0]),
                spec54,
            )
        with pytest.raises(ValueError, match="levels must be -1, 0 or \\+1"):
            pair = ComparisonPair(Profile(row["first"]), Profile(row["second"]))
            ExplicitDesign(((pair, 1.0),), spec54)

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_bool_level_array_is_refused(self, spec54, side):
        # a bool array would hold every -1 of the row as True, read as +1
        arrays = {"first": np.array([self.FIRST]), "second": np.array([self.SECOND])}
        arrays[side] = arrays[side].astype(bool)
        with pytest.raises(ValueError, match=f"{side} profiles: levels must be -1, 0 or \\+1"):
            ExplicitDesign.from_arrays(arrays["first"], arrays["second"], np.array([1.0]), spec54)

    @pytest.mark.parametrize(
        "weights,denominator,message",
        [
            (np.array([[1.0]]), None, "row weights have shape \\(1, 1\\), expected one axis"),
            (np.array([True]), None, "a weight must be a real number, got bool row weights"),
            (np.array([1.0]), 1, "exact weights need integer numerators"),
            (np.array([1]), True, "denominator must be an integer, got True"),
            (np.array([1]), 2.5, "denominator must be an integer, got 2.5"),
            # 1 and 10^13 - 1 share no factor with 10^13, so nothing reduces
            (np.array([1, 10**13 - 1]), 10**13, f"at most {10**12}, got {10**13}; pass float"),
        ],
        ids=["two-axes", "bool-weights", "float-numerators", "bool-denominator", "half-den", "cap"],
    )
    def test_rejects_bad_weight_arrays(self, spec54, weights, denominator, message):
        rows = len(weights)
        firsts, seconds = np.array([self.FIRST] * rows), np.array([self.SECOND] * rows)
        with pytest.raises(ValueError, match=message):
            ExplicitDesign.from_arrays(firsts, seconds, weights, spec54, denominator)

    def test_integral_float_levels_are_accepted(self, spec54):
        design = ExplicitDesign.from_arrays(
            np.array([self.FIRST], dtype=float), np.array([self.SECOND], dtype=float),
            np.array([1.0]), spec54,
        )
        assert design.firsts.tolist() == [list(self.FIRST)]
        assert design.seconds.tolist() == [list(self.SECOND)]

    def test_weight_sum_tolerance_grows_with_rows(self, spec54):
        n = 4000
        firsts, seconds = [self.FIRST] * n, [self.SECOND] * n
        # within 1e-15 per row of 1, past 1e-12
        self.build(spec54, firsts, seconds, [1 / n] * (n - 1) + [1 / n + 3e-12])
        with pytest.raises(ValueError):
            self.build(spec54, firsts, seconds, [1 / n] * (n - 1) + [1 / n + 5e-12])

    def test_exact_weights_share_one_denominator(self, spec54):
        pair = ComparisonPair(Profile(self.FIRST), Profile(self.SECOND))
        weights = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        design = ExplicitDesign(tuple((pair, w) for w in weights), spec54)
        assert design.is_exact and design.denominator == 6
        assert design.weights.dtype == np.int64 and design.weights.tolist() == [1, 2, 3]
        assert design.firsts.dtype == np.int8 and design.firsts.shape == (3, 5)
        # numerators over a larger common denominator are reduced
        scaled = ExplicitDesign.from_arrays(
            design.firsts, design.seconds, design.weights * 7, spec54, denominator=42
        )
        assert scaled.denominator == 6 and scaled.weights.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            design.firsts[0, 0] = -1

    def test_realized_entries_match_the_pair_tuple(self):
        spec = ModelSpec(5, 4)
        design = optimize_full(spec).design
        assert design.is_exact
        expected = []
        for depth in design.support:
            share = Fraction(design.weights[depth]) / count_pairs(spec, depth)
            expected.extend((pair, share) for pair in enumerate_orbit(spec, depth))
        entries = realize_design(design).entries
        assert len(entries) == len(expected) == 640
        for (pair, weight), (want_pair, want_weight) in zip(entries, expected):
            assert pair == want_pair
            assert weight == want_weight and type(weight) is Fraction
        assert entries[-1] == expected[-1]
        assert entries[10:13] == tuple(expected[10:13])
        with pytest.raises(IndexError):
            entries[len(expected)]

    def test_float_weights_stay_float(self, spec44):
        design = DepthDesign({1: 0.25, 3: 0.75}, spec44)
        explicit = realize_design(design)
        assert not explicit.is_exact and explicit.denominator is None
        assert explicit.weights.dtype == np.float64
        _, weight = explicit.entries[0]
        assert type(weight) is float and weight == 0.25 / count_pairs(spec44, 1)


@given(
    st.lists(st.sampled_from((-1, 1)), min_size=4, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_full_profile_regression_entries(levels):
    k = len(levels)
    spec = ModelSpec(k, k)
    f = regression_vector(Profile(tuple(levels)), spec)
    assert set(np.unique(f)).issubset({-1, 1})
    assert len(f) == spec.n_params


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_pair_depth_bounds(data):
    k = data.draw(st.integers(min_value=4, max_value=7))
    s = data.draw(st.integers(min_value=4, max_value=k))
    support = data.draw(
        st.permutations(range(k)).map(lambda p: tuple(sorted(p[:s])))
    )
    levels_i = data.draw(st.tuples(*[st.sampled_from((-1, 1)) for _ in range(s)]))
    levels_j = data.draw(st.tuples(*[st.sampled_from((-1, 1)) for _ in range(s)]))
    i = [0] * k
    j = [0] * k
    for pos, a, b in zip(support, levels_i, levels_j):
        i[pos], j[pos] = a, b
    pair = ComparisonPair(Profile(tuple(i)), Profile(tuple(j)))
    assert 0 <= pair.depth <= s
    assert pair.depth == sum(1 for a, b in zip(levels_i, levels_j) if a != b)
