"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines; a test that fails its assertions prints nothing and fails loudly.
"""

import csv
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from pairdesign import (
    ComparisonPair,
    DepthDesign,
    ExplicitDesign,
    ModelSpec,
    Profile,
    conjectured_design,
    count_pairs,
    enumerate_orbit,
    h_values,
    info_matrix_exact,
    mix_h,
    optimal_depth_first_order,
    optimal_depth_main,
    optimal_depth_second_order,
    optimal_depth_third_order,
    optimize_full,
    realize_design,
    variance_exact,
    variance_profile,
)
from pairdesign.cli import main as cli_main

# reference rows frozen from the published tables
TABLE_1_ROW = (1, 1, 1, 1, 2, 2, 2, 3, 3)  # d* for S = 4..12
TABLE_2 = {
    5: (2, 0.667, 4, 0.333),
    6: (2, 0.714, 5, 0.286),
    7: (2, 0.750, 6, 0.250),
    8: (3, 0.667, 6, 0.333),
    9: (3, 0.700, 7, 0.300),
    10: (3, 0.727, 8, 0.273),
    11: (4, 0.667, 8, 0.333),
    12: (4, 0.692, 9, 0.308),
}
TABLE_3 = {
    5: (0.938, 1.000, 0.938, 1.000, 0.938),
    6: (0.850, 1.000, 0.950, 0.950, 1.000, 0.850),
    7: (0.792, 1.000, 0.982, 0.952, 0.982, 1.000, 0.792),
    8: (0.759, 0.998, 1.000, 0.954, 0.954, 1.000, 0.998, 0.759),
    9: (0.693, 0.958, 1.000, 0.966, 0.945, 0.966, 1.000, 0.958, 0.693),
    10: (0.644, 0.925, 1.000, 0.985, 0.958, 0.958, 0.985, 1.000, 0.925, 0.644),
    11: (0.609, 0.901, 0.999, 1.000, 0.973, 0.960, 0.973, 1.000, 0.999, 0.901, 0.609),
    12: (0.566, 0.860, 0.979, 1.000, 0.982, 0.963, 0.963, 0.982, 1.000, 0.979, 0.860, 0.566),
}


def report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


def test_criterion_1_block_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for k in (4, 5, 6):
        for s in range(4, k + 1):
            spec = ModelSpec(k, s)
            for depth in range(0, s + 1):
                n = count_pairs(spec, depth)
                pairs = list(enumerate_orbit(spec, depth))
                assert len(pairs) == n
                hv = h_values(spec, depth)
                diag = []
                for h, dim in zip(hv.values, spec.block_dims):
                    diag.extend([h] * dim)
                # exact rational path
                exact = info_matrix_exact(
                    ExplicitDesign(tuple((p, Fraction(1, n)) for p in pairs), spec)
                )
                assert exact.is_exact
                num, den = exact.exact_num, exact.exact_den
                for a in range(spec.n_params):
                    assert Fraction(int(num[a, a]), den) == diag[a]
                off = num.copy()
                np.fill_diagonal(off, 0)
                assert np.all(off == 0)
                # float path
                dense = info_matrix_exact(
                    ExplicitDesign(tuple((p, 1.0 / n) for p in pairs), spec)
                )
                assert np.max(np.abs(dense.entries - hv.as_matrix())) <= 1e-12
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    report(1, f"{checked} uniform-orbit matrices exact, float dev <= 1e-12, {elapsed:.2f}s")


def test_criterion_2_strength_four_optimum():
    start = time.perf_counter()
    result = optimize_full(ModelSpec(4, 4))
    expected = {1: 4 / 15, 2: 2 / 5, 3: 4 / 15, 4: 1 / 15}
    assert result.certified
    for depth, weight in expected.items():
        assert abs(float(result.design.weights[depth]) - weight) <= 1e-8
    profile = variance_profile(result.design)
    for depth in range(1, 5):
        assert abs(float(profile.values[depth]) - 15) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0
    report(2, f"weights (4/15, 2/5, 4/15, 1/15) and V=15 at every depth, {elapsed:.2f}s")


def test_criterion_3_third_order_depths():
    row = tuple(min(optimal_depth_third_order(s)) for s in range(4, 13))
    assert row == TABLE_1_ROW
    report(3, f"third-order depths {row} for S = 4..12")


def test_criterion_4_two_depth_designs():
    start = time.perf_counter()
    for s in range(5, 13):
        result = optimize_full(ModelSpec(s, s))
        d_low, w_low, d_high, w_high = TABLE_2[s]
        assert result.certified
        assert result.support == (d_low, d_high)
        assert round(float(result.design.weights[d_low]), 3) == w_low
        assert round(float(result.design.weights[d_high]), 3) == w_high
        # the refined rational weights satisfy the rule exactly
        assert d_low == (s + 1) // 3
        assert d_low + d_high == s + 1
        assert result.design.weights[d_low] == Fraction(d_high, s + 1)
        assert result.design.weights[d_high] == Fraction(d_low, s + 1)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    report(4, f"supports and 3-decimal weights for S = 5..12, exact rule w* = d1*/(S+1), {elapsed:.2f}s")


def test_criterion_5_normalized_variances():
    start = time.perf_counter()
    for k, expected_row in TABLE_3.items():
        spec = ModelSpec(k, k)
        design = conjectured_design(spec)
        profile = variance_profile(design)
        got = tuple(
            round(float(profile.values[d]) / spec.n_params, 3) for d in spec.depths
        )
        assert got == expected_row, (k, got)
        for depth in design.support:
            assert profile.values[depth] == spec.n_params  # exact unit entries
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0
    report(5, f"all normalized variance entries match to 3 decimals, {elapsed:.2f}s")


def test_criterion_6_subset_argmax_rules():
    for s in range(1, 13):
        assert optimal_depth_main(s) == {s}
    for s in range(2, 13):
        expected = {s // 2} if s % 2 == 0 else {(s - 1) // 2, (s + 1) // 2}
        assert optimal_depth_first_order(s) == expected
    for s in range(3, 13):
        expected = {1, 3} if s == 3 else {s}
        assert optimal_depth_second_order(s) == expected
    report(6, "argmax h1 = {S}, argmax h2 = nearest S/2, argmax h3 = {1,3} or {S}, S <= 12")


def test_criterion_7_equivalence_identities():
    rng = np.random.default_rng(31415)
    count = 0
    while count < 1000:
        k = int(rng.integers(4, 13))
        s = int(rng.integers(4, k + 1))
        spec = ModelSpec(k, s)
        weights = rng.dirichlet(np.ones(s))
        design = DepthDesign({d + 1: float(w) for d, w in enumerate(weights)}, spec)
        profile = variance_profile(design)  # identifiable by construction (all depths)
        total = sum(float(w) * float(profile.values[d]) for d, w in design.weights.items())
        assert abs(total - spec.n_params) <= 1e-9
        count += 1
    worst = 0.0
    pairs_checked = 0
    for k in (4, 5):
        for s in range(4, k + 1):
            spec = ModelSpec(k, s)
            design = DepthDesign(
                {d: Fraction(1, s - 1) for d in range(1, s)}, spec
            )
            closed = variance_profile(design)
            explicit = realize_design(design)
            dense = info_matrix_exact(explicit)
            for depth in range(0, s + 1):
                want = float(closed.values[depth]) if depth else 0.0
                for pair in enumerate_orbit(spec, depth):
                    got = variance_exact(pair, explicit, dense)
                    worst = max(worst, abs(got - want))
                    pairs_checked += 1
    assert worst <= 1e-10
    report(
        7,
        f"1000 random designs obey the trace identity; {pairs_checked} pair variances "
        f"match the closed form within {worst:.1e}",
    )


def test_criterion_8_support_bound():
    supports = {}
    for s in range(4, 13):
        result = optimize_full(ModelSpec(s, s))
        assert result.certified
        assert len(result.support) <= 4
        supports[s] = result.support
    report(8, f"certified supports {supports} all have size <= 4")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    worst = 0.0
    for k, s in [(4, 4), (5, 4)]:
        plan = tmp_path / f"plan_{k}_{s}.csv"
        assert cli_main(["optimize", "--k", str(k), "--s", str(s), "--export", str(plan)]) == 0
        assert cli_main(["verify", str(plan), "--oracle"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "block deviation" in l][0]
        assert float(line.rsplit(":", 1)[1]) <= 1e-12
        # independent re-ingestion: oracle matrix vs closed-form blocks
        with open(plan, newline="") as handle:
            rows = list(csv.DictReader(handle))
        spec = ModelSpec(k, s)
        entries = []
        depth_weights: dict[int, float] = {}
        for row in rows:
            i = tuple(int(row[f"i_{n}"]) for n in range(1, k + 1))
            j = tuple(int(row[f"j_{n}"]) for n in range(1, k + 1))
            pair = ComparisonPair(Profile(i), Profile(j))
            weight = float(Fraction(row["weight"]))
            entries.append((pair, weight))
            depth_weights[pair.depth] = depth_weights.get(pair.depth, 0.0) + weight
        dense = info_matrix_exact(ExplicitDesign(tuple(entries), spec))
        block = mix_h(DepthDesign(depth_weights, spec)).as_matrix()
        deviation = float(np.max(np.abs(dense.entries - block)))
        assert deviation <= 1e-12
        worst = max(worst, deviation)
    report(9, f"export/verify round trip reproduces block matrices within {worst:.1e}")
