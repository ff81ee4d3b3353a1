"""Command line behavior: output formats, exit codes, file round trips."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pairdesign
from pairdesign import (
    ComparisonPair,
    DepthDesign,
    ExplicitDesign,
    ModelSpec,
    Profile,
    SingularDesignError,
    count_pairs,
    info_matrix_exact,
    mix_h,
    optimize_full,
    realize_design,
)
from pairdesign import cli, design_space, oracle
from pairdesign.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "4")
        assert code == 0
        assert out.strip() == "4 6 4 1 15"

    def test_k5(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "5")
        assert code == 0
        assert out.strip() == "5 10 10 5 30"

    def test_k3_rejected(self, capsys):
        code, out, err = run(capsys, "dims", "--k", "3")
        assert code == 2
        assert out == ""
        assert "4" in err


class TestHValues:
    def test_fractions_printed(self, capsys):
        code, out, _ = run(capsys, "hvalues", "--k", "4", "--s", "4")
        assert code == 0
        assert "8/3" in out
        lines = out.strip().splitlines()
        assert lines[0] == "K=4 S=4"
        assert len(lines) == 2 + 5  # header rows plus d = 0..4


class TestEnumerate:
    def test_orbit_dump(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "4", "--s", "4", "--d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["pair_id", "i_1"]
        assert len(lines) == 1 + 96
        weights = [Fraction(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert set(weights) == {Fraction(1, 96)}
        assert sum(weights) == 1

    def test_to_file(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, out, _ = run(
            capsys, "enumerate", "--k", "4", "--s", "4", "--d", "1", "--out", str(path)
        )
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 64

    def test_bad_depth(self, capsys):
        code, _, err = run(capsys, "enumerate", "--k", "4", "--s", "4", "--d", "9")
        assert code == 2
        assert "depth" in err

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_depth_without_information_exits_2(self, capsys, tmp_path, d):
        # a depth 0 plan is pairs of identical profiles, which verify refuses
        path = tmp_path / "orbit.csv"
        code, out, err = run(capsys, "enumerate", "--k", "4", "--s", "4", "--d", d, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --d must lie in 1..4 (depth 0 carries no information), got {d}\n"
        assert not path.exists()


class TestOptimize:
    def test_text_output_with_fractions(self, capsys):
        code, out, _ = run(capsys, "optimize", "--k", "4", "--s", "4")
        assert code == 0
        assert "support: 1 2 3 4" in out
        assert "(4/15)" in out and "(2/5)" in out and "(1/15)" in out
        assert "certified D-optimal" in out

    def test_k6(self, capsys):
        code, out, _ = run(capsys, "optimize", "--k", "6", "--s", "6")
        assert code == 0
        assert "support: 2 5" in out
        assert "w=0.714" in out and "w=0.286" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "optimize", "--k", "5", "--s", "5", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["K"] == 5 and document["S"] == 5
        assert document["depth_weights"]["2"]["fraction"] == "2/3"
        assert document["depth_weights"]["2"]["decimal"] == pytest.approx(2 / 3)
        assert document["certification"]["verdict"] == "optimal"

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "plan.csv"
        code, out, _ = run(
            capsys, "optimize", "--k", "4", "--s", "4", "--export", str(path)
        )
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 240
        # per-depth weight shares reproduce the depth weights
        spec = ModelSpec(4, 4)
        sums = {}
        entries = []
        for row in rows:
            i = tuple(int(row[f"i_{n}"]) for n in range(1, 5))
            j = tuple(int(row[f"j_{n}"]) for n in range(1, 5))
            pair = ComparisonPair(Profile(i), Profile(j))
            weight = float(Fraction(row["weight"]))
            sums[pair.depth] = sums.get(pair.depth, 0.0) + weight
            entries.append((pair, weight))
        expected = {1: 4 / 15, 2: 2 / 5, 3: 4 / 15, 4: 1 / 15}
        for depth, total in expected.items():
            assert sums[depth] == pytest.approx(total, abs=1e-12)
        # rows within one depth are uniform at w_d / N_d
        for depth in range(1, 5):
            share = expected[depth] / count_pairs(spec, depth)
            for pair, weight in entries:
                if pair.depth == depth:
                    assert weight == pytest.approx(share, abs=1e-15)
        # re-ingested oracle matrix equals the closed-form blocks
        design = ExplicitDesign(tuple(entries), spec)
        dense = info_matrix_exact(design)
        block = mix_h(
            DepthDesign(
                {d: Fraction(*f) for d, f in {1: (4, 15), 2: (2, 5), 3: (4, 15), 4: (1, 15)}.items()},
                spec,
            )
        ).as_matrix()
        assert np.max(np.abs(dense.entries - block)) <= 1e-12

    def test_export_realizes_nothing(self, capsys, tmp_path, monkeypatch):
        calls = []
        realize = oracle.realize_design

        def counting(design):
            calls.append(design)
            return realize(design)

        monkeypatch.setattr(oracle, "realize_design", counting)
        path = tmp_path / "plan.csv"
        code, out, _ = run(
            capsys, "optimize", "--k", "5", "--s", "4", "--json", "--export", str(path)
        )
        assert code == 0
        assert calls == []
        weights = json.loads(out)["depth_weights"]
        n_rows = sum(count_pairs(ModelSpec(5, 4), int(d)) for d in weights)
        assert len(path.read_text().splitlines()) == 1 + n_rows

    @pytest.mark.parametrize("k,s,exact", [(6, 6, True), (8, 6, False)])
    def test_json_weights_keep_their_kind(self, capsys, k, s, exact):
        code, out, _ = run(capsys, "optimize", "--k", str(k), "--s", str(s), "--json")
        assert code == 0
        document = json.loads(out)
        cells = document["depth_weights"].values()
        assert all(("fraction" in cell) == exact for cell in cells)
        spec, weights = cli._read_document(io.StringIO(out))
        design = DepthDesign(weights, spec)
        assert design.is_exact == exact
        if not exact:
            assert list(design.weights.values()) == [
                cell["decimal"] for cell in cells
            ]

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "optimize", "--k", "4", "--s", "3")
        assert code == 2
        assert "strength" in err

    def test_one_certificate_per_optimize(self, capsys, monkeypatch):
        from pairdesign import optimizer

        calls = []
        certify = optimizer.kw_certify

        def counting(design, **kwargs):
            calls.append(design)
            return certify(design, **kwargs)

        monkeypatch.setattr(optimizer, "kw_certify", counting)
        monkeypatch.setattr(cli, "kw_certify", counting)
        code, out, _ = run(capsys, "optimize", "--k", "6", "--s", "6", "--json")
        assert code == 0
        assert len(calls) == 1 and calls[0].is_exact
        assert json.loads(out)["certification"]["tol"] == 0

    @pytest.mark.parametrize("k,s,tol_text", [(6, 6, "tol 0"), (8, 6, "tol 1e-09")])
    def test_tol_line_is_the_proofs(self, capsys, k, s, tol_text):
        code, out, _ = run(capsys, "optimize", "--k", str(k), "--s", str(s))
        assert code == 0
        assert out.splitlines()[-1].endswith(f"({tol_text} relative to p)")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, capsys, tol):
        # optimize has no --tol: a float result's tolerance is fixed, and a script
        # that still passes one gets a usage error, not a silently ignored value
        with pytest.raises(SystemExit) as exited:
            main(["optimize", "--k", "4", "--s", "4", "--tol", tol])
        out, err = capsys.readouterr()
        assert exited.value.code == 2
        assert out == "" and "unrecognized arguments: --tol" in err

    def test_float_result_that_fails_its_tol_exits_3(self, capsys, monkeypatch):
        # the float optimum of (27, 25) with its report's support condition failed
        solve = cli.optimize_full

        def failing(spec):
            return dataclasses.replace(solve(spec), support_ok=False)

        monkeypatch.setattr(cli, "optimize_full", failing)
        code, out, _ = run(capsys, "optimize", "--k", "27", "--s", "25")
        assert code == 3
        assert out.splitlines()[-1] == (
            "NOT certified at tol 1e-09 relative to p: max excess 0.000e+00"
            " (support condition violated)"
        )

    def test_json_document_runs_the_exact_oracle(self, capsys, tmp_path):
        plan, doc = tmp_path / "plan.csv", tmp_path / "doc.json"
        code, out, _ = run(
            capsys, "optimize", "--k", "6", "--s", "6", "--json", "--export", str(plan)
        )
        assert code == 0
        doc.write_text(out)
        assert set(json.loads(out)) == {"K", "S", "depth_weights", "certification"}
        plan_cells = {line.rsplit(",", 1)[1] for line in plan.read_text().splitlines()[1:]}
        assert plan_cells == {"1/1344"}
        code, out, _ = run(capsys, "verify", str(doc), "--oracle")
        assert code == 0
        assert "oracle block deviation: 0.000e+00" in out.splitlines()


class TestTables:
    def test_table_1_check(self, capsys):
        code, out, _ = run(capsys, "tables", "1", "--check")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split()[1:] == ["1", "1", "1", "1", "2", "2", "2", "3", "3"]
        assert "check: OK" in out

    def test_table_2_check(self, capsys):
        code, out, _ = run(capsys, "tables", "2", "--check")
        assert code == 0
        assert "0.692" in out and "0.308" in out
        assert "check: OK" in out

    def test_table_3_check(self, capsys):
        code, out, _ = run(capsys, "tables", "3", "--check")
        assert code == 0
        assert "0.998" in out  # the near-unit entry at K=8, d=2
        assert "1.000*" in out
        assert "check: OK" in out

    @pytest.mark.parametrize(
        "which,expected,key,value",
        [
            ("1", "EXPECTED_THIRD_ORDER_DEPTHS", 8, 3),
            ("2", "EXPECTED_TWO_DEPTH_DESIGNS", 5, (2, 0.668, 4, 0.333)),
            ("3", "EXPECTED_NORMALIZED_VARIANCES", 5, (0.937, 1.0, 0.938, 1.0, 0.938)),
        ],
    )
    def test_check_drift_exits_1(self, capsys, monkeypatch, which, expected, key, value):
        monkeypatch.setitem(getattr(cli, expected), key, value)
        code, out, err = run(capsys, "tables", which, "--check")
        assert code == 1
        assert "check: OK" not in out
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("check FAILED: ")

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "tables", "3")
        _, second, _ = run(capsys, "tables", "3")
        assert first == second


class TestVerify:
    def test_json_optimal(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(
            json.dumps(
                {
                    "K": 4,
                    "S": 4,
                    "depth_weights": {
                        "1": "4/15", "2": "2/5", "3": "4/15", "4": "1/15"
                    },
                }
            )
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verdict: optimal" in out

    def test_oracle_deviations(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(
            json.dumps({"K": 4, "S": 4, "depth_weights": {"1": "4/15", "2": "2/5", "3": "4/15", "4": "1/15"}})
        )
        code, out, _ = run(capsys, "verify", str(path), "--oracle")
        assert code == 0
        block_line = [l for l in out.splitlines() if "block deviation" in l][0]
        assert float(block_line.rsplit(":", 1)[1]) <= 1e-12
        variance_line = [l for l in out.splitlines() if "variance deviation" in l][0]
        assert float(variance_line.rsplit(":", 1)[1]) <= 1e-10

    def test_singular_design(self, capsys, tmp_path):
        path = tmp_path / "pointmass.json"
        path.write_text(json.dumps({"K": 5, "S": 5, "depth_weights": {"5": 1.0}}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4
        assert "not identifiable" in err
        assert "h2" in err and "h4" in err

    def test_hand_edited_not_optimal(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"K": 5, "S": 5, "depth_weights": {"1": 0.5, "2": 0.5}}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verdict: not optimal" in out

    def test_exact_excess_below_the_least_float_is_not_optimal(self, capsys, tmp_path):
        # 10^-400 of weight moved from depth 6 to depth 2 of the K=S=7 law design
        eps = Fraction(1, 10**400)
        weights = {"2": str(Fraction(3, 4) + eps), "6": str(Fraction(1, 4) - eps)}
        path = tmp_path / "eps.json"
        path.write_text(json.dumps({"K": 7, "S": 7, "depth_weights": weights}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "verdict: not optimal (support condition violated)"

    def test_exact_excess_past_a_float_tolerance_is_not_optimal(self, capsys, tmp_path):
        # 10^-9 of weight moved: the excess 1.244e-8 is inside 1e-6 * p, but exact
        # weights are proved at tol 0, with no flag
        eps = Fraction(1, 10**9)
        weights = {"2": str(Fraction(3, 4) + eps), "6": str(Fraction(1, 4) - eps)}
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"K": 7, "S": 7, "depth_weights": weights}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.splitlines()[-2:] == [
            "max excess: 1.244e-08 (tol 0 relative to p)",
            "verdict: not optimal (support condition violated)",
        ]

    @pytest.mark.parametrize(
        "k,s,weights,bad",
        [
            (7, 7, {"2": {"fraction": "3/4", "decimal": 0.9},
                    "6": {"fraction": "1/4", "decimal": 0.1}}, True),
            (7, 7, {"2": {"fraction": "3/4", "decimal": "0.75"}, "6": "1/4"}, True),
            (19, 4, {"1": {"fraction": "1", "decimal": True}}, True),
            (7, 7, {"2": {"fraction": "3/4", "decimal": 0.75},
                    "6": {"fraction": "1/4", "decimal": 0.25}}, False),
        ],
        ids=["other-number", "string", "bool", "agree"],
    )
    def test_fraction_and_decimal_must_agree(self, capsys, tmp_path, k, s, weights, bad):
        # only the fraction is read, so a decimal that says otherwise is refused
        depth = next(iter(weights))
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({"K": k, "S": s, "depth_weights": weights}))
        code, out, err = run(capsys, "verify", str(path))
        if bad:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot parse {path}: depth {depth}: decimal ")
            assert len(err.splitlines()) == 1
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "verdict: optimal"

    # the two three-depth optima and an irrational pair; the (16,14) plan would hold
    # 7 872 184 320 rows, past _MAX_PLAN_ROWS, so it travels as a document only
    @pytest.mark.parametrize("k,s,plan", [(8, 6, True), (6, 5, True), (16, 14, False)])
    def test_float_optimum_round_trips_at_its_tol(self, capsys, tmp_path, k, s, plan):
        doc, csv = tmp_path / "doc.json", tmp_path / "plan.csv"
        argv = ["optimize", "--k", str(k), "--s", str(s), "--json"]
        code, out, _ = run(capsys, *argv, *(("--export", str(csv)) if plan else ()))
        assert code == 0
        doc.write_text(out)
        for path in (doc, csv) if plan else (doc,):
            code, out, _ = run(capsys, "verify", str(path))
            assert code == 0
            lines = out.splitlines()
            assert lines[-2].endswith("(tol 1e-09 relative to p)")
            assert lines[-1] == "verdict: optimal"

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nonsense")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "cannot parse" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_csv_round_trip(self, capsys, tmp_path):
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "optimize", "--k", "5", "--s", "4", "--export", str(plan))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(plan), "--oracle")
        assert code == 0
        assert "verdict: optimal" in out
        block_line = [l for l in out.splitlines() if "block deviation" in l][0]
        assert float(block_line.rsplit(":", 1)[1]) <= 1e-12

    def test_csv_pairs_built_once(self, capsys, tmp_path, monkeypatch):
        # the plan stays in level arrays: no per-row pair objects at all
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "optimize", "--k", "5", "--s", "4", "--export", str(plan))
        assert code == 0
        built = []
        post_init = ComparisonPair.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(ComparisonPair, "__post_init__", counting)
        code, out, _ = run(capsys, "verify", str(plan), "--oracle")
        assert code == 0 and "verdict: optimal" in out
        assert len(built) == 0


    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tol_exits_2(self, capsys, tmp_path, tol):
        # verify has no --tol: kw_certify picks it, and a script that still passes
        # one gets a usage error, not a silently ignored value
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"K": 5, "S": 5, "depth_weights": {"2": "2/3", "4": "1/3"}}))
        with pytest.raises(SystemExit) as exited:
            main(["verify", str(path), "--tol", tol])
        out, err = capsys.readouterr()
        assert exited.value.code == 2
        assert out == "" and "unrecognized arguments: --tol" in err

    def test_zero_tol_is_the_exact_proof(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"K": 5, "S": 5, "depth_weights": {"2": "2/3", "4": "1/3"}}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "max excess: 0.000e+00 (tol 0 relative to p)" in out.splitlines()
        assert "verdict: optimal" in out.splitlines()

    @pytest.mark.parametrize(
        "column,value",
        [("j_1", "0"), ("i_2", "2"), ("i_5", "1")],
        ids=["shown-attributes-differ", "level-2", "wrong-strength"],
    )
    def test_malformed_csv_exits_2(self, capsys, tmp_path, column, value):
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "optimize", "--k", "5", "--s", "4", "--export", str(plan))
        assert code == 0
        with open(plan, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # the first row shows attributes 1..4; for wrong-strength, show 5 in both
        assert [rows[0][f"i_{n}"] != "0" for n in range(1, 6)] == [True] * 4 + [False]
        rows[1][column] = value
        if column == "i_5":
            rows[1]["j_5"] = value
        with open(plan, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code, out, err = run(capsys, "verify", str(plan), "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse {plan}")

    def test_document_with_rows_exits_2(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        row = [[1, 1, 1, 1], [-1, 1, 1, 1], "1"]
        path.write_text(
            json.dumps({"K": 4, "S": 4, "depth_weights": {"1": "1"}, "explicit_rows": [row]})
        )
        code, out, err = run(capsys, "verify", str(path), "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse {path}") and "CSV" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("nan.json", '{"K": 5, "S": 4, "depth_weights": {"1": NaN, "2": 1.0}}'),
            ("nan-decimal.json", '{"K": 5, "S": 4, "depth_weights": {"2": {"decimal": NaN}}}'),
            ("nan-cell.csv", None),
            ("weights-list.json", '{"K": 5, "S": 4, "depth_weights": [["2", "1"]]}'),
            ("k-overflow.json", '{"K": 1e400, "S": 4, "depth_weights": {"2": "1"}}'),
            ("one-over-zero.json", '{"K": 5, "S": 4, "depth_weights": {"2": {"fraction": "1/0"}}}'),
            ("k-float.json", '{"K": 6.9, "S": 6, "depth_weights": {"2": "5/7", "5": "2/7"}}'),
            ("k-whole-float.json", '{"K": 6.0, "S": 6, "depth_weights": {"2": "5/7", "5": "2/7"}}'),
            ("k-string.json", '{"K": "6", "S": 6, "depth_weights": {"2": "5/7", "5": "2/7"}}'),
            ("k-bool.json", '{"K": true, "S": 6, "depth_weights": {"2": "5/7", "5": "2/7"}}'),
            ("s-float.json", '{"K": 6, "S": 6.9, "depth_weights": {"2": "5/7", "5": "2/7"}}'),
            ("weight-true.json", '{"K": 6, "S": 6, "depth_weights": {"2": true}}'),
            ("decimal-true.json", '{"K": 6, "S": 6, "depth_weights": {"2": {"decimal": true}}}'),
            ("fraction-true.json", '{"K": 6, "S": 6, "depth_weights": {"2": {"fraction": true}}}'),
            ("weight-false.json", '{"K": 6, "S": 6, "depth_weights": {"2": false, "5": "1"}}'),
        ],
        ids=[
            "nan", "nan-decimal", "nan-cell", "weights-list", "k-overflow", "one-over-zero",
            "k-float", "k-whole-float", "k-string", "k-bool", "s-float",
            "weight-true", "decimal-true", "fraction-true", "weight-false",
        ],
    )
    def test_malformed_design_file_exits_2(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        if text is None:
            code, _, _ = run(capsys, "optimize", "--k", "5", "--s", "4", "--export", str(path))
            assert code == 0
            lines = path.read_text().splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
            path.write_text("\n".join(lines) + "\n")
        else:
            path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse {path}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "key",
        ['"05"', '" 5"', '"+5"', '"\u0665"'],
        ids=["leading-zero", "space", "plus", "arabic-indic-digit"],
    )
    def test_depth_key_not_plain_decimal_exits_2(self, capsys, tmp_path, key):
        # the key would read as depth 5 and replace its weight: 5/7 + 1/7 + 2/7 = 8/7
        # as written, yet the K=S=6 optimum once 1/7 is dropped
        path = tmp_path / "key.json"
        weights = '{"2": "5/7", "5": "1/7", %s: "2/7"}' % key
        path.write_text('{"K": 6, "S": 6, "depth_weights": %s}' % weights)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse {path}: depth key")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"K": 6, "S": 6, "depth_weights": {"2": "5/7", "5": "1/7", "5": "2/7"}}', "5"),
            ('{"K": 7, "S": 6, "K": 6, "depth_weights": {"2": "5/7", "5": "2/7"}}', "K"),
            ('{"K": 6, "S": 6, "depth_weights": {"2": {"fraction": "1/7", "fraction": "5/7"}, '
             '"5": "2/7"}}', "fraction"),
        ],
        ids=["depth", "top-level", "weight-cell"],
    )
    def test_repeated_key_exits_2(self, capsys, tmp_path, text, key):
        # json keeps a repeated key's last value, which here is the K=S=6 optimum
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot parse {path}: key {key!r} appears twice\n"

    @pytest.mark.parametrize("text,exact", [("1", True), ("1.0", False)], ids=["int", "float"])
    def test_bare_json_integer_weight_is_exact(self, capsys, tmp_path, text, exact):
        # the depth-1 point mass is the K=19 S=4 optimum; only exact weights prove it at tol 0
        weight = cli._parse_weight(json.loads(text))
        assert weight == 1 and isinstance(weight, Fraction) == exact
        path = tmp_path / "d194.json"
        path.write_text('{"K": 19, "S": 4, "depth_weights": {"1": %s}}' % text)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and "verdict: optimal" in out.splitlines()
        if exact:
            assert "max excess: 0.000e+00 (tol 0 relative to p)" in out.splitlines()
        else:  # float rounding leaves an excess of about 1e-12, inside 1e-9 * p
            assert out.splitlines()[-2].endswith("(tol 1e-09 relative to p)")

    def test_exact_weights_off_one_exit_2(self, capsys, tmp_path):
        # the K=S=4 optimum with 10^-13 added on depth 1: within a float tolerance,
        # but exact weights must sum to exactly 1
        path = tmp_path / "off-one.json"
        path.write_text(
            '{"K": 4, "S": 4, "depth_weights": {"1": "8000000000003/30000000000000", '
            '"2": "2/5", "3": "4/15", "4": "1/15"}}'
        )
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot parse {path}: exact weights sum to "
            "10000000000001/10000000000000, not 1\n"
        )

    def test_singular_oracle_exits_4(self, capsys, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularDesignError("oracle information matrix is singular")

        monkeypatch.setattr(oracle, "variance_sweep_max_deviation", singular)
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"K": 5, "S": 5, "depth_weights": {"2": "2/3", "4": "1/3"}}))
        code, out, err = run(capsys, "verify", str(path), "--oracle")
        assert code == 4
        assert "verdict: optimal" in out
        assert err == "oracle information matrix is singular\n"


def k6_plan_lines(capsys, tmp_path) -> list[str]:
    """Lines of the exported K=S=6 optimum: header, 960 depth-2 rows, 384 depth-5 rows."""
    plan = tmp_path / "plan.csv"
    assert run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))[0] == 0
    return plan.read_text().splitlines()


# the header fields of a K=6 plan
K6_FIELDS = ["pair_id", *(f"{side}_{n}" for side in "ij" for n in range(1, 7)), "weight"]


def with_cell(line: str, cell: str) -> str:
    return line.rsplit(",", 1)[0] + "," + cell


class TestPlanReader:
    """A CSV plan verifies only as whole orbits, in export order, one weight cell per depth."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [lines[0], with_cell(lines[1], "5/7"), with_cell(lines[961], "2/7")],
            lambda lines: lines[:1] + lines[2:3] + lines[2:],
            lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
            lambda lines: (
                lines[:1] + [with_cell(lines[1], "1/672"), with_cell(lines[2], "0")] + lines[3:]
            ),
            lambda lines: lines[:1] + lines[961:] + lines[1:961],
        ],
        ids=["two-rows", "duplicated-row", "swapped-rows", "reweighted-rows", "segments-reversed"],
    )
    def test_edited_plan_exits_2(self, capsys, tmp_path, edit):
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(edit(k6_plan_lines(capsys, tmp_path))) + "\n")
        for extra in ((), ("--oracle",)):
            code, out, err = run(capsys, "verify", str(path), *extra)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot parse {path}: ") and "depth" in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "row,edit,n_fields",
        [
            (1, lambda line: line.rsplit(",", 1)[0], 13),
            (961, lambda line: line.rsplit(",", 1)[0], 13),
            (500, lambda line: with_cell(line, "1," + line.rsplit(",", 1)[1]), 15),
        ],
        ids=["row-1-without-weight", "segment-start-without-weight", "extra-field"],
    )
    def test_row_with_wrong_field_count_is_named(self, capsys, tmp_path, row, edit, n_fields):
        lines = k6_plan_lines(capsys, tmp_path)
        lines[row] = edit(lines[row])
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        for extra in ((), ("--oracle",)):
            code, out, err = run(capsys, "verify", str(path), *extra)
            assert (code, out) == (2, "")
            assert err == f"error: cannot parse {path}: row {row} has {n_fields} fields, not 14\n"

    @pytest.mark.parametrize(
        "header",
        ["id," + ",".join(K6_FIELDS[1:]), ",".join(f'"{field}"' for field in K6_FIELDS)],
        ids=["pair-id-renamed", "quoted-fields"],
    )
    def test_header_other_than_the_written_one_exits_2(self, capsys, tmp_path, header):
        lines = k6_plan_lines(capsys, tmp_path)
        assert lines[0] == ",".join(K6_FIELDS)
        path = tmp_path / "edited.csv"
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        for extra in ((), ("--oracle",)):
            code, out, err = run(capsys, "verify", str(path), *extra)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot parse {path}: ")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k,s", [(4, 4), (6, 6), (7, 5), (6, 5), (7, 6), (8, 6)])
    def test_plan_verifies_as_its_document(self, capsys, tmp_path, k, s):
        plan, doc = tmp_path / "plan.csv", tmp_path / "doc.json"
        code, out, _ = run(
            capsys, "optimize", "--k", str(k), "--s", str(s), "--json", "--export", str(plan)
        )
        assert code == 0
        doc.write_text(out)
        for extra in ((), ("--oracle",)):
            from_plan = run(capsys, "verify", str(plan), *extra)
            assert from_plan == run(capsys, "verify", str(doc), *extra)
            assert from_plan[0] == 0 and "verdict: optimal" in from_plan[1]

    def test_oracle_gate_reads_only_the_first_row(self, capsys, tmp_path):
        spec = ModelSpec(11, 4)
        plan = tmp_path / "big.csv"
        blocks = oracle._plan_blocks(DepthDesign.point_mass(spec, 1))
        with open(plan, "w", newline="") as handle:
            cli._write_plan_csv(handle, 11, [next(blocks)])
        lines = plan.read_text().splitlines()
        plan.write_text("\n".join(lines[:2] + ["garbage"] + lines[3:]) + "\n")
        code, out, err = run(capsys, "verify", str(plan), "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith("error: oracle gate: p=561 exceeds 500")
        code, _, err = run(capsys, "verify", str(plan))
        assert code == 2 and err.startswith(f"error: cannot parse {plan}")


class TestExactCsvRoundTrip:
    def test_exported_plan_keeps_exact_proof(self, capsys, tmp_path):
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))
        assert code == 0
        lines = plan.read_text().splitlines()
        assert lines[0].split(",")[0] == "pair_id" and lines[0].endswith(",weight")
        assert len(lines) == 1 + 1344
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"1/1344"}
        segments = cli._plan_segments(str(plan))
        assert next(segments) == ModelSpec(6, 6)
        assert dict(segments) == {2: Fraction(5, 7), 5: Fraction(2, 7)}
        code, out, _ = run(capsys, "verify", str(plan), "--oracle")
        assert code == 0
        assert "max excess: 0.000e+00 (tol 0 relative to p)" in out.splitlines()
        assert "oracle block deviation: 0.000e+00" in out.splitlines()

    def test_float_weights_stay_float(self, capsys, tmp_path):
        plan = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "optimize", "--k", "7", "--s", "6", "--export", str(plan))
        assert code == 0
        cells = {line.rsplit(",", 1)[1] for line in plan.read_text().splitlines()[1:]}
        assert not any("/" in cell for cell in cells)
        segments = cli._plan_segments(str(plan))
        assert next(segments) == ModelSpec(7, 6)
        assert all(isinstance(w, float) for _, w in segments)
        code, out, _ = run(capsys, "verify", str(plan))
        assert code == 0 and "verdict: optimal" in out

    def test_any_line_ending_verifies(self, capsys, tmp_path):
        plan = tmp_path / "plan.csv"
        assert run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))[0] == 0
        expected = run(capsys, "verify", str(plan))
        assert expected[0] == 0 and "verdict: optimal" in expected[1]
        lf = plan.read_bytes().replace(b"\r\n", b"\n")
        for text in (lf, lf.removesuffix(b"\n")):  # and no newline after the last row
            plan.write_bytes(text)
            assert run(capsys, "verify", str(plan)) == expected

    @pytest.mark.parametrize(
        "text,value",
        [("1/1344", Fraction(1, 1344)), ("1", Fraction(1)), ("0.25", 0.25), ("1e-05", 1e-05)],
    )
    def test_weight_cells(self, text, value):
        parsed = cli._parse_weight_text(text)
        assert parsed == value and type(parsed) is type(value)
        assert cli._parse_weight_text(cli._weight_text(value)) == value


class TestOracleGate:
    def test_oversize_request_exits_2_before_realizing(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("realized before the gate")

        monkeypatch.setattr(oracle, "realize_design", refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"K": 11, "S": 4, "depth_weights": {"1": "1"}}))
        code, out, err = run(capsys, "verify", str(path), "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith("error: oracle gate: p=561")
        # without --oracle the closed-form certificate still runs
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and "K=11 S=4 p=561" in out


class TestPlanLimit:
    @pytest.mark.parametrize(
        "argv,n_rows",
        [
            (("optimize", "--k", "30", "--s", "15", "--export"), 6938146072166400),
            (("enumerate", "--k", "40", "--s", "8", "--d", "4", "--out"), 1378131955200),
            (("enumerate", "--k", "40", "--s", "8", "--d", "4"), 1378131955200),
        ],
        ids=["export", "enumerate-out", "enumerate-stdout"],
    )
    def test_oversize_plan_exits_2_before_writing(self, capsys, tmp_path, argv, n_rows):
        path = tmp_path / "big.csv"
        argv = (*argv, str(path)) if argv[-1].startswith("--") else argv
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: a plan of {n_rows} rows exceeds the limit of {cli._MAX_PLAN_ROWS} rows\n"
        )
        assert not path.exists()

    def test_limit_counts_every_supported_depth(self, capsys, tmp_path, monkeypatch):
        plan = tmp_path / "plan.csv"
        # the K=S=6 optimum weights depths 2 and 5: 960 + 384 rows
        monkeypatch.setattr(cli, "_MAX_PLAN_ROWS", 1343)
        code, _, err = run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))
        assert code == 2 and "a plan of 1344 rows" in err and not plan.exists()
        monkeypatch.setattr(cli, "_MAX_PLAN_ROWS", 1344)
        code, out, _ = run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))
        assert code == 0 and f"exported 1344 rows to {plan}" in out.splitlines()


class TestStrengthLimit:
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work that grows with S ran before the limit")

        for name in ("optimize_full", "DepthDesign", "kw_certify"):
            monkeypatch.setattr(cli, name, refuse)

    def test_oversize_optimize_exits_2_before_any_work(self, capsys, monkeypatch):
        self.refuse_work(monkeypatch)
        code, out, err = run(capsys, "optimize", "--k", "1000001", "--s", "1000001")
        assert (code, out) == (2, "")
        assert err == "error: strength S=1000001 exceeds the limit of 1000000\n"

    @pytest.mark.parametrize("oracle_flag", [(), ("--oracle",)], ids=["closed-form", "oracle"])
    def test_oversize_verify_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                     oracle_flag):
        self.refuse_work(monkeypatch)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"K": 1000001, "S": 1000001, "depth_weights": {"7": "1"}}))
        code, out, err = run(capsys, "verify", str(path), *oracle_flag)
        assert (code, out) == (2, "")
        assert err == "error: strength S=1000001 exceeds the limit of 1000000\n"

    def test_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        designs = {}
        for s in (6, 7):
            designs[s, "csv"] = tmp_path / f"plan{s}.csv"
            designs[s, "json"] = tmp_path / f"doc{s}.json"
            argv = ("optimize", "--k", str(s), "--s", str(s), "--json", "--export")
            code, out, _ = run(capsys, *argv, str(designs[s, "csv"]))
            assert code == 0
            designs[s, "json"].write_text(out)
        monkeypatch.setattr(cli, "_MAX_STRENGTH", 6)
        code, out, _ = run(capsys, "optimize", "--k", "6", "--s", "6")
        assert code == 0 and "support: 2 5" in out
        for kind in ("csv", "json"):
            code, out, _ = run(capsys, "verify", str(designs[6, kind]))
            assert code == 0 and "verdict: optimal" in out
        refused = [run(capsys, "optimize", "--k", "7", "--s", "7")]
        refused += [run(capsys, "verify", str(designs[7, kind])) for kind in ("csv", "json")]
        assert refused == [(2, "", "error: strength S=7 exceeds the limit of 6\n")] * 3


def run_fresh(*argv, block_numpy=False):
    """Run the CLI in a fresh interpreter; with ``block_numpy`` any numpy import raises.

    Output is decoded without newline translation, so CRLF rows stay CRLF.
    """
    src = str(Path(pairdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        + ("sys.modules['numpy'] = None\n" if block_numpy else "")
        + "from pairdesign.cli import main\n"
        + "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=120
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_closed_form_subcommands_never_load_numpy(capsys, tmp_path):
    document = tmp_path / "d66.json"
    document.write_text(run(capsys, "optimize", "--k", "6", "--s", "6", "--json")[1])
    # plans are written and read as text: the same exit code, stdout and file bytes
    for argv, name in [
        (("optimize", "--k", "7", "--s", "5", "--export"), "d75.csv"),
        (("enumerate", "--k", "7", "--s", "5", "--d", "2", "--out"), "e752.csv"),
    ]:
        path = tmp_path / name
        here = run(capsys, *argv, str(path)), path.read_bytes()
        path.unlink()
        assert (run_fresh(*argv, str(path), block_numpy=True), path.read_bytes()) == here, argv
    closed_form = [
        ("dims", "--k", "8"),
        ("hvalues", "--k", "6", "--s", "5"),
        ("optimize", "--k", "12", "--s", "12"),
        ("optimize", "--k", "6", "--s", "5", "--json"),
        ("tables", "1", "--check"),
        ("tables", "2", "--check"),
        ("tables", "3", "--check"),
        ("verify", str(document)),
        ("verify", str(tmp_path / "d75.csv")),
        ("enumerate", "--k", "7", "--s", "5", "--d", "2"),
    ]
    for argv in closed_form:
        # the same exit code and bytes as in this process, where numpy is loaded
        assert run_fresh(*argv, block_numpy=True) == run(capsys, *argv), argv
    assert run(capsys, "tables", "2", "--check")[1].endswith("check: OK\n")
    assert run(capsys, "verify", str(tmp_path / "d75.csv"))[1].endswith("verdict: optimal\n")
    # only the oracle still loads it, on demand; without numpy it is a usage error
    for design in (tmp_path / "d75.csv", document):
        code, out, err = run_fresh("verify", str(design), "--oracle")
        assert (code, err) == (0, "")
        assert "oracle block deviation: 0.000e+00" in out.splitlines()
        code, out, err = run_fresh("verify", str(design), "--oracle", block_numpy=True)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "numpy" in err


def reference_plan(k: int, s: int) -> bytes:
    """The CSV plan of the (k, s) optimum written row by row from realize_design."""
    explicit = realize_design(optimize_full(ModelSpec(k, s)).design)
    handle = io.StringIO()
    writer = csv.writer(handle)
    columns = [f"{side}_{n}" for side in "ij" for n in range(1, k + 1)]
    writer.writerow(["pair_id", *columns, "weight"])
    for row in range(len(explicit.weights)):
        writer.writerow(
            [row + 1, *explicit.firsts[row].tolist(), *explicit.seconds[row].tolist(),
             cli._weight_text(explicit.weight_at(row))]
        )
    return handle.getvalue().encode()


class TestPlanStream:
    @pytest.mark.parametrize("k,s", [(4, 4), (6, 6), (7, 5), (8, 6)])
    def test_export_equals_realized_rows(self, capsys, tmp_path, k, s):
        plan = tmp_path / "plan.csv"
        code, out, _ = run(capsys, "optimize", "--k", str(k), "--s", str(s), "--export", str(plan))
        assert code == 0
        expected = reference_plan(k, s)
        assert plan.read_bytes() == expected
        n_rows = len(expected.splitlines()) - 1
        assert f"exported {n_rows} rows to {plan}" in out.splitlines()

    def test_export_streams_one_chunk_at_a_time(self, capsys, tmp_path, monkeypatch):
        whole = tmp_path / "whole.csv"
        assert run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(whole))[0] == 0
        sizes = []
        write = cli._write_plan_csv

        def recording(handle, n_attributes, blocks):
            def counted():
                for block, weight in blocks:
                    sizes.append(block.n_rows)
                    yield block, weight

            return write(handle, n_attributes, counted())

        monkeypatch.setattr(cli, "_write_plan_csv", recording)
        monkeypatch.setattr(design_space, "_ORBIT_BLOCK_ROWS", 64)
        chunked = tmp_path / "chunked.csv"
        assert run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(chunked))[0] == 0
        assert max(sizes) <= 64 and sum(sizes) == 1344
        assert chunked.read_bytes() == whole.read_bytes()

    def test_one_weighted_stream(self, capsys, tmp_path, monkeypatch):
        streams = []
        plan_blocks = design_space._plan_blocks

        def recording(design):
            streams.append(design.weights)
            return plan_blocks(design)

        # realization, the export and enumerate all read design_space's one stream
        for module in (oracle, cli):
            assert module._plan_blocks is plan_blocks
            monkeypatch.setattr(module, "_plan_blocks", recording)
        realize_design(DepthDesign({2: Fraction(1)}, ModelSpec(4, 4)))
        plan = tmp_path / "plan.csv"
        assert run(capsys, "optimize", "--k", "6", "--s", "6", "--export", str(plan))[0] == 0
        assert run(capsys, "enumerate", "--k", "4", "--s", "4", "--d", "3")[0] == 0
        assert streams == [{2: 1}, {2: Fraction(5, 7), 5: Fraction(2, 7)}, {3: 1}]
        # the stream takes a design, whose depths were checked when it was made
        with pytest.raises(ValueError, match="depth"):
            DepthDesign({1: Fraction(1, 2), 5: Fraction(1, 2)}, ModelSpec(4, 4))

    @pytest.mark.parametrize("block_rows", [1 << 16, 100])
    @pytest.mark.parametrize("k,s", [(7, 5), (6, 6), (10, 4)])
    def test_text_rows_are_the_realized_rows(self, monkeypatch, k, s, block_rows):
        # the CSV text and the int8 arrays render one orbit order, row by row
        monkeypatch.setattr(design_space, "_ORBIT_BLOCK_ROWS", block_rows)
        design = optimize_full(ModelSpec(k, s)).design
        realized = realize_design(design)
        rows = []
        for block, weight in design_space._plan_blocks(design):
            block_rows = cli._plan_rows(k, block, cli._weight_text(weight), len(rows) + 1, "\n")
            assert len(block_rows) == block.n_rows
            rows += block_rows
        assert len(rows) == len(realized.weights)
        for row, text in enumerate(rows):
            levels = [*realized.firsts[row].tolist(), *realized.seconds[row].tolist()]
            cell = cli._weight_text(realized.weight_at(row))
            assert text == f"{row + 1},{','.join(map(str, levels))},{cell}\n"

    def test_first_block_of_a_huge_orbit_stays_small(self):
        # K=S=20, d=1: 2^20 level patterns, of which one 65 520-row block is made;
        # a table of every pattern's text would take about 100 MB
        tracemalloc.start()
        try:
            block = next(design_space._orbit_order(ModelSpec(20, 20), 1))
            rows = cli._plan_rows(20, block, "1/20971520", 1, "\r\n")
            text_peak = tracemalloc.get_traced_memory()[1]
            del rows
            tracemalloc.reset_peak()
            firsts = np.zeros((block.n_rows, 20), dtype=np.int8)
            seconds = np.zeros_like(firsts)
            oracle._fill_block(block, firsts, seconds)
            array_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.n_rows == len(firsts) == 65_520
        assert text_peak < 24 * 2**20 and array_peak < 8 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--k", "4", "--s", "4", "--export"),
            ("optimize", "--k", "4", "--s", "4", "--json", "--export"),
            ("enumerate", "--k", "4", "--s", "4", "--d", "2", "--out"),
        ],
        ids=["export", "json-export", "enumerate-out"],
    )
    def test_unwritable_path_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "plan.csv"
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert len(err.strip().splitlines()) == 1


GOLDEN_OPTIMIZE_66 = """\
K=6 S=6 p=56
support: 2 5
  d=2  w=0.714 (5/7)
  d=5  w=0.286 (2/7)
log det: 42.465247405657
certified D-optimal: max excess 0.000e+00 (tol 0 relative to p)
"""

GOLDEN_OPTIMIZE_44 = """\
K=4 S=4 p=15
support: 1 2 3 4
  d=1  w=0.267 (4/15)
  d=2  w=0.400 (2/5)
  d=3  w=0.267 (4/15)
  d=4  w=0.067 (1/15)
log det: 11.365285525463
certified D-optimal: max excess 0.000e+00 (tol 0 relative to p)
"""

GOLDEN_DOCUMENT_44 = {
    "K": 4,
    "S": 4,
    "certification": {
        "K": 4,
        "S": 4,
        "V_by_depth": {"1": 15.0, "2": 15.0, "3": 15.0, "4": 15.0},
        "max_excess": 0.0,
        "p": 15,
        "support_ok": True,
        "tol": 0,
        "verdict": "optimal",
        "weights": {
            "1": 0.26666666666666666, "2": 0.4, "3": 0.26666666666666666, "4": 0.06666666666666667
        },
    },
    "depth_weights": {
        "1": {"decimal": 0.26666666666666666, "fraction": "4/15"},
        "2": {"decimal": 0.4, "fraction": "2/5"},
        "3": {"decimal": 0.26666666666666666, "fraction": "4/15"},
        "4": {"decimal": 0.06666666666666667, "fraction": "1/15"},
    },
}

GOLDEN_VERIFY_44 = """\
K=4 S=4 p=15
depth         1        2        3        4
V/p      1.000*   1.000*   1.000*   1.000*
max excess: 0.000e+00 (tol 0 relative to p)
verdict: optimal
"""


class TestGoldenOutput:
    """Byte-for-byte stdout of exact optima; the float optimum up to its last digits."""

    @pytest.mark.parametrize(
        "k,expected", [(6, GOLDEN_OPTIMIZE_66), (4, GOLDEN_OPTIMIZE_44)], ids=["k6", "k4"]
    )
    def test_optimize_text(self, capsys, k, expected):
        assert run(capsys, "optimize", "--k", str(k), "--s", str(k)) == (0, expected, "")

    def test_json_document_and_its_verify(self, capsys, tmp_path):
        code, out, err = run(capsys, "optimize", "--k", "4", "--s", "4", "--json")
        assert (code, err) == (0, "")
        assert out == json.dumps(GOLDEN_DOCUMENT_44, indent=2, sort_keys=True) + "\n"
        path = tmp_path / "d44.json"
        path.write_text(out)
        assert run(capsys, "verify", str(path)) == (0, GOLDEN_VERIFY_44, "")

    def test_float_three_depth_optimum(self, capsys):
        code, out, err = run(capsys, "optimize", "--k", "6", "--s", "5")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:5] == [
            "K=6 S=5 p=56",
            "support: 1 2 4",
            "  d=1  w=0.321",
            "  d=2  w=0.327",
            "  d=4  w=0.352",
        ]
        assert re.fullmatch(r"log det: -?\d+\.\d{12}", lines[5])
        assert re.fullmatch(
            r"certified D-optimal: max excess \d\.\d{3}e[+-]\d{2} \(tol 1e-09 relative to p\)",
            lines[6],
        )
        assert len(lines) == 7


class TestGoldenBytes:
    """sha256 of whole CSV plans: any byte the orbit generator or the plan writer changes fails."""

    def test_enumerate_k7_s5_d2(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "7", "--s", "5", "--d", "2")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7fbb1a2fc5fe5883d47e4a6293bdb117ef497e2eb030b225b992d234556266bb"
        )

    def test_optimize_k7_s5_export(self, capsys, tmp_path):
        plan = tmp_path / "d75.csv"
        code, out, _ = run(capsys, "optimize", "--k", "7", "--s", "5", "--export", str(plan))
        assert code == 0 and f"exported 6720 rows to {plan}" in out.splitlines()
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == (
            "96276f02647f7f363d953e76bf3574b6bf5c5921c1f6c1dced328f007da24eed"
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dims", "--k", "8"),
            ("hvalues", "--k", "6", "--s", "5"),
            ("optimize", "--k", "6", "--s", "6"),
            ("enumerate", "--k", "4", "--s", "4", "--d", "3"),
        ],
    )
    def test_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_closed_stdout_exits_1_quietly():
    src = str(Path(pairdesign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # 17 920 rows, far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "pairdesign.cli", "enumerate", "--k", "8", "--s", "8", "--d", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"pair_id,")
    proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""
