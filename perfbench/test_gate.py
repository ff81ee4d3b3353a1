"""The benchmark's correctness gate must reject bad output, not pass vacuously.

    python3 -m pytest -q perfbench/test_gate.py

Each negative test corrupts one thing a job relies on (a solver weight, one
oracle entry, a CLI exit code) and checks that the pass counts the job as
failed.  The positive tests show the same jobs pass untouched.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def single_pass(name: str, jobs, workdir) -> list:
    """Errors of one pass of ``jobs`` through the benchmark's own pass loop."""
    result = run.run_pass(workloads.WORKLOADS[name], jobs, NullTracer(), str(workdir))
    return [outcome.error for _, outcome in result.outcomes]


def oracle_design(strength: int):
    return next(d for d in workloads.oracle_designs(0) if d.spec.strength == strength)


def cli_step(label: str):
    return next(s for s in workloads.cli_script(0) if s.label == label)


def test_solve_jobs_pass(tmp_path):
    assert single_pass("grid_k40", [(6, 6), (30, 5), (40, 17)], tmp_path) == [None] * 3


def test_perturbed_weight_fails(tmp_path, monkeypatch):
    real = workloads.optimize_full

    def lying_solver(spec):
        result = real(spec)
        low, high = result.support
        shift = Fraction(1, 20)
        design = dataclasses.replace(result.design, weights={
            low: result.design.weights[low] + shift, high: result.design.weights[high] - shift})
        return dataclasses.replace(result, design=design)

    monkeypatch.setattr(workloads, "optimize_full", lying_solver)
    errors = single_pass("grid_k40", [(6, 6), (8, 6)], tmp_path)  # exact, float weights
    assert all(error and "not optimal" in error for error in errors)


@pytest.mark.parametrize("strength", [4, 6])  # exact int64 path, float path
def test_oracle_jobs_pass(tmp_path, strength):
    assert single_pass("oracle_k7", [oracle_design(strength)], tmp_path) == [None]


@pytest.mark.parametrize("strength", [4, 6])
def test_corrupted_oracle_entry_fails(tmp_path, monkeypatch, strength):
    real = workloads.info_matrix_exact

    def corrupted(explicit):
        dense = real(explicit)
        if dense.is_exact:
            num = dense.exact_num.copy()
            num[3, 3] += 1
            return dataclasses.replace(dense, exact_num=num, entries=num / dense.exact_den)
        entries = dense.entries.copy()
        entries[3, 3] *= 1 + 1e-6
        return dataclasses.replace(dense, entries=entries)

    monkeypatch.setattr(workloads, "info_matrix_exact", corrupted)
    [error] = single_pass("oracle_k7", [oracle_design(strength)], tmp_path)
    expected = "entry (3, 3)" if strength == 4 else "float oracle deviates"
    assert error and expected in error


def test_cli_step_passes(tmp_path):
    assert single_pass("cli_session", [cli_step("dims")], tmp_path) == [None]


def test_wrong_cli_exit_code_fails(tmp_path, monkeypatch):
    real = workloads.run_child

    def failing(argv, cwd):
        _, stdout, rss = real(argv, cwd)
        return 3, stdout, rss

    monkeypatch.setattr(workloads, "run_child", failing)
    assert single_pass("cli_session", [cli_step("dims")], tmp_path) == ["exit code 3"]


def test_wrong_cli_final_line_fails(tmp_path):
    step = dataclasses.replace(cli_step("dims"), args=("dims", "--k", "5"))
    [error] = single_pass("cli_session", [step], tmp_path)
    assert error and error.startswith("final line")


def test_spans_self_time():
    tracer = Tracer()
    with tracer.span("bench.job", "j"):
        with tracer.span("optimizer.optimize_full", "j") as counts:
            counts["iterations"] = 3
    child, parent = tracer.spans
    assert child["parent"] == parent["id"] and parent["parent"] is None
    own = workloads.self_times(tracer.spans)
    assert own[parent["id"]] == pytest.approx(
        (parent["end"] - parent["start"]) - (child["end"] - child["start"]))
    assert workloads.layer_metrics(tracer.spans)["optimizer.iterations"] == 3


def test_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"] for m in benchmark["per_layer"]}
    measured = set(workloads.layer_metrics([])) | {
        "import.pairdesign_s", "import.numpy_s", "import.scipy_s",
        "trace.overhead_share"}
    assert measured == declared
    assert np.isfinite(list(workloads.layer_metrics([]).values())).all()
