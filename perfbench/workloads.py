"""Workloads, jobs and the correctness gate of the pairdesign benchmark.

Each job calls pairdesign's public functions (or its CLI, in a fresh process)
inside spans named ``<module>.<function>`` and returns an ``Outcome``.  The
gate lives here, outside the package: a job fails when it raises, when a CLI
call exits non-zero, or when a check below rejects its output.  The seed only
shuffles job order; the job sets are fixed, so no seed can leave a spec out.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from pairdesign import (  # noqa: E402
    ModelSpec,
    count_pairs,
    info_matrix_exact,
    kw_certify,
    mix_h,
    optimize_full,
    realize_design,
    variance_sweep_max_deviation,
)
from pairdesign.cli import EXPECTED_TWO_DEPTH_DESIGNS  # noqa: E402

from spans import layer_of, self_times  # noqa: E402

# h lives in R^4, so an optimum needs at most four support depths.
MAX_SUPPORT = 4
# Float-path oracle vs closed-form blocks, relative to the largest block entry.
ORACLE_REL_TOL = 1e-9
# Variance sweep deviation, relative to p.
SWEEP_REL_TOL = 1e-9

GRID_SPECS = tuple((k, s) for k in range(4, 41) for s in range(4, k + 1))
FULL_LARGE_SPECS = tuple((s, s) for s in (200, 600, 1000))
ORACLE_K = 7
LAYERS = ("design_space", "information", "equivalence", "optimizer", "cli", "bench")


@dataclass(frozen=True)
class Outcome:
    """Result of one job as the gate sees it."""

    error: str | None = None
    # proved in exact arithmetic; None for a job that proves nothing
    exact: bool | None = None
    # peak resident memory of the job's child process, 0 for in-process jobs
    rss_kb: int = 0


def shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def spec_id(spec: ModelSpec) -> str:
    return f"K{spec.n_attributes}S{spec.strength}"


# --- grid_k40 and full_large: optimize_full, kw_certify, exact proof ---------


def check_solution(spec: ModelSpec, result, report) -> str | None:
    """Gate for one optimizer result and its tol-1e-6 certificate."""
    if not result.certified:
        return "optimize_full did not certify its result"
    if not report.optimal:
        return f"kw_certify: {report.verdict}, max excess {float(report.max_excess):.3e}"
    if len(result.support) > MAX_SUPPORT:
        return f"support on {len(result.support)} depths"
    s = spec.strength
    if spec.n_attributes == s and s in EXPECTED_TWO_DEPTH_DESIGNS:
        d_low, w_low, d_high, w_high = EXPECTED_TWO_DEPTH_DESIGNS[s]
        weights = result.design.weights
        got = (result.support, round(float(weights.get(d_low, 0)), 3),
               round(float(weights.get(d_high, 0)), 3))
        if got != ((d_low, d_high), w_low, w_high):
            return f"table 2 reference mismatch at S={s}: got {got}"
    return None


def solve_job(job: tuple[int, int], tracer, workdir: str) -> Outcome:
    spec = ModelSpec(*job)
    job_id = spec_id(spec)
    with tracer.span("optimizer.optimize_full", job_id) as counts:
        result = optimize_full(spec)
        counts.update(iterations=result.iterations, support=len(result.support),
                      float_result=int(not result.design.is_exact))
    with tracer.span("equivalence.kw_certify", job_id) as counts:
        report = kw_certify(result.design)
        # dust weights on depths with V(d) < p: counted, not failed
        counts["support_violation"] = int(not report.support_ok)
    proved = False
    if result.design.is_exact:
        with tracer.span("equivalence.kw_certify_tol0", job_id):
            proved = kw_certify(result.design, tol=0).optimal
    return Outcome(check_solution(spec, result, report), proved)


def solve_job_id(job: tuple[int, int]) -> str:
    return spec_id(ModelSpec(*job))


# --- oracle_k7: realize, brute-force oracle, block check, variance sweep -----


def oracle_designs(seed: int) -> list:
    """The certified optimum for each S = 4..7 at K = 7, in seeded order."""
    designs = []
    for s in range(4, ORACLE_K + 1):
        result = optimize_full(ModelSpec(ORACLE_K, s))
        if not result.certified:
            raise RuntimeError(f"set-up: optimize_full did not certify K={ORACLE_K} S={s}")
        designs.append(result.design)
    return shuffled(designs, seed)


def compare_oracle(dense, block) -> str | None:
    """Oracle matrix vs the closed-form block-diagonal matrix.

    On the exact path the comparison is between integers over the oracle's
    common denominator; on the float path it is relative to the largest entry.
    """
    block_of = np.repeat(np.arange(4), block.spec.block_dims)
    if dense.is_exact:
        scaled = [Fraction(h) * dense.exact_den for h in block.values]
        if any(v.denominator != 1 for v in scaled):
            return "closed-form blocks are not integral over the oracle denominator"
        want = np.diag(np.array([int(scaled[r]) for r in block_of], dtype=np.int64))
        wrong = np.argwhere(dense.exact_num != want)
        if len(wrong):
            return f"exact oracle entry {tuple(int(i) for i in wrong[0])} differs from the closed form"
        return None
    want = block.as_matrix()
    deviation = float(np.max(np.abs(dense.entries - want)))
    if not deviation <= ORACLE_REL_TOL * float(np.max(np.abs(want))):
        return f"float oracle deviates from the closed form by {deviation:.3e}"
    return None


def oracle_job(design, tracer, workdir: str) -> Outcome:
    spec = design.spec
    job_id = spec_id(spec)
    p = spec.n_params
    with tracer.span("design_space.realize_design", job_id) as counts:
        explicit = realize_design(design)
        counts["pairs"] = len(explicit.entries)
    with tracer.span("information.info_matrix_exact", job_id) as counts:
        dense = info_matrix_exact(explicit)
        counts.update(exact=int(dense.is_exact), flop=2 * len(explicit.entries) * p * p)
    with tracer.span("information.mix_h", job_id):
        block = mix_h(design)
        block.as_matrix()
    error = compare_oracle(dense, block)
    sweep_pairs = sum(count_pairs(spec, d) for d in spec.depths)
    with tracer.span("equivalence.variance_sweep_max_deviation", job_id) as counts:
        deviation = variance_sweep_max_deviation(design, explicit)
        counts["pairs"] = sweep_pairs
    if error is None and not deviation <= SWEEP_REL_TOL * p:
        error = f"variance sweep deviation {deviation:.3e} exceeds {SWEEP_REL_TOL:g}*p"
    return Outcome(error, dense.is_exact)


def oracle_job_id(design) -> str:
    return spec_id(design.spec)


# --- cli_session: a fixed script of fresh-process CLI invocations -------------


@dataclass(frozen=True)
class CliStep:
    label: str
    args: tuple[str, ...]
    # (stdout, workdir) -> Outcome of the gate
    check: Callable[[str, str], Outcome]
    # file the step writes inside workdir, counted as rows and bytes
    output: str | None = None


def final_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def expect_final(expected: str) -> Callable[[str, str], Outcome]:
    """Gate on the final stdout line, compared token by token."""

    def check(stdout: str, workdir: str) -> Outcome:
        last = final_line(stdout)
        if last.split() != expected.split():
            return Outcome(f"final line {last!r}, expected {expected!r}")
        return Outcome()

    return check


def reported_excess(line: str) -> float:
    match = re.search(r"max excess:? (\S+)", line)
    if match is None:
        raise ValueError(f"no max excess in {line!r}")
    return float(match.group(1))


def check_enumerate(stdout: str, workdir: str) -> Outcome:
    expected = count_pairs(ModelSpec(6, 6), 3)
    with open(os.path.join(workdir, "enum.csv")) as handle:
        last = final_line(handle.read())
    if not last.startswith(f"{expected},"):
        return Outcome(f"enum.csv ends with {last[:20]!r}, expected pair {expected}")
    return Outcome()


def check_optimize(stdout: str, workdir: str) -> Outcome:
    d_low, _, d_high, _ = EXPECTED_TWO_DEPTH_DESIGNS[12]
    if f"support: {d_low} {d_high}" not in stdout.splitlines():
        return Outcome(f"support is not {d_low} {d_high}")
    last = final_line(stdout)
    if not last.startswith("certified D-optimal"):
        return Outcome(f"final line {last!r}")
    return Outcome(None, reported_excess(last) == 0.0)


def check_export(stdout: str, workdir: str) -> Outcome:
    certification = json.loads(stdout)["certification"]
    if certification["verdict"] != "optimal":
        return Outcome(f"verdict {certification['verdict']!r}")
    support = [int(d) for d, w in certification["weights"].items() if w > 0]
    expected_rows = sum(count_pairs(ModelSpec(6, 6), d) for d in support)
    with open(os.path.join(workdir, "plan.csv")) as handle:
        rows = sum(1 for _ in handle) - 1
    if rows != expected_rows:
        return Outcome(f"plan.csv has {rows} rows, expected {expected_rows}")
    return Outcome(None, certification["max_excess"] == 0.0)


def check_verify(stdout: str, workdir: str) -> Outcome:
    lines = stdout.strip().splitlines()
    p = int(re.search(r"\bp=(\d+)", lines[0]).group(1))
    if "verdict: optimal" not in lines:
        return Outcome("verdict is not optimal")
    values = dict(line.rsplit(": ", 1) for line in lines if line.startswith("oracle "))
    block = float(values["oracle block deviation"])
    variance = float(values["oracle variance deviation"])
    if not block <= ORACLE_REL_TOL * p or not variance <= SWEEP_REL_TOL * p:
        return Outcome(f"oracle deviations {block:.3e} (block), {variance:.3e} (variance)")
    if not final_line(stdout).startswith("oracle variance deviation"):
        return Outcome(f"final line {final_line(stdout)!r}")
    excess = next(reported_excess(line) for line in lines if line.startswith("max excess"))
    return Outcome(None, excess == 0.0)


def cli_steps() -> list[list[CliStep]]:
    """The script, in units that keep their inner order when shuffled."""
    table = lambda n: CliStep(f"tables{n}", ("tables", str(n), "--check"), expect_final("check: OK"))  # noqa: E731
    return [
        [CliStep("dims", ("dims", "--k", "4"), expect_final("4 6 4 1 15"))],
        [CliStep("hvalues", ("hvalues", "--k", "12", "--s", "12"), expect_final("12 4 0 4 0"))],
        [CliStep("enumerate", ("enumerate", "--k", "6", "--s", "6", "--d", "3", "--out", "enum.csv"),
                 check_enumerate, output="enum.csv")],
        [CliStep("optimize", ("optimize", "--k", "12", "--s", "12"), check_optimize)],
        # verify reads the plan the export writes
        [CliStep("optimize_export", ("optimize", "--k", "6", "--s", "6", "--json", "--export", "plan.csv"),
                 check_export, output="plan.csv"),
         CliStep("verify_oracle", ("verify", "plan.csv", "--oracle"), check_verify)],
        [table(1)], [table(2)], [table(3)],
    ]


def cli_script(seed: int) -> list[CliStep]:
    return [step for unit in shuffled(cli_steps(), seed) for step in unit]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], cwd: str) -> tuple[int, str, int]:
    """Run a child to completion: exit code, stdout, peak RSS in KiB.

    stderr goes to a file in ``cwd`` so a warning cannot become the final
    stdout line.
    """
    with open(os.path.join(cwd, "stderr.txt"), "w") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def cli_job(step: CliStep, tracer, workdir: str) -> Outcome:
    with tracer.span(f"cli.{step.label}", step.label) as counts:
        code, stdout, rss_kb = run_child([sys.executable, "-m", "pairdesign.cli", *step.args], workdir)
        if step.output and code == 0:
            with open(os.path.join(workdir, step.output), "rb") as handle:
                data = handle.read()
            counts.update(rows=data.count(b"\n") - 1, bytes=len(data))
    if code != 0:
        return Outcome(f"exit code {code}", rss_kb=rss_kb)
    outcome = step.check(stdout, workdir)
    return Outcome(outcome.error, outcome.exact, rss_kb)


# --- registry and per-layer metrics -------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_jobs: Callable[[int], list]
    run_job: Callable
    job_id: Callable[[object], str]
    # jobs run inside the benchmark process (else in child processes)
    in_process: bool = True
    # other names of end-to-end metrics on this workload, printed in the report:
    # alias -> (metric, scale, unit)
    aliases: dict = field(default_factory=dict)


_SOLVE_ALIASES = {"solve_ms_p50": ("job_ms_p50", 1.0, "ms"), "solve_ms_p98": ("job_ms_p98", 1.0, "ms")}

WORKLOADS = {
    "grid_k40": Workload(lambda seed: shuffled(GRID_SPECS, seed), solve_job, solve_job_id,
                         aliases=_SOLVE_ALIASES),
    "full_large": Workload(lambda seed: shuffled(FULL_LARGE_SPECS, seed), solve_job, solve_job_id,
                           aliases=_SOLVE_ALIASES),
    "oracle_k7": Workload(oracle_designs, oracle_job, oracle_job_id),
    "cli_session": Workload(cli_script, cli_job, lambda step: step.label, in_process=False,
                            aliases={"cli_s_p50": ("job_ms_p50", 1e-3, "s")}),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where the pass never used a layer."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(name: str, keep=lambda span: True) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name] if keep(s))

    def total(name: str, count: str) -> int:
        return sum(s["counts"].get(count, 0) for s in by_name[name])

    m: dict[str, float] = {}
    m["optimizer.solve_s"] = busy("optimizer.optimize_full")
    for k, s in FULL_LARGE_SPECS:
        m[f"optimizer.solve_s.S{s}"] = busy("optimizer.optimize_full",
                                            lambda span: span["job"] == f"K{k}S{s}")
    m["optimizer.iterations"] = total("optimizer.optimize_full", "iterations")
    m["optimizer.float_results"] = total("optimizer.optimize_full", "float_result")
    m["optimizer.support_max"] = max(
        (s["counts"].get("support", 0) for s in by_name["optimizer.optimize_full"]), default=0)
    m["equivalence.certify_s"] = busy("equivalence.kw_certify")
    m["equivalence.support_violations"] = total("equivalence.kw_certify", "support_violation")
    m["equivalence.exact_proof_s"] = busy("equivalence.kw_certify_tol0")
    m["design_space.realize_s"] = busy("design_space.realize_design")
    m["design_space.pairs_realized"] = total("design_space.realize_design", "pairs")
    oracle = "information.info_matrix_exact"
    m["information.oracle_exact_s"] = busy(oracle, lambda span: span["counts"].get("exact") == 1)
    m["information.oracle_float_s"] = busy(oracle, lambda span: span["counts"].get("exact") == 0)
    m["information.block_check_s"] = busy("information.mix_h")
    m["information.oracle_gflop"] = total(oracle, "flop") / 1e9
    oracle_s = busy(oracle)
    m["information.oracle_gflops"] = m["information.oracle_gflop"] / oracle_s if oracle_s else 0.0
    sweep = "equivalence.variance_sweep_max_deviation"
    m["equivalence.sweep_s"] = busy(sweep)
    m["equivalence.sweep_pairs"] = total(sweep, "pairs")
    m["equivalence.sweep_pairs_per_s"] = (
        m["equivalence.sweep_pairs"] / m["equivalence.sweep_s"] if m["equivalence.sweep_s"] else 0.0)
    for unit in cli_steps():
        for step in unit:
            m[f"cli.{step.label}_s"] = busy(f"cli.{step.label}")
    m["cli.export_rows"] = total("cli.optimize_export", "rows")
    m["cli.export_bytes"] = total("cli.optimize_export", "bytes")
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if layer_of(s) == layer)
    return m
