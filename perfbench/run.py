"""pairdesign benchmark: one workload per process, checked and timed.

    python3 perfbench/run.py --workload grid_k40 --seed 1 --seconds 20 --trace 0

Runs passes over the workload's fixed job list until ``--seconds`` is used up,
checks every job's output, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced.  With
``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones, from the traced passes' spans, and the spans are written to
``perfbench/out/`` when the run ends.  ``--workload all`` runs every workload,
each in its own process.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier on a small shared machine, and never more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fresh processes timed for setup_s, and -X importtime runs for import.*.
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
SETUP_CODE = "import sys; sys.path.insert(0, {here!r}); import workloads; workloads.WORKLOADS[{name!r}].make_jobs({seed})"


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    outcomes: list  # (job id, Outcome)
    spans: list[dict]


def run_pass(workload, jobs, tracer, workdir: str) -> PassResult:
    from workloads import Outcome

    first_span = len(tracer.spans)
    latencies, outcomes = [], []
    start = time.perf_counter()
    for job in jobs:
        job_id = workload.job_id(job)
        began = time.perf_counter()
        with tracer.span("bench.job", job_id):
            try:
                outcome = workload.run_job(job, tracer, workdir)
            except Exception as exc:  # a job that raises is a failed job, not a crashed run
                outcome = Outcome(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - began)
        outcomes.append((job_id, outcome))
    return PassResult(time.perf_counter() - start, latencies, outcomes, tracer.spans[first_span:])


def run_passes(workload, jobs, seconds: float, traced: bool, workdir: str):
    """Passes until the next one would overrun ``seconds``; untraced and traced alternate."""
    from spans import NullTracer, Tracer

    tracer, null = Tracer(), NullTracer()
    plain: list[PassResult] = []
    spanned: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        if traced and len(spanned) < len(plain):
            spanned.append(run_pass(workload, jobs, tracer, workdir))
        else:
            plain.append(run_pass(workload, jobs, null, workdir))
        complete = bool(plain) and (bool(spanned) or not traced)
        estimate = statistics.median(p.wall for p in plain + spanned)
        if complete and time.perf_counter() + estimate > deadline:
            return plain, spanned, tracer.spans


def time_child(argv: list[str]) -> tuple[float, str]:
    """Wall time of a fresh process, and its stderr; a failed child aborts the run."""
    from workloads import child_env

    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return elapsed, done.stderr


def import_metrics() -> dict[str, float]:
    """import.* from ``python -X importtime``: the whole package, and numpy's and scipy's own modules."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, stderr = time_child([sys.executable, "-X", "importtime", "-c", "import pairdesign"])
        package, own = 0, {"numpy": 0, "scipy": 0}
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name == "pairdesign":
                package = cumulative_us
            top = name.split(".", 1)[0]
            if top in own:
                own[top] += self_us
        samples.append({"import.pairdesign_s": package / 1e6,
                        "import.numpy_s": own["numpy"] / 1e6,
                        "import.scipy_s": own["scipy"] / 1e6})
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pairdesign")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_times(passes: list[PassResult]) -> list[float]:
    """Each job's median time over the passes.

    Other tenants of a shared machine slow it for a fraction of a second up to
    seconds at a time; the per-job median drops those bursts job by job, where
    a pass's wall time would keep every burst that fell into it.
    """
    return [statistics.median(times) for times in zip(*(p.latencies for p in passes))]


def end_to_end(workload, plain: list[PassResult], setup: list[float]) -> dict[str, float]:
    typical = job_times(plain)
    provers = [o.exact for p in plain for _, o in p.outcomes if o.exact is not None]
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.rss_kb for p in plain for _, o in p.outcomes)
    return {
        "wall_s": sum(typical),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
        "job_ms_p50": 1e3 * statistics.median(typical),
        "job_ms_p98": 1e3 * percentile(typical, 98),
        "exact_proof_share": sum(provers) / len(provers),
    }


def per_layer(plain: list[PassResult], spanned: list[PassResult]) -> dict[str, float]:
    from workloads import layer_metrics

    per_pass = [layer_metrics(p.spans) for p in spanned]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update(import_metrics())
    metrics["trace.overhead_share"] = sum(job_times(spanned)) / sum(job_times(plain)) - 1
    return metrics


def run_workload(declared: dict, name: str, seed: int, seconds: int, traced: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_argv = [sys.executable, "-c", SETUP_CODE.format(here=HERE, name=name, seed=seed)]
    setup = [time_child(setup_argv)[0] for _ in range(SETUP_SAMPLES)]
    jobs = workload.make_jobs(seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plain, spanned, spans = run_passes(workload, jobs, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir)

    e2e = end_to_end(workload, plain, setup)
    layers = per_layer(plain, spanned) if traced else {}
    outcomes = [(job_id, o) for p in plain + spanned for job_id, o in p.outcomes]
    failures = [(job_id, o.error) for job_id, o in outcomes if o.error is not None]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if traced else "end_to_end"]]
    reported = {**e2e, **layers}
    missing = [m for m in wanted if m not in reported]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(traced)}")
    info = provenance(seed)
    record = {"workload": name, "seconds": seconds, "provenance": info,
              "passes": {"untraced_s": [p.wall for p in plain], "traced_s": [p.wall for p in spanned]},
              "jobs_per_pass": len(jobs), "setup_samples_s": setup,
              "end_to_end": e2e, "per_layer": layers, "failures": failures[:50]}
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    if traced:
        from spans import write_spans

        write_spans(stem + "-spans.jsonl", spans)

    print(f"workload {name}: {len(jobs)} jobs/pass, {len(plain)} untraced + {len(spanned)} traced passes")
    print("provenance " + json.dumps(info, sort_keys=True))
    for job_id, error in failures[:10]:
        print(f"FAILED {job_id}: {error}")
    for metric, value in reported.items():
        print(f"  {metric:<34s} {value:.6g} {units.get(metric, '')}")
    for alias, (metric, scale, unit) in workload.aliases.items():
        print(f"  {alias:<34s} {e2e[metric] * scale:.6g} {unit}  (= {metric} on {name})")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m: {"value": reported[m], "unit": units[m]} for m in wanted},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pairdesign", "__init__.py")):
        print(f"error: no pairdesign sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        worst = 0
        for name in names:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
            worst = max(worst, done.returncode)
        return worst
    return run_workload(declared, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
