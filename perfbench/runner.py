"""Run one workload's passes in a fresh process and report them as one JSON line.

``run.py`` starts this file as a child process, so the peak resident memory it
reports belongs to the workload alone.  Passes run until the requested
seconds have passed, at least MIN_PASSES of them.  The outputs of the first
pass are compared with the pinned values and cross-checked by independent
routes, and peak memory is read right after it; every later pass must
reproduce the first pass's bytes, so a config whose output is not
deterministic counts as failed.  With tracing on, untraced and traced passes
alternate, and the traced ones give the per-layer metrics.

    python3 perfbench/runner.py --workload count --seed 1 --seconds 35 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_PASSES = 2
MAX_PROBLEMS = 20

# ROADMAP "Recent" baselines: single untraced runs on a 2-core box.
BASELINES = [
    ("mitm_count k=1 s=3 Y=729 (dense path)", 2.9, "meanvalue.mitm_count",
     {"Y": 729, "s": 3, "k": 1}),
    ("rep_profile squares t=2 N=10^6", 0.6, "digits.rep_profile",
     {"t": 2, "horizon": 10**6}),
    ("carry_decomposition n=729 d=1", 2.6, "lifting.carry_decomposition",
     {"n": 729, "t": 2, "depth": 1}),
]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 jobs: list | None = None, golden: dict | None = None) -> dict:
    """Warm-up pass, then timed passes for ``seconds``; returns the raw samples."""
    import ellipsephic
    import ellipsephic.cli  # noqa: F401  (binds ellipsephic.cli)

    if Path(ellipsephic.__file__).resolve().parent != ROOT / "src" / "ellipsephic":
        raise RuntimeError(f"imported {ellipsephic.__file__}, not this checkout's src")
    rng = random.Random(seed)
    jobs = workloads.make_jobs(workload) if jobs is None else jobs
    golden = workloads.load_golden() if golden is None else golden
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for job in jobs:
        job.prepare(workdir, rng)

    tally = {"attempted": 0, "failed": 0, "problems": []}

    def record(job, problem: str | None) -> bool:
        tally["attempted"] += 1
        if problem:
            tally["failed"] += 1
            if len(tally["problems"]) < MAX_PROBLEMS:
                tally["problems"].append(f"{job.name}: {problem}")
        return problem is None

    tracer = Tracer(ellipsephic) if trace else None
    samples = {"wall_s": [], "traced_wall_s": [], "per_layer": [],
               "job_s": {job.name: [] for job in jobs},
               "traced_job_s": {job.name: [] for job in jobs},
               "refusal_jobs": [job.name for job in jobs if job.refusal]}
    first_digests: dict[str, dict] = {}
    peak_kib = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        first = not first_digests
        traced = trace and len(samples["wall_s"]) > len(samples["traced_wall_s"])
        enough = min(len(samples["wall_s"]),
                     len(samples["traced_wall_s"]) if trace else MIN_PASSES) >= MIN_PASSES
        if enough and not traced and time.perf_counter() - start + last / 2 >= seconds:
            break
        pass_start = time.perf_counter()
        wall = 0.0
        # The first pass keeps the listed order, because a pool's fork copies
        # whatever earlier jobs left in memory and peak memory is read after it.
        order = jobs if first else rng.sample(jobs, len(jobs))
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for job in order:
                gc.collect()  # no job pays for collecting the garbage of the one before
                try:
                    if traced:
                        with tracer.job(job.name):
                            outcome = job.run(ellipsephic, workdir)
                    else:
                        outcome = job.run(ellipsephic, workdir)
                    if first and outcome.problem is None:
                        outcome.problem = job.check_golden(workdir, golden)
                except Exception as exc:  # a job that crashes fails; the benchmark goes on
                    outcome = workloads.Outcome(0.0, f"raised {exc!r}")
                problem = outcome.problem
                if first:
                    first_digests[job.name] = outcome.digests
                elif problem is None and outcome.digests != first_digests[job.name]:
                    problem = "outputs differ from the first pass of the same config"
                if record(job, problem):  # a failed job contributes no time
                    samples["traced_job_s" if traced else "job_s"][job.name].append(
                        outcome.seconds)
                    wall += outcome.seconds
        finally:
            if traced:
                tracer.uninstall()
        if first:
            peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if traced:
            samples["traced_wall_s"].append(wall)
            samples["per_layer"].append(tracer.layer_metrics())
        else:
            samples["wall_s"].append(wall)
        last = time.perf_counter() - pass_start

    shutil.rmtree(workdir, ignore_errors=True)
    result = {**tally, "peak_rss_mb": peak_kib / 1024, **samples}
    if trace:
        result["trace_records"] = tracer.records()
        result["baselines"] = [
            {"what": what, "roadmap_s": base,
             "traced_s": [n.total / n.calls for n in tracer.find(name, **sig) if n.calls]}
            for what, base, name, sig in BASELINES]
    return result


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts that the timings depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.workdir)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
