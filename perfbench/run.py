"""Benchmark of the ellipsephic CLI: one workload per call, results as JSON.

    python3 perfbench/run.py --workload count --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  With ``--trace 0`` it reports the end-to-end metrics:

    wall_s       wall time of one pass over the workload's jobs, in-process: the
                 sum over jobs of each job's fastest run in this run's passes
    setup_s      median of fresh interpreters importing ellipsephic.cli and
                 parsing one config (what every CLI call pays)
    peak_rss_mb  peak resident memory of one pass in a fresh process, the larger
                 of the process and its pool workers
    refusal_s    time from start to exit 3, summed over the workload's
                 budget-refusal jobs, each at its fastest run

Each job's fastest run, not the median pass, because the shared host this
was built on has slow phases lasting tens of seconds that only ever add
time: over ten runs the median pass spread by 13 to 20 % of its value and
the summed fastest runs by 5 to 8 %.  The report still prints the median
pass with its quartiles and sample count.

Failed jobs over attempted jobs (fail_frac) is the ``failed`` and
``attempted`` pair of the result line.  With ``--trace 1`` a separate run
alternates untraced and traced passes and reports the per-layer metrics of
spans.PER_LAYER plus trace_overhead_frac.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; a
full record with samples, environment and seed goes to
``.perfbench/results/``, and the traced call tree to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # the whole call, set-up included, must end within 180 s
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ellipsephic.cli as c; "
              "c.parse_config_text(open(sys.argv[2]).read())")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "refusal_s": "s"}


def measure_setup(config: str, workdir: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse ``config``.

    One discarded call first, so byte-compiling a fresh checkout is not timed.
    """
    cfg = workdir / "setup.cfg"
    cfg.write_text(config)
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(cfg)]
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times[1:]


def git_state() -> dict:
    """Commit and dirty flag, or nulls when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ellipsephic CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    if not (ROOT / "src" / "ellipsephic" / "__init__.py").is_file():
        print(f"error: no ellipsephic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)

    setup = []
    if not args.trace:
        setup = measure_setup(workloads.make_jobs(args.workload)[0].config, workdir)
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir / "jobs")]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, DEADLINE_S - (time.perf_counter() - begin)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: runner exited with {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.strip().splitlines()[-1])
    shutil.rmtree(workdir)

    metrics = per_layer_metrics(raw) if args.trace else end_to_end_metrics(raw, setup)

    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **git_state(), "environment": raw.pop("environment"),
              "setup_s": setup, **{k: v for k, v in raw.items() if k != "trace_records"},
              "metrics": metrics}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(raw["trace_records"], indent=1) + "\n")

    print_report(record, setup)
    correct = raw["failed"] == 0 and not raw["problems"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


def fastest_pass(job_s: dict[str, list[float]], names=None) -> float:
    """Sum over jobs (or over ``names``) of each job's fastest successful run."""
    return sum(min(times) for name, times in job_s.items()
               if times and (names is None or name in names))


def end_to_end_metrics(raw: dict, setup: list[float]) -> dict[str, dict]:
    values = {
        "wall_s": fastest_pass(raw["job_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "refusal_s": fastest_pass(raw["job_s"], raw["refusal_jobs"]),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer_metrics(raw: dict) -> dict[str, dict]:
    """Per-layer values of the traced passes plus the tracing overhead.

    Times are medians over the passes.  Counts and ratios of counts are exact,
    so every pass must repeat them; one that does not makes the run incorrect.
    """
    per_pass = raw["per_layer"]
    out = {}
    for name, (unit, *_) in spans.PER_LAYER.items():
        values = [p[name] for p in per_pass]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                raw["problems"].append(f"{name} did not repeat: {values}")
        out[name] = {"value": value, "unit": unit}
    overhead = fastest_pass(raw["traced_job_s"]) / fastest_pass(raw["job_s"]) - 1
    out["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return out


def print_report(record: dict, setup: list[float]) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']}: {record['why']}")
    print(f"# seed {record['seed']}  git {record['git_sha']} dirty={record['git_dirty']}  "
          f"python {env['python']}  numpy {env['numpy']}  {env['blas']} "
          f"threads={env['blas_threads']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    fail_frac = record["failed"] / record["attempted"]
    print(f"fail_frac      {fail_frac:.4f} ratio  ({record['failed']} of "
          f"{record['attempted']} jobs failed)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{name:52s} {m['value']:.6g} {m['unit']}")
        for b in record["baselines"]:
            traced = ", ".join(f"{t:.3f} s" for t in b["traced_s"]) or "not in this workload"
            print(f"baseline {b['what']}: ROADMAP {b['roadmap_s']} s, traced {traced}")
        return
    for name, m in record["metrics"].items():
        print(f"{name:14s} {m['value']:.4f} {m['unit']}")
    for name, samples in (("pass", record["wall_s"]), ("setup", setup)):
        q1, q3 = quartiles(samples)
        print(f"  {name} wall time: median {statistics.median(samples):.4f} s, "
              f"quartiles {q1:.4f}..{q3:.4f} s, n={len(samples)}")


if __name__ == "__main__":
    sys.exit(main())
