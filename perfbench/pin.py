"""Regenerate golden.json, the pinned outputs of every CLI job.

    python3 perfbench/pin.py

Each CLI job runs once.  Jobs that ask for pool workers are pinned from a
``--workers 1`` run, so every benchmark pass also checks that the pooled
output has the same bytes as the sequential one.  Before anything is written
the outputs must reproduce the values the test suite already freezes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def sequential(args: tuple[str, ...]) -> tuple[str, ...]:
    out = list(args)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return tuple(out)


def pin_jobs(jobs: list, workdir: Path) -> dict:
    """Run each CLI job once, sequentially, and pin what it wrote."""
    import ellipsephic
    import ellipsephic.cli  # noqa: F401

    workdir.mkdir(parents=True, exist_ok=True)
    golden = {}
    for job in jobs:
        if not isinstance(job, workloads.CliJob):
            continue
        job = dataclasses.replace(job, args=sequential(job.args))
        job.prepare(workdir, random.Random(0))
        outcome = job.run(ellipsephic, workdir)
        if outcome.problem:
            raise SystemExit(f"{job.name}: {outcome.problem}")
        golden[job.name] = job.pin(workdir)
    return golden


def check_frozen(workdir: Path) -> None:
    """Values frozen in tests/test_acceptance.py (c07, c08, c09) and the issue text."""
    counts = [int(row[4]) for row in workloads.read_csv(workdir / "count.k1" / "count.csv")]
    etstar = json.loads((workdir / "etstar.t2" / "etstar.json").read_text())
    chain = workloads.read_csv(workdir / "lift.chain" / "lift_chain.csv")
    dec = {row[0]: Fraction(row[1])
           for row in workloads.read_csv(workdir / "lift.decompose" / "lift_decomposition.csv")}
    checks = {
        "GOLDEN_SERIES[3]": counts == [1830465, 269826669, 40343833821, 6052733316465],
        "c08 max and slope": etstar["max_count"] == 32
                             and abs(etstar["slope"] - 0.2355961372) < 1e-6,
        "c07 j* = 3": int(chain[-1][0]) == 3 and all(row[2] == "1" for row in chain),
        "decomposition": dec == {"-1": 26244, "0": 124659, "1": 26244},
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise SystemExit(f"outputs break frozen values: {', '.join(failed)}")


def main() -> int:
    workdir = HERE.parent / ".perfbench" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    golden = {}
    for workload in sorted(workloads.WHY):
        golden.update(pin_jobs(workloads.make_jobs(workload), workdir))
    check_frozen(workdir)
    shutil.rmtree(workdir)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} jobs into {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
