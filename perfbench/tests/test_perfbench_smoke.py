"""Smoke run of the benchmark on tiny jobs.

Checks that every metric BENCHMARK.json names is emitted, in both the
end-to-end and the traced mode, and that a deliberately wrong pinned value is
counted as a failed job.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import pin  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
from workloads import CliJob  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BASE3 = "digitset=p=3;digits=0,1\n"
TINY = [
    CliJob("tiny.count", "count", BASE3 + "s=2\nk=1\nX=9,27\n"),
    CliJob("tiny.histogram", "count", BASE3 + "s=2\nk=2\nX=27\nhistogram=on\n",
           ("--workers", "2")),
    CliJob("tiny.lambda", "congruence", "task=lambda\n" + BASE3 + "s=2\nk=2\nB=2\nX=27\n"),
    CliJob("tiny.decompose", "lift", "task=decompose\n" + BASE3 + "t=2\nd=1\nX=9\n"),
    CliJob("tiny.etstar", "etstar", "source=squares\nt=2\nN=1000\n"),
    CliJob("tiny.waring", "waring", BASE3 + "s=2\nk=2\nX=100\n"),
    CliJob("tiny.refusal", "count", BASE3 + "s=3\nk=2\nX=9,27\n",
           ("--budget-tuples", "100"), exit_code=3),
]


def names(kind):
    return sorted(m["name"] for m in BENCHMARK[kind])


def test_every_metric_is_emitted(tmp_path):
    golden = pin.pin_jobs(TINY, tmp_path / "pin")
    raw = runner.run_workload("tiny", 1, 0, False, tmp_path / "plain", TINY, golden)
    assert raw["failed"] == 0, raw["problems"]
    setup = run.measure_setup(TINY[0].config, tmp_path, repeats=1)
    assert sorted(run.end_to_end_metrics(raw, setup)) == names("end_to_end")

    traced = runner.run_workload("tiny", 1, 0, True, tmp_path / "traced", TINY, golden)
    assert traced["failed"] == 0, traced["problems"]
    metrics = run.per_layer_metrics(traced)
    assert sorted(metrics) == names("per_layer")
    assert not traced["problems"]
    assert metrics["meanvalue.multiplicity_table.calls"]["value"] > 0
    # members 1, 3, 4, 9 give 16 tuples (t=2) and 256 pairs of tuples
    assert metrics["lifting.carry_decomposition.pairs"]["value"] == 256


def test_wrong_pinned_value_counts_as_failure(tmp_path):
    golden = pin.pin_jobs(TINY, tmp_path / "pin")
    pinned = golden["tiny.count"]["count.csv"]
    pinned["text"] = pinned["text"].replace(",mitm,", "1,mitm,", 1)
    pinned["sha256"] = "0" * 64
    raw = runner.run_workload("tiny", 2, 0, False, tmp_path / "run", TINY, golden)
    assert raw["failed"] == 1
    assert raw["failed"] / raw["attempted"] > 0
    assert raw["problems"][0].startswith("tiny.count: count.csv: line 3")
