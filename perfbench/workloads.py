"""Workload definitions, pinned outputs and output checks for the benchmark.

Every workload is a closed loop of jobs run back to back in one process: CLI
jobs go through ``ellipsephic.cli.main`` with fixed configs, and the
``modular`` workload adds one library job with seeded rational weights.  The
seed only draws those weights and permutes the job order of each pass.

A job fails when its exit code differs from the expected one or when its
output differs from the pinned values in ``golden.json``.  Integer and string
cells must match exactly; float cells are held to ``FLOAT_RTOL``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Float cells (logs, ratios, least-squares fits, rationals rendered as floats)
# may move in the last digits when a later change reorders a sum.
FLOAT_RTOL = 1e-9

# Pinned files up to this size also keep their text, so a float cell can be
# compared with a tolerance and a mismatch can name the line.
INLINE_BYTES = 4096

SQUARES_5 = "digitset=p=5;digits=0,1,4\n"


@dataclass
class Outcome:
    seconds: float
    problem: str | None = None
    digests: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliJob:
    """One CLI invocation with a fixed config and an expected exit code."""

    name: str
    subcommand: str
    config: str
    args: tuple[str, ...] = ()
    exit_code: int = 0
    crosscheck: object = None  # callable(out_dir) -> problem or None, run once

    @property
    def refusal(self) -> bool:
        return self.exit_code == 3

    def prepare(self, workdir: Path, rng: random.Random) -> None:
        (workdir / f"{self.name}.cfg").write_text(self.config)

    def run(self, pkg, workdir: Path) -> Outcome:
        out = workdir / self.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.subcommand, "--config", str(workdir / f"{self.name}.cfg"),
                "--out", str(out), *self.args]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = pkg.cli.main(argv)
            seconds = time.perf_counter() - t0
        outcome = Outcome(seconds, digests=file_digests(out))
        if code != self.exit_code:
            outcome.problem = f"exit {code}, expected {self.exit_code}: {err.getvalue().strip()}"
        elif self.refusal:
            if not err.getvalue().startswith("error kind=budget"):
                outcome.problem = f"refusal printed {err.getvalue()!r}"
            elif outcome.digests:
                outcome.problem = f"refusal left partial outputs {sorted(outcome.digests)}"
        return outcome

    def check_golden(self, workdir: Path, golden: dict) -> str | None:
        """Compare this job's outputs in ``workdir`` with the pinned entry."""
        pinned = golden.get(self.name)
        if pinned is None:
            return "no pinned outputs"
        out = workdir / self.name
        names = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        if names != sorted(pinned):
            return f"output files {names}, pinned {sorted(pinned)}"
        for fname, pin in pinned.items():
            problem = compare_file(out / fname, pin)
            if problem:
                return f"{fname}: {problem}"
        if self.crosscheck is not None:
            return self.crosscheck(out)
        return None

    def pin(self, workdir: Path) -> dict:
        out = workdir / self.name
        return {p.name: pin_file(p) for p in sorted(out.iterdir())} if out.is_dir() else {}


class LibraryJob:
    """The README quick tour: congruence mean values with seeded rational weights.

    Weights n/16 with n drawn from 1..16 sit on the members of p=5 {0,1,4} up
    to 625.  ``congruence_mean_value`` runs for k=2, s=2, B=4 at h=0 and h=1 in
    count mode (exact Fraction) and grid mode (float).  Count mode must equal
    an independent ordered-tuple evaluation exactly, and grid mode must agree
    with it to FLOAT_RTOL.
    """

    name = "library.mean_value"
    refusal = False
    bound, s, k, level = 625, 2, 2, 4

    def prepare(self, workdir: Path, rng: random.Random) -> None:
        from ellipsephic import DigitSet, iter_members

        members = list(iter_members(DigitSet(5, (0, 1, 4)), self.bound))
        self.numerators = {x: rng.randint(1, 16) for x in members}
        self.expected = {h: ordered_tuple_mean_value(self.numerators, self.s, self.k,
                                                     5**self.level, 5**h)
                         for h in (0, 1)}

    def run(self, pkg, workdir: Path) -> Outcome:
        weights = pkg.WeightAssignment.from_pairs(
            [(x, Fraction(n, 16)) for x, n in self.numerators.items()])
        system = pkg.SpacedSystem.pure_powers(self.k, 5)
        t0 = time.perf_counter()
        values = {}
        for h in (0, 1):
            spec = pkg.MeanValueSpec(system, weights, self.s, self.level, h)
            for mode in ("count", "grid"):
                values[h, mode] = pkg.congruence_mean_value(spec, mode=mode)
        outcome = Outcome(time.perf_counter() - t0)
        for h in (0, 1):
            exact, grid = values[h, "count"], values[h, "grid"]
            if exact != self.expected[h]:
                outcome.problem = f"h={h} count {exact} != exact {self.expected[h]}"
            elif not math.isclose(grid, exact, rel_tol=FLOAT_RTOL):
                outcome.problem = f"h={h} grid {grid!r} != count {float(exact)!r}"
        outcome.digests = {f"h{h}.{mode}": repr(v) for (h, mode), v in values.items()}
        return outcome

    def check_golden(self, workdir: Path, golden: dict) -> str | None:
        return None  # seed-dependent: checked against the exact route in run()


def ordered_tuple_mean_value(numerators: dict, s: int, k: int, modulus: int,
                             class_modulus: int) -> Fraction:
    """Class-averaged congruence mean value by a direct scan of ordered s-tuples.

    With weights n/16 the powers of 16 cancel, so the value is
    sum over classes xi of (N2_xi / N2) * sum_v M_xi(v)^2 / N2_xi^s, where
    M_xi(v) sums the products of numerators over ordered tuples from class xi
    with power-sum key v modulo ``modulus`` and N2 sums squared numerators.
    This shares no code with the library's multiset tables.
    """
    classes: dict[int, list[int]] = {}
    for x in numerators:
        classes.setdefault(x % class_modulus, []).append(x)
    n2_all = sum(n * n for n in numerators.values())
    total = Fraction(0)
    for xs in classes.values():
        masses: dict[tuple[int, ...], int] = {}
        for tup in itertools.product(xs, repeat=s):
            key = tuple(sum(x**j for x in tup) % modulus for j in range(1, k + 1))
            masses[key] = masses.get(key, 0) + math.prod(numerators[x] for x in tup)
        n2 = sum(numerators[x] ** 2 for x in xs)
        total += Fraction(n2, n2_all) * Fraction(sum(m * m for m in masses.values()), n2**s)
    return total


# --- cross-checks by an independent route (run once per run, untimed) ------

def _decomposition_total(out: Path) -> str | None:
    from ellipsephic import DigitSet, iter_members, sum_congruence_count, unit_tuple_weights

    total = sum(Fraction(row[1]) for row in read_csv(out / "lift_decomposition.csv"))
    members = list(iter_members(DigitSet(3, (0, 1, 2), strict=False), 27))
    expected = sum_congruence_count(3, 2, 1, unit_tuple_weights(members, 2))
    return None if total == expected else f"decomposition total {total} != {expected}"


def _waring_sum_r2(s: int, bound: int, route: str):
    def check(out: Path) -> str | None:
        from ellipsephic import (DigitSet, DigitSource, SpacedSystem, integer_root,
                                 iter_members, mitm_count, rep_profile)

        sum_r2 = json.loads((out / "waring.json").read_text())["sumR2"]
        members = list(iter_members(DigitSet(5, (0, 1, 4)), integer_root(bound, 2)))
        if route == "mitm":
            expected = mitm_count(SpacedSystem.single_power(2, 5), s, members,
                                  key_cap=bound).count
        else:  # dense truncated convolution of the squares of the members
            profile = rep_profile(DigitSource.explicit([m * m for m in members]), s, bound)
            expected = sum(c * c for c in profile.counts)
        return None if sum_r2 == expected else f"sumR2 {sum_r2} != {route} {expected}"
    return check


# --- workloads --------------------------------------------------------------

# Why each workload exists; the layer each one stresses is listed in README.md.
WHY = {
    "count": "meanvalue table engine and worker pool: dense k=1 path, pooled dict "
             "path, histogram output; congruence, lifting and waring stay idle",
    "modular": "the same multiplicity tables with Fraction weights and keys mod p^B, "
               "plus carry decomposition, lifting chain and a late budget refusal",
    "profile": "digits.rep_profile and waring.representation_table do the work and cli "
               "writes large CSV files; meanvalue is idle, so it should not move",
}


def make_jobs(workload: str) -> list:
    """Fresh jobs of one workload; the library job keeps per-run state."""
    if workload == "count":
        return [
            CliJob("count.k1", "count", SQUARES_5 + "s=3\nk=1\nX=125,625,3125,15625\n"),
            # Y = 161 rather than the 243 of the ROADMAP baseline, which would
            # make a pass 12 s long and leave room for only two passes a run
            CliJob("count.k2_workers2", "count", SQUARES_5 + "s=3\nk=2\nX=1875\n",
                   ("--workers", "2")),
            CliJob("count.histogram", "count",
                   SQUARES_5 + "s=2\nk=2\nX=9375\nhistogram=on\n"),
            # the last X is over the tuple budget, found only after the first two ran
            CliJob("count.refusal", "count", SQUARES_5 + "s=3\nk=2\nX=125,625,9765625\n",
                   exit_code=3),
        ]
    if workload == "modular":
        return [
            CliJob("congruence.lambda_s2", "congruence",
                   "task=lambda\n" + SQUARES_5 + "s=2\nk=2\nB=2,3,4\nX=3125\n"),
            CliJob("congruence.lambda_s3", "congruence",
                   "task=lambda\n" + SQUARES_5 + "s=3\nk=2\nB=2,3\nX=625\n"),
            CliJob("congruence.K", "congruence",
                   "task=K\n" + SQUARES_5
                   + "s=3\nk=2\nB=3\nX=3125\nt=2\na=1\nb=1\nr=1\nnu=1\ndelta=0,1\n"),
            CliJob("lift.decompose", "lift",
                   "task=decompose\ndigitset=p=3;digits=0,1,2\nstrict=off\nt=2\nd=1\nX=27\n",
                   crosscheck=_decomposition_total),
            CliJob("lift.chain", "lift",
                   "task=chain\ndigitset=p=3;digits=0,1\nt=2\nc=1\nB=3\npsi=0,0,1\nX=27\n"),
            # builds all 729**2 unit tuple weights before the pair budget refuses
            CliJob("lift.refusal", "lift",
                   "task=decompose\n" + SQUARES_5 + "t=2\nd=1\nX=15625\n", exit_code=3),
            LibraryJob(),
        ]
    if workload == "profile":
        return [
            CliJob("etstar.t2", "etstar", "source=squares\nt=2\nN=1000000\n"),
            CliJob("etstar.t3", "etstar", "source=squares\nt=3\nN=200000\n"),
            CliJob("waring.s3", "waring", SQUARES_5 + "s=3\nk=2\nX=1000000\n",
                   crosscheck=_waring_sum_r2(3, 10**6, "mitm")),
            # mitm_count with key_cap takes seconds at s=4, so this one uses the
            # dense convolution route
            CliJob("waring.s4", "waring", SQUARES_5 + "s=4\nk=2\nX=390625\n",
                   crosscheck=_waring_sum_r2(4, 390625, "profile")),
            # enumerates the 177147 members up to 5**11 before the budget refuses
            CliJob("waring.refusal", "waring", SQUARES_5 + f"s=3\nk=2\nX={5**22}\n",
                   exit_code=3),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- pinned outputs ---------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def file_digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def pin_file(path: Path) -> dict:
    data = path.read_bytes()
    pin = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if len(data) <= INLINE_BYTES:
        pin["text"] = data.decode()
    return pin


def read_csv(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV output (header comment and column line skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def compare_file(path: Path, pin: dict) -> str | None:
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() == pin["sha256"]:
        return None
    if "text" not in pin:
        return f"sha256 differs ({len(data)} bytes, pinned {pin['bytes']})"
    got, want = data.decode(), pin["text"]
    if path.suffix == ".json":
        return _compare_values(json.loads(got), json.loads(want), path.name)
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, pinned {len(want_lines)}"
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        if len(g_cells) != len(w_cells) or not all(map(_cells_match, g_cells, w_cells)):
            return f"line {lineno}: {g!r}, pinned {w!r}"
    return None


def _compare_values(got, want, where: str) -> str | None:
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got)}, pinned {sorted(want)}"
        for key in want:
            problem = _compare_values(got[key], want[key], f"{where}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = math.isclose(got, want, rel_tol=FLOAT_RTOL)
    else:
        ok = type(got) is type(want) and got == want
    return None if ok else f"{where}: {got!r}, pinned {want!r}"


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # integer cells match exactly or not at all
    except ValueError:
        pass
    try:
        return math.isclose(float(got), float(want), rel_tol=FLOAT_RTOL)
    except ValueError:
        return False
