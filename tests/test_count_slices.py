"""Count-only tables folded slice by slice against whole tables and oracles.

Setting ``_SLICE_CANDIDATES`` to 1 forces the finest slicing the keys allow,
so the sliced fold runs on inputs small enough for the oracles.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipsephic
from ellipsephic import (
    DigitSet,
    InvariantError,
    MeanValueSpec,
    SpacedSystem,
    WeightAssignment,
    _tables,
    brute_force_count,
    congruence_mean_value,
    iter_members,
    mitm_count,
)


def ordered_tuple_count(system, s, members, weights, modulus, cap):
    """sum_v m(v)**2 by a scan of the ordered s-tuples: keys reduced mod
    modulus, then dropped past cap; m(v) sums the products of the weights."""
    masses = {}
    for tup in itertools.product(members, repeat=s):
        key = system.key(tup)
        if modulus is not None:
            key = tuple(v % modulus for v in key)
        if cap is not None and max(key) > cap:
            continue
        w = 1 if weights is None else math.prod(weights.masses[x] for x in tup)
        masses[key] = masses.get(key, 0) + w
    total = sum(m * m for m in masses.values())
    if weights is not None and weights.exact:
        return Fraction(total, weights.denom ** (2 * s))
    return total


@st.composite
def systems(draw):
    if draw(st.booleans()):
        return SpacedSystem.pure_powers(draw(st.integers(1, 3)), 3)
    k = draw(st.integers(1, 2))
    psi = [draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)) for _ in range(k)]
    return SpacedSystem.perturbed(3, 1, psi)  # negative psi: keys below 0


@st.composite
def weight_assignments(draw, members):
    kind = draw(st.sampled_from(["unit", "int", "fraction", "float"]))
    if kind == "unit":
        return None
    if kind == "int":
        return WeightAssignment.unit(members)
    if kind == "fraction":
        nums = st.integers(1, 6)
        return WeightAssignment.from_pairs({x: Fraction(draw(nums), 6) for x in members})
    return WeightAssignment.from_pairs({x: draw(st.floats(0.05, 1.0)) for x in members})


def forced(fn):
    """fn() with the finest slicing the keys allow."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_tables, "_SLICE_CANDIDATES", 1)
        return fn()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_forced_slices_match_whole_table_and_oracles(data):
    system = data.draw(systems())
    members = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True))
    s = data.draw(st.integers(1, 3))
    weights = data.draw(weight_assignments(members))
    modulus = data.draw(st.sampled_from([None, None, 9, 27, 1]))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 3 * 40**system.k)))

    def count():
        return mitm_count(system, s, members, weights, modulus=modulus, key_cap=cap).count

    unforced, sliced = count(), forced(count)
    want = ordered_tuple_count(system, s, sorted(members), weights, modulus, cap)
    if weights is not None and not weights.exact:
        assert math.isclose(sliced, unforced, rel_tol=1e-12)
        assert math.isclose(sliced, want, rel_tol=1e-12)
    else:
        assert sliced == unforced == want
    if weights is None and modulus is None and cap is None:
        assert sliced == brute_force_count(system, s, members).count


def test_forced_slices_keep_congruence_mean_value_exact():
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 625))
    weights = WeightAssignment.from_pairs(
        {x: Fraction(1 + i % 7, 8) for i, x in enumerate(members)})
    system = SpacedSystem.pure_powers(2, 5)
    for s, level, h in ((2, 3, 0), (2, 3, 1), (3, 2, 1)):
        spec = MeanValueSpec(system, weights, s, level, h)
        whole = congruence_mean_value(spec)
        assert forced(lambda: congruence_mean_value(spec)) == whole


SQUARES_1875 = list(iter_members(DigitSet(5, (0, 1, 4)), 1875))


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sliced_count_peak_memory():
    """Base-5 squares, k = 2, s = 3, Y = 161: the run fold's last step forms
    C(163, 3) = 708,561 candidates, which one merge would hold at once;
    slices of at most _SLICE_CANDIDATES keep the traced peak within 4.30 MiB,
    and below the bytes ``price`` charges the table, so the budget still
    bounds the allocation."""
    system = SpacedSystem.pure_powers(2, 5)
    count, peak = traced_peak(lambda: mitm_count(system, 3, SQUARES_1875).count)
    assert count == 25_384_553
    assert peak <= 4.30 * (1 << 20)
    cols = [[x**j for x in SQUARES_1875] for j in (1, 2)]
    plan = _tables.price([_tables.Shape.of(cols, None)] * 3, budget=_tables.DEFAULT_BUDGET)
    assert plan.nbytes >= peak


def phi_factor(xs):
    """The prepared-to-be (columns, weights) of k = 2 keys (x, x**2), unit weights."""
    return [xs, [x * x for x in xs]], None


def folds(xs, s):
    """The run fold's input, [factor] * s, and the ordered fold's, s equal
    copies that are distinct objects."""
    return {"run": [phi_factor(xs)] * s, "ordered": [phi_factor(xs) for _ in range(s)]}


def test_finest_slices_hold_no_pair_per_group_and_entry():
    """The first 60 squares members, k = 2, s = 3, sliced at the finest q
    the keys admit, which leaves a group for nearly every entry of the run
    (C(61, 2) = 1,830 multisets of two) or of the merged table: the traced
    peak stays within 32 int64 arrays of entries + n, so no array holds a
    pair per group and factor entry (groups x n), and the count is the
    unsliced one."""
    xs = SQUARES_1875[:60]
    entries, n = math.comb(len(xs) + 1, 2), len(xs)
    for fold, factors in folds(xs, 3).items():
        want = _tables.power_sum_squares(factors, budget=_tables.DEFAULT_BUDGET)
        got, peak = traced_peak(lambda: forced(
            lambda: _tables.power_sum_squares(factors, budget=_tables.DEFAULT_BUDGET)))
        assert got == want, fold
        assert peak <= 32 * 8 * (entries + n), fold


def test_mass_check_survives_slicing(monkeypatch):
    """One candidate's mass lost in one slice is an InvariantError, whether
    the last copy folds into a run's entries or into a merged table."""
    real = _tables._slice
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", 1000)
    for fold, factors in folds(SQUARES_1875[:60], 2).items():
        calls = []

        def lossy(run, *args, calls=calls):
            keys, masses = real(run, *args)
            if not calls:
                masses[0] -= 1  # unit weights: every merged mass is an integer >= 1
            calls.append(run.copies)
            return keys, masses

        monkeypatch.setattr(_tables, "_slice", lossy)
        with pytest.raises(InvariantError, match="table mass"):
            _tables.power_sum_squares(factors, budget=_tables.DEFAULT_BUDGET)
        assert len(calls) > 1 and set(calls) == {1 if fold == "run" else 0}, fold


@pytest.mark.parametrize("modulus", [None, 3**40])
def test_forced_slices_on_object_keys_and_masses(modulus):
    """Keys past int64 when packed and masses near 2**62 run on object arrays,
    sliced or not, and give the whole table's sum of squares."""
    xs = [3**38 + 7 * i * i for i in range(12)]
    cols = [xs, [x * x for x in xs]]
    factors = [(cols, [(1 << 62) - i for i in range(12)])] * 3
    budget = _tables.Budget(max_table_bytes=1 << 30)
    table = _tables.power_sum_table(factors, modulus=modulus, budget=budget)
    assert table.keys.dtype == object and table.masses.dtype == object
    whole = _tables.power_sum_squares(factors, modulus=modulus, budget=budget)
    assert whole == forced(lambda: _tables.power_sum_squares(factors, modulus=modulus,
                                                             budget=budget))
    assert whole == table.sum_squares()


@pytest.mark.parametrize("modulus", [None, 25])
@pytest.mark.parametrize("cap", [None, 20, 600])
def test_unsliced_last_step_matches_whole_table(monkeypatch, modulus, cap):
    """A last step within _SLICE_CANDIDATES is one ``_step`` in ``_slices``,
    no slice: the same sum of squares as the whole table's."""
    monkeypatch.setattr(_tables, "_slice", None)  # any slice would raise
    xs = SQUARES_1875[:27]
    factors = [([xs, [x * x for x in xs]], None)] * 3
    args = dict(modulus=modulus, cap=cap, budget=_tables.DEFAULT_BUDGET)
    whole = _tables.power_sum_table(factors, **args)
    assert len(whole.masses) > 1
    assert _tables.power_sum_squares(factors, **args) == whole.sum_squares()


class ConstantFirst:
    """Keys (7, x**2) per member, summed over a tuple: component 0 is the same
    for every tuple, so no q > 1 splits it."""

    @staticmethod
    def key(tup):
        return (7 * len(tup), sum(x * x for x in tup))


@pytest.mark.parametrize("kind", ["unit", "fraction", "float"])
@pytest.mark.parametrize("modulus", [None, 1])
def test_forced_slices_without_a_finer_q(monkeypatch, kind, modulus):
    """Keys that admit no q > 1 (modulus 1, or component 0 the same for every
    entry) take one merge even when slicing is forced, and give the whole
    table's sum of squares and the scan's."""
    xs = SQUARES_1875[:9]
    weights = {
        "unit": None,
        "fraction": WeightAssignment.from_pairs({x: Fraction(1 + x % 5, 6) for x in xs}),
        "float": WeightAssignment.from_pairs({x: 0.1 + (x % 7) / 9 for x in xs}),
    }[kind]
    ms = None if weights is None else [weights.masses[x] for x in xs]
    factors = [([[7] * len(xs), [x * x for x in xs]], ms)] * 3
    args = dict(modulus=modulus, budget=_tables.DEFAULT_BUDGET)
    whole = _tables.power_sum_table(factors, **args)
    assert len(whole.masses) > 1 or modulus == 1
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", 1)
    monkeypatch.setattr(_tables, "_slice", None)  # any slice would raise
    got = _tables.power_sum_squares(factors, **args)
    assert got == whole.sum_squares()
    want = ordered_tuple_count(ConstantFirst, 3, xs, weights, modulus, None)
    if kind == "float":
        assert math.isclose(got, want, rel_tol=1e-12)
    else:
        assert Fraction(got, 1 if weights is None else weights.denom**6) == want


def spied(monkeypatch):
    """Record the run and factor each ``_slices`` call folds, each
    ``_Groups.of`` input, the q of each ``_slice_sizes`` call (one per q
    tried) and the classes and sizes of the last, and the number of pairs of
    each ``_slice_pairs`` build, and count the ``_step`` and ``_run_step``
    calls."""
    seen = {"slices": [], "groups": [], "qs": [], "sizes": None, "pairs": [], "steps": 0,
            "run_steps": 0}
    real_slices, real_of, real_sizes = _tables._slices, _tables._Groups.of, _tables._slice_sizes
    real_pairs, real_step, real_run_step = (_tables._slice_pairs, _tables._step,
                                            _tables._run_step)

    def slices(run, factor, *args):
        seen["slices"].append((run, factor[0]))
        return real_slices(run, factor, *args)

    def of(*args):
        seen["groups"].append(args[0])
        return real_of(*args)

    def sizes(*args):
        seen["qs"].append(args[-1])
        seen["sizes"] = real_sizes(*args)
        return seen["sizes"]

    def pairs(*args):
        out = real_pairs(*args)
        seen["pairs"].append(len(out.j))
        return out

    def step(*args):
        seen["steps"] += 1
        return real_step(*args)

    def run_step(*args):
        seen["run_steps"] += 1
        return real_run_step(*args)

    monkeypatch.setattr(_tables, "_slices", slices)
    monkeypatch.setattr(_tables._Groups, "of", of)
    monkeypatch.setattr(_tables, "_slice_sizes", sizes)
    monkeypatch.setattr(_tables, "_slice_pairs", pairs)
    monkeypatch.setattr(_tables, "_step", step)
    monkeypatch.setattr(_tables, "_run_step", run_step)
    return seen


def test_only_the_table_is_grouped(monkeypatch):
    """A forced-slice count groups the table's keys, a run's unmerged
    entries or a merged table, once at each q it tries and never the last
    factor's, and folds that factor by slices, not by ``_step``, each slice
    pairing each factor entry with at most one group.  The first two copies
    are two ``_run_step`` calls on a run, two ``_step`` calls otherwise."""
    system, members = SpacedSystem.pure_powers(2, 5), SQUARES_1875[:12]
    want = brute_force_count(system, 3, members).count
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", 1)
    for fold, factors in folds(members, 3).items():
        with pytest.MonkeyPatch.context() as m:
            seen = spied(m)
            assert _tables.power_sum_squares(factors, budget=_tables.DEFAULT_BUDGET) == want
        [(run, factor)] = seen["slices"]
        # the run holds one entry per multiset of two members, C(13, 2); the
        # merged table one per distinct key
        assert len(run.keys) == (math.comb(13, 2) if fold == "run" else len(set(
            (a + b, a * a + b * b) for a in members for b in members)))
        assert len(factor) == len(members) and run.copies == (2 if fold == "run" else 0)
        assert seen["groups"] and all(grouped is run for grouped in seen["groups"])
        assert len(seen["groups"]) == len(seen["qs"])
        assert len(seen["pairs"]) > 1 and max(seen["pairs"]) <= len(members)
        assert (seen["run_steps"], seen["steps"]) == ((2, 0) if fold == "run" else (0, 2))


def test_a_last_step_that_fits_is_one_step():
    """A last copy within _SLICE_CANDIDATES is one ``_step``, no grouping:
    after two ``_run_step`` calls on a run, after two ``_step`` calls otherwise."""
    for fold, factors in folds(SQUARES_1875[:12], 3).items():
        with pytest.MonkeyPatch.context() as m:
            seen = spied(m)
            _tables.power_sum_squares(factors, budget=_tables.DEFAULT_BUDGET)
        assert len(seen["slices"]) == 1 and seen["groups"] == []
        assert (seen["run_steps"], seen["steps"]) == ((2, 1) if fold == "run" else (0, 3))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_run_fold_matches_ordered_tuples(data):
    """mitm_count folds [factor] * s as a run whenever the keys allow it; for
    s = 1 .. 4, sliced or not, it is the scan of the ordered s-tuples."""
    system = data.draw(systems())
    members = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True))
    s = data.draw(st.integers(1, 4))
    weights = data.draw(weight_assignments(members))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 4 * 30**system.k)))

    def count():
        return mitm_count(system, s, members, weights, key_cap=cap).count

    got = forced(count) if data.draw(st.booleans()) else count()
    want = ordered_tuple_count(system, s, sorted(members), weights, None, cap)
    if weights is not None and not weights.exact:
        assert math.isclose(got, want, rel_tol=1e-12)
    else:
        assert got == want


def admissible_q(keys, f_keys, ends, plan, q):
    """Candidates per residue class of digit 0 mod q, counted pair by pair
    from the run's entries: entry e pairs with factor entries j >= l_e."""
    n = len(f_keys)
    last = (np.full(len(keys), -1) if ends is None
            else np.repeat(np.arange(n), np.diff(ends, prepend=0)))
    pairs = np.arange(n)[None, :] >= last[:, None]
    digit = lambda k: k // plan.strides[0] % q  # noqa: E731
    classes = (digit(keys)[:, None] + digit(f_keys)[None, :]) % q
    return np.bincount(classes[pairs], minlength=q)


@pytest.mark.parametrize("seed", range(12))
def test_q_search_starts_at_the_lower_bound(monkeypatch, seed):
    """The q search sizes the slices from the first q with q *
    _SLICE_CANDIDATES >= the step's candidates on: the same q as a scan of
    every admissible q from b upward, none tried below the bound, and at it
    the classes and sizes of that scan's pair-by-pair count."""
    rng = np.random.default_rng(seed)
    members = sorted(rng.choice(np.arange(1, 400), size=int(rng.integers(8, 30)),
                                replace=False).tolist())
    s = int(rng.integers(2, 4))
    fold = ["run", "ordered"][seed % 2]
    modulus = [None, None, 27, 25][seed % 4]
    factors = folds(members, s)[fold]
    args = dict(modulus=modulus, budget=_tables.DEFAULT_BUDGET)
    whole = _tables.power_sum_table(factors, **args).sum_squares()
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", int(rng.integers(1, 200)))
    seen = spied(monkeypatch)
    assert _tables.power_sum_squares(factors, **args) == whole
    [(run, f_keys)] = seen["slices"]
    assert run.copies == (s - 1 if fold == "run" and modulus is None else 0)
    total = len(run.keys) * len(f_keys) if run.ends is None else int(run.ends.sum())
    plan = _tables.price([_tables.Shape.of(*f) for f in factors], modulus=modulus,
                         budget=_tables.DEFAULT_BUDGET)
    qs = list(_tables._moduli(plan, total))
    limit = _tables._SLICE_CANDIDATES
    fits = [admissible_q(run.keys, f_keys, run.ends, plan, q).max() <= limit for q in qs]
    scanned = qs[fits.index(True)] if True in fits else qs[-1]
    assert seen["qs"][-1] == scanned
    counts = admissible_q(run.keys, f_keys, run.ends, plan, scanned)
    classes, sizes = seen["sizes"]
    assert classes.tolist() == np.flatnonzero(counts).tolist()
    assert sizes.tolist() == counts[classes].tolist()
    lower = next((i for i, q in enumerate(qs) if q * limit >= total), len(qs) - 1)
    assert seen["qs"] == qs[lower : qs.index(scanned) + 1]


def test_a_large_prime_modulus_takes_one_step():
    """Two factors of keys 1 .. 600 under the prime modulus 2**61 - 1: the
    least prime factor is sought only up to the step's 360,000 candidates, so
    the count is one step and ends, equal to the whole table's.  Run in a
    child process so that a hang fails at the timeout."""
    code = textwrap.dedent("""
        from ellipsephic import _tables
        factors = [([list(range(1, 601))], None)] * 2
        args = dict(modulus=2**61 - 1, budget=_tables.DEFAULT_BUDGET)
        print(_tables.power_sum_squares(factors, **args),
              _tables.power_sum_table(factors, **args).sum_squares())
    """)
    src = str(Path(ellipsephic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    got, want = map(int, done.stdout.split())
    # keys 2 .. 1200 below the modulus: m(v) counts the ordered pairs of sum v
    assert got == want == sum(min(v - 1, 1201 - v) ** 2 for v in range(2, 1201))
