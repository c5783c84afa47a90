"""Count-only tables folded slice by slice against whole tables and oracles.

Setting ``_SLICE_CANDIDATES`` to 1 forces the finest slicing the keys allow,
so the sliced fold runs on inputs small enough for the oracles.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_sliced_count_peak_memory():
    """Base-5 squares, k = 2, s = 3, Y = 161: the whole last step would hold
    about 2.1 million candidates (87.5 MiB traced); slices of at most
    _SLICE_CANDIDATES keep the traced peak far below it, and below the bytes
    ``price`` charges the table, so the budget still bounds the allocation."""
    system = SpacedSystem.pure_powers(2, 5)
    tracemalloc.start()
    try:
        count = mitm_count(system, 3, SQUARES_1875).count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 25_384_553
    assert peak < 30 << 20
    cols = [[x**j for x in SQUARES_1875] for j in (1, 2)]
    plan = _tables.price([_tables.Shape.of(cols, None)] * 3, budget=_tables.DEFAULT_BUDGET)
    assert plan.nbytes >= peak


def test_mass_check_survives_slicing(monkeypatch):
    """One candidate's mass lost in one slice is an InvariantError."""
    real = _tables._slice
    calls = []

    def lossy(*args):
        keys, masses = real(*args)
        if not calls:
            masses[0] -= 1  # unit weights: every candidate carries mass 1
        calls.append(len(keys))
        return keys, masses

    monkeypatch.setattr(_tables, "_slice", lossy)
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", 1000)
    with pytest.raises(InvariantError, match="table mass"):
        mitm_count(SpacedSystem.pure_powers(2, 5), 2, SQUARES_1875[:60])
    assert len(calls) > 1


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
    """Record the keys of the table and factor each ``_slices`` call folds
    and each ``_Groups.of`` input, and count the ``_step`` calls."""
    seen = {"slices": [], "groups": [], "steps": 0}
    real_slices, real_of, real_step = _tables._slices, _tables._Groups.of, _tables._step

    def slices(table, factor, plan):
        seen["slices"].append((table[0], factor[0]))
        return real_slices(table, factor, plan)

    def of(*args):
        seen["groups"].append(args[0])
        return real_of(*args)

    def step(*args):
        seen["steps"] += 1
        return real_step(*args)

    monkeypatch.setattr(_tables, "_slices", slices)
    monkeypatch.setattr(_tables._Groups, "of", of)
    monkeypatch.setattr(_tables, "_step", step)
    return seen


def test_only_the_table_is_grouped(monkeypatch):
    """A forced-slice count groups the table's keys at each q it tries, never
    the last factor's, and folds that factor by slices, not by ``_step``."""
    system, members = SpacedSystem.pure_powers(2, 5), SQUARES_1875[:12]
    want = brute_force_count(system, 3, members).count
    monkeypatch.setattr(_tables, "_SLICE_CANDIDATES", 1)
    seen = spied(monkeypatch)
    assert mitm_count(system, 3, members).count == want
    [(table, factor)] = seen["slices"]
    assert len(table) != len(factor) == len(members)
    assert len(seen["groups"]) > 1 and all(keys is table for keys in seen["groups"])
    assert seen["steps"] == 2  # the first two factors, by ``_sparse``


def test_a_last_step_that_fits_is_one_step(monkeypatch):
    seen = spied(monkeypatch)
    mitm_count(SpacedSystem.pure_powers(2, 5), 3, SQUARES_1875[:12])
    assert len(seen["slices"]) == 1 and seen["groups"] == []
    assert seen["steps"] == 3  # two by ``_sparse``, one by ``_slices``
