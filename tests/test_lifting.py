"""Carry sets, digit-sum congruence counts, carry decomposition, lifting chain."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import (
    BudgetError,
    Budget,
    CarryTuple,
    DigitSet,
    InvariantError,
    SpacedSystem,
    ValidationError,
    carry_decomposition,
    carry_sets,
    carry_tuple_for_pair,
    iter_members,
    lifting_chain,
    sum_congruence_count,
    unit_tuple_weights,
)
from ellipsephic.digits import base_digits

DS3 = DigitSet(3, (0, 1))
DS3FULL = DigitSet(3, (0, 1, 2), strict=False)


def brute_g(base, t, depth, weights):
    """Oracle: double loop over tuple pairs."""
    modulus = base**depth
    total = 0
    for x, wx in weights.items():
        for y, wy in weights.items():
            if (sum(x) - sum(y)) % modulus == 0:
                wyc = wy.conjugate() if isinstance(wy, complex) else wy
                total = total + wx * wyc
    return total


def digit_propagation_carries(x, y, base, depth):
    """Oracle: carries by digitwise propagation, D_r + carry_(r-1) = base * carry_r."""
    digs_x = [base_digits(v, base) for v in x]
    digs_y = [base_digits(v, base) for v in y]

    def digit(ds, r):
        return ds[r] if r < len(ds) else 0

    carry = 0
    out = []
    for r in range(depth):
        diff = sum(digit(d, r) for d in digs_x) - sum(digit(d, r) for d in digs_y)
        value = diff + carry
        if value % base != 0:
            raise InvariantError(f"{x}, {y} is not a solution modulo {base}**{depth}")
        carry = value // base
        out.append(carry)
    return tuple(out)


@st.composite
def carry_instances(draw):
    """(base, depth, t, tuples) with base in {3, 5, 7}, depth and t in 1..4.

    Each tuple after the first is moved onto the first one's sum residue
    modulo base**depth with probability one half, so nonzero carries occur.
    """
    base = draw(st.sampled_from((3, 5, 7)))
    depth = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    value = st.integers(0, base ** (depth + 1))
    t_tuple = st.lists(value, min_size=t, max_size=t)
    tuples = draw(st.lists(t_tuple, min_size=1, max_size=8))
    for tup in tuples[1:]:
        if draw(st.booleans()):
            tup[-1] += (sum(tuples[0]) - sum(tup)) % base**depth
    return base, depth, t, [tuple(tup) for tup in tuples]


# --- carry sets ----------------------------------------------------------------

def test_carry_sets_example():
    cs = carry_sets(DS3, 2)
    assert cs.sums[0] == ((0, 0),)
    assert set(cs.sums[1]) == {(0, 1), (1, 0)}
    assert cs.sums[2] == ((1, 1),)
    assert cs.diff_size(0) == 6  # 1 + 4 + 1
    assert cs.sum_size(99) == 0 and cs.diff_size(-99) == 0


def test_carry_sets_convolution_identity():
    for ds, t in ((DS3, 2), (DS3FULL, 2), (DigitSet(5, (0, 1, 4)), 3)):
        cs = carry_sets(ds, t)
        top = t * (ds.base - 1)
        for h in range(-top, top + 1):
            conv = sum(cs.sum_size(m) * cs.sum_size(m - h) for m in range(top + 1))
            assert cs.diff_size(h) == conv, (ds.digits, t, h)


def test_digit_sum_projection_bound():
    for ds, t in ((DS3, 2), (DigitSet(5, (0, 1, 4)), 3)):
        cs = carry_sets(ds, t)
        for h, tuples in cs.sums.items():
            assert len(tuples) <= ds.r ** (t - 1)


# --- carry tuples -----------------------------------------------------------------

def test_carry_tuple_bounds():
    CarryTuple(2, 3, (1, -1, 0))
    with pytest.raises(ValidationError):
        CarryTuple(2, 3, (2,))


def test_adjusted_sums():
    lam = CarryTuple(3, 5, (1, -1, 2))
    assert lam.adjusted == (5, -6, 11)


def test_carry_for_pair_single_digit_carry():
    # digit sums differing by p at position 0 force a carry of 1
    x, y = (5, 4), (1, 2)  # base 3: digits0 2+1 vs 1+2 ... pick explicit instead
    x, y = (2, 4), (3, 3)  # sums 6 == 6; digits0: 2+1=3 vs 0+0: D0 = 3 -> carry 1
    lam = carry_tuple_for_pair(x, y, 3, 2)
    assert lam.values[0] == 1
    total_x, total_y = sum(x), sum(y)
    assert (total_x - total_y) % 9 == 0


def test_carry_for_pair_rejects_non_solutions():
    with pytest.raises(InvariantError):
        carry_tuple_for_pair((1, 1), (2, 1), 3, 1)


@given(carry_instances())
def test_carry_tuple_matches_digit_propagation(instance):
    base, depth, _, tuples = instance
    x = tuples[0]
    for y in tuples:
        try:
            expected = digit_propagation_carries(x, y, base, depth)
        except InvariantError:
            with pytest.raises(InvariantError):
                carry_tuple_for_pair(x, y, base, depth)
        else:
            assert carry_tuple_for_pair(x, y, base, depth).values == expected


def test_carry_zero_for_positionwise_equal_sums():
    x, y = (4, 1), (1, 4)
    lam = carry_tuple_for_pair(x, y, 3, 3)
    assert lam.values == (0, 0, 0)


# --- digit-sum congruence count ------------------------------------------------

def test_g_golden_134():
    weights = unit_tuple_weights([1, 3, 4], 2)
    value = sum_congruence_count(3, 2, 1, weights)
    assert value == 33  # golden, hand-verified residue masses (1, 4, 4)
    assert value == brute_g(3, 2, 1, weights)


def test_g_grid_agrees():
    rng = random.Random(30)
    members = list(iter_members(DS3, 9))
    weights = {
        tup: Fraction(rng.randint(0, 8), 8)
        for tup in itertools.product(members, repeat=2)
    }
    for depth in (1, 2):
        exact = sum_congruence_count(3, 2, depth, weights)
        grid = sum_congruence_count(3, 2, depth, weights, mode="grid")
        assert grid == pytest.approx(float(exact), rel=1e-9)
        assert exact == brute_g(3, 2, depth, weights)


def test_g_large_depth_forces_equality():
    members = [1, 3, 4]
    weights = unit_tuple_weights(members, 2)
    value = sum_congruence_count(3, 2, 5, weights)  # 3^5 > 2 * max sum
    direct = sum(
        1
        for x in itertools.product(members, repeat=2)
        for y in itertools.product(members, repeat=2)
        if sum(x) == sum(y)
    )
    assert value == direct


def test_g_zero_weights():
    weights = {(1, 1): 0, (1, 3): 0}
    assert sum_congruence_count(3, 2, 1, weights) == 0


def test_g_complex_phases_real_nonnegative():
    members = list(iter_members(DS3, 9))
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])
    alpha = 2 / 9
    rho0 = math.sqrt(len(members))
    weights = {}
    for tup in itertools.product(members, repeat=2):
        phase = sum(system.phi(1, x) for x in tup)
        weights[tup] = cmath.exp(2j * cmath.pi * alpha * phase) / rho0**2
    value = sum_congruence_count(3, 2, 1, weights)
    assert isinstance(value, float)
    assert value >= 0
    assert value == pytest.approx(brute_g(3, 2, 1, weights).real, rel=1e-9)


# --- carry decomposition ----------------------------------------------------------

def test_decomposition_totals_match_g():
    rng = random.Random(41)
    for ds in (DS3, DS3FULL):
        members = list(iter_members(ds, 9))
        for depth in (1, 2, 3):
            unit = unit_tuple_weights(members, 2)
            rational = {
                tup: Fraction(rng.randint(0, 8), 8)
                for tup in itertools.product(members, repeat=2)
            }
            for weights in (unit, rational):
                dec = carry_decomposition(3, 2, depth, weights)
                assert dec.total == sum_congruence_count(3, 2, depth, weights)


def test_decomposition_nontrivial_carries_full_digit_set():
    members = list(iter_members(DS3FULL, 9))
    dec = carry_decomposition(3, 2, 2, unit_tuple_weights(members, 2))
    assert any(lam != (0, 0) for lam in dec.table)


def test_decomposition_blocks_lie_in_difference_sets():
    members = list(iter_members(DS3FULL, 9))
    cs = carry_sets(DS3FULL, 2)
    modulus = 9
    for x in itertools.product(members, repeat=2):
        for y in itertools.product(members, repeat=2):
            if (sum(x) - sum(y)) % modulus != 0:
                continue
            lam = carry_tuple_for_pair(x, y, 3, 2)
            adjusted = lam.adjusted
            for r in range(2):
                xd = tuple(base_digits(v, 3)[r] if r < len(base_digits(v, 3)) else 0 for v in x)
                yd = tuple(base_digits(v, 3)[r] if r < len(base_digits(v, 3)) else 0 for v in y)
                assert xd in cs.sums[sum(xd)] and yd in cs.sums[sum(yd)]
                assert sum(xd) - sum(yd) == adjusted[r]


def test_decomposition_all_zero_tuple_is_positionwise_equality():
    members = list(iter_members(DS3FULL, 9))
    weights = unit_tuple_weights(members, 2)
    dec = carry_decomposition(3, 2, 2, weights)
    zero_contrib = dec.table[(0, 0)]
    direct = 0
    for x in itertools.product(members, repeat=2):
        for y in itertools.product(members, repeat=2):
            digits_equal = all(
                sum(base_digits(v, 3)[r] if r < len(base_digits(v, 3)) else 0 for v in x)
                == sum(base_digits(v, 3)[r] if r < len(base_digits(v, 3)) else 0 for v in y)
                for r in range(2)
            )
            if digits_equal:
                direct += 1
    assert zero_contrib == direct


@given(carry_instances(), st.data())
def test_decomposition_table_matches_digit_propagation(instance, data):
    base, depth, t, tuples = instance
    weights = {tup: Fraction(data.draw(st.integers(0, 8)), 8) for tup in tuples}
    expected = {}
    for x, wx in weights.items():
        for y, wy in weights.items():
            try:
                lam = digit_propagation_carries(x, y, base, depth)
            except InvariantError:
                continue
            expected[lam] = expected.get(lam, 0) + wx * wy
    assert carry_decomposition(base, t, depth, weights).table == expected


def test_decomposition_float_and_complex_weights():
    members = list(iter_members(DS3FULL, 27))
    tuples = list(itertools.product(members, repeat=2))
    rng = random.Random(23)
    real = {tup: rng.uniform(-1, 1) for tup in tuples}
    phases = {tup: rng.random() * cmath.exp(2j * cmath.pi * rng.random()) for tup in tuples}
    for depth in (1, 2, 3):
        solutions = [
            (x, y, digit_propagation_carries(x, y, 3, depth))
            for x in tuples
            for y in tuples
            if (sum(x) - sum(y)) % 3**depth == 0
        ]
        for weights in (real, phases):
            expected = {}
            for x, y, lam in solutions:
                expected[lam] = expected.get(lam, 0) + weights[x] * weights[y].conjugate()
            table = carry_decomposition(3, 2, depth, weights).table
            assert table.keys() == expected.keys()
            # sums that cancel are held to a floor set by the weights' total size
            floor = 1e-9 * sum(abs(w) for w in weights.values()) ** 2
            for lam, value in expected.items():
                assert table[lam] == pytest.approx(value, rel=1e-9, abs=floor)


def test_decomposition_rejects_wrong_tuple_length():
    with pytest.raises(ValidationError):
        carry_decomposition(3, 2, 1, {(1, 1, 1): 1})


def test_decomposition_budget():
    weights = unit_tuple_weights(list(range(1, 40)), 2)
    with pytest.raises(BudgetError):
        carry_decomposition(3, 2, 2, weights, budget=Budget(max_tuples=100))


def test_decomposition_budget_counts_class_pairs():
    # 400 tuples, 400**2 tuple pairs, but 5 prefix-sum classes at depth 1: 25 class pairs
    weights = unit_tuple_weights(list(range(1, 21)), 2)
    dec = carry_decomposition(3, 2, 1, weights, budget=Budget(max_tuples=25))
    assert dec.total == sum_congruence_count(3, 2, 1, weights)
    with pytest.raises(BudgetError, match=r"^5\*\*2 pairs"):
        carry_decomposition(3, 2, 1, weights, budget=Budget(max_tuples=24))


# --- lifting chain -----------------------------------------------------------------

def pair_list_chain(system, t, members, modulus_level):
    """Oracle: list every solution pair and filter the list step by step.

    Returns (j, c_j, pairs_checked) per step and raises InvariantError on a
    pair that breaks sum x = sum y (mod base**c_j).
    """
    base, c, big_b = system.base, system.spacing, modulus_level
    by_key = {}
    for tup in itertools.product(sorted(set(members)), repeat=t):
        by_key.setdefault(system.key(tup)[0] % base**big_b, []).append(tup)
    current = [(x, y) for tups in by_key.values() for x in tups for y in tups]
    steps = []
    for j in range(1, max(1, -(-big_b // c)) + 1):
        c_j = min(j * c, big_b)
        q_prev = base ** min((j - 1) * c, big_b)
        current = [
            (x, y) for x, y in current if all((a - b) % q_prev == 0 for a, b in zip(x, y))
        ]
        if any((sum(x) - sum(y)) % base**c_j for x, y in current):
            raise InvariantError(f"pair breaks the implication at step {j}")
        steps.append((j, c_j, len(current)))
    return steps


def chain_rows(chain):
    assert all(st.verified for st in chain.steps)
    return [(st.j, st.c_j, st.pairs_checked) for st in chain.steps]


def test_lifting_chain_golden(monkeypatch):
    from ellipsephic import lifting

    tables = []
    real = lifting.power_sum_table

    def counting(*args, **kwargs):
        tables.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, "power_sum_table", counting)
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])  # phi(z) = z + 3 z^2
    members = list(iter_members(DS3, 27))
    chain = lifting_chain(system, 2, members, 3)
    assert len(tables) == 3  # one table per step
    assert chain.j_star == 3
    assert [st.c_j for st in chain.steps] == [1, 2, 3]
    assert all(st.verified for st in chain.steps)
    assert chain.steps[0].pairs_checked == 208
    assert chain_rows(chain) == pair_list_chain(system, 2, members, 3)


def test_lifting_chain_packs_slot_columns_from_the_data(monkeypatch):
    """p = 3, t = 3, B = 9: the slot columns take at most the 63 members'
    residues, so packed keys fit int64 at every step (width 2 * 3**9 - 1 per
    column would need object arrays)."""
    from ellipsephic import _tables

    plans = []
    real = _tables.price

    def recording(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(_tables, "price", recording)
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])  # phi(z) = z + 3 z^2
    members = list(iter_members(DS3, 728))
    chain = lifting_chain(system, 3, members, 9)
    assert [step.pairs_checked for step in chain.steps] == [
        5431503, 2198259, 1011105, 568191, 367707, 298497, 250047, 250047, 250047
    ]
    assert all(step.verified for step in chain.steps)
    assert len(plans) == 9
    assert all(plan.key_dtype is np.int64 for plan in plans)


def test_lifting_chain_c_at_least_b():
    system = SpacedSystem.perturbed(3, 3, [[1]])  # phi(z) = z + 27
    members = list(iter_members(DS3, 27))
    chain = lifting_chain(system, 2, members, 2)
    assert chain.j_star == 1
    assert chain.steps[0].c_j == 2


def test_lifting_chain_zero_psi():
    system = SpacedSystem.perturbed(3, 1, [[0]])  # phi(z) = z
    members = list(iter_members(DS3, 27))
    chain = lifting_chain(system, 2, members, 2)
    assert chain.j_star == 2
    assert all(st.verified for st in chain.steps)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.data(),
)
def test_lifting_chain_matches_pair_list(base, t, c, big_b, psi, data):
    # at most 216 tuples, so the oracle lists at most 216**2 pairs
    size = {1: 20, 2: 12, 3: 6}[t]
    members = data.draw(st.lists(st.integers(0, 400), min_size=1, max_size=size))
    system = SpacedSystem.perturbed(base, c, [psi])
    chain = lifting_chain(system, t, members, big_b)
    assert chain_rows(chain) == pair_list_chain(system, t, members, big_b)


def test_lifting_chain_broken_implication_is_invariant_error():
    # phi(z) = z + 5 z^2 is spaced by c = 1 only; claiming c = 2 makes step 1
    # check sum x = sum y (mod 25), which the pairs with equal phi sums break
    system = SpacedSystem.perturbed(5, 1, [[0, 0, 1]])
    object.__setattr__(system, "spacing", 2)
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 125))
    with pytest.raises(InvariantError, match="step 1"):
        pair_list_chain(system, 2, members, 3)
    with pytest.raises(InvariantError, match="step 1"):
        lifting_chain(system, 2, members, 3)


def test_lifting_chain_validations():
    system = SpacedSystem.pure_powers(1, 3)
    with pytest.raises(ValidationError):
        lifting_chain(system, 2, [1, 3], 2)  # infinite spacing
    sys2 = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])
    for t, big_b in ((0, 2), (-1, 2), (2, 0), (2, -1)):
        with pytest.raises(ValidationError):
            lifting_chain(sys2, t, [1, 3], big_b)
    assert chain_rows(lifting_chain(sys2, 1, [1, 3], 2)) == [(1, 1, 2), (2, 2, 2)]


def test_lifting_chain_budget():
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])
    members = list(iter_members(DS3, 27))
    # a step's table: 1 * 8 candidates, then at most 8 keys * 8 entries
    assert chain_rows(lifting_chain(system, 2, members, 3, budget=Budget(max_tuples=72)))
    with pytest.raises(BudgetError):
        lifting_chain(system, 2, members, 3, budget=Budget(max_tuples=71))
    with pytest.raises(BudgetError):
        lifting_chain(system, 2, members, 3, budget=Budget(max_table_bytes=1000))
