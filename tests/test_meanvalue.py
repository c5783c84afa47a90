"""Counting engine: brute-force oracle, meet-in-the-middle equality, references."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import (
    Budget,
    BudgetError,
    CountResult,
    DigitSet,
    MemberSet,
    SpacedSystem,
    ValidationError,
    WeightAssignment,
    brute_force_count,
    diagonal_count,
    fit_exponent,
    iter_members,
    key_hex,
    lifting_chain,
    lower_bound_reference,
    mitm_count,
    multiplicity_table,
)

E9 = [1, 3, 4, 9]


def dumb_count(system, s, members):
    """Reference count nobody optimised: literal scan of all 2s-tuples."""
    total = 0
    for x in itertools.product(members, repeat=s):
        kx = system.key(x)
        for y in itertools.product(members, repeat=s):
            if system.key(y) == kx:
                total += 1
    return total


# --- SpacedSystem -----------------------------------------------------------

def test_pure_powers_shape():
    sys3 = SpacedSystem.pure_powers(3, 7)
    assert sys3.coeffs == ((0, 1), (0, 0, 1), (0, 0, 0, 1))
    assert sys3.phi(2, 5) == 25
    assert sys3.key((2, 3)) == (5, 13, 35)


def test_spacing_validation():
    # phi_1(z) = z + 9z^2 is 3^2-spaced
    SpacedSystem(1, 3, ((0, 1, 9),), 2)
    with pytest.raises(ValidationError):
        SpacedSystem(1, 3, ((0, 1, 3),), 2)  # 3 not divisible by 9
    with pytest.raises(ValidationError):
        SpacedSystem(1, 3, ((0, 2),), None)  # infinite spacing must be exact powers
    with pytest.raises(ValidationError):
        SpacedSystem(1, 4, ((0, 1),), None)  # base must be an odd prime


def test_perturbed_constructor():
    sys_p = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])  # phi(z) = z + 3z^2
    assert sys_p.coeffs == ((0, 1, 3),)
    assert sys_p.phi(1, 4) == 4 + 3 * 16


def test_single_power():
    sys_w = SpacedSystem.single_power(2, 5)
    assert sys_w.k == 1
    assert sys_w.phi(1, 7) == 49


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(1, 30))
def test_phi_ranges_bound_every_member(row, x_max):
    system = SpacedSystem(1, 3, (tuple(row),), 0)
    [(lo, hi)] = system.phi_ranges(x_max)
    values = [system.phi(1, x) for x in range(1, x_max + 1)]
    assert lo <= min(values) and max(values) <= hi
    assert SpacedSystem.pure_powers(3, 5).phi_ranges(x_max) == tuple(
        (1, x_max**j) for j in (1, 2, 3))


# --- a MemberSet in place of a list -------------------------------------------

SQUARES5 = DigitSet(5, (0, 1, 4))
CHAIN = SpacedSystem.perturbed(5, 1, [[0, 0, 1]])


def test_member_set_counts_as_its_list(table_dict):
    members = MemberSet(SQUARES5, 300)
    listed = list(iter_members(SQUARES5, 300))
    sys2 = SpacedSystem.pure_powers(2, 5)
    assert mitm_count(sys2, 2, members) == mitm_count(sys2, 2, listed)
    assert brute_force_count(sys2, 2, members) == brute_force_count(sys2, 2, listed)
    assert table_dict(multiplicity_table(sys2, 2, members)) == table_dict(
        multiplicity_table(sys2, 2, listed)
    )
    assert lifting_chain(CHAIN, 2, members, 2) == lifting_chain(CHAIN, 2, listed, 2)


@pytest.mark.parametrize(
    "engine",
    [
        lambda m: mitm_count(SpacedSystem.pure_powers(1, 5), 2, m),
        lambda m: multiplicity_table(SpacedSystem.pure_powers(2, 5), 2, m),
        lambda m: brute_force_count(SpacedSystem.pure_powers(1, 5), 1, m),
        lambda m: lifting_chain(CHAIN, 2, m, 3),
    ],
    ids=["mitm_count", "multiplicity_table", "brute_force_count", "lifting_chain"],
)
def test_member_set_refused_before_listing(monkeypatch, engine):
    from ellipsephic import digits

    def unlisted(*args):
        raise AssertionError("members listed before the budget refused")

    monkeypatch.setattr(digits, "iter_members", unlisted)
    with pytest.raises(BudgetError):
        engine(MemberSet(SQUARES5, 5**14))  # Y = 3**14 = 4,782,969


# --- brute force oracle -----------------------------------------------------

def test_brute_examples():
    sys1 = SpacedSystem.pure_powers(1, 3)
    assert brute_force_count(sys1, 2, E9).count == 28
    assert brute_force_count(sys1, 1, E9).count == 4
    sys2 = SpacedSystem.pure_powers(2, 3)
    assert brute_force_count(sys2, 2, E9).count == 28
    assert brute_force_count(sys2, 1, E9).count == 4


def test_brute_equals_dumb_scan():
    sys2 = SpacedSystem.pure_powers(2, 5)
    members = [1, 4, 5, 6, 9]
    assert brute_force_count(sys2, 2, members).count == dumb_count(sys2, 2, members)


def test_brute_budget_refusal():
    sys1 = SpacedSystem.pure_powers(1, 3)
    with pytest.raises(BudgetError):
        brute_force_count(sys1, 3, list(range(1, 30)), budget=Budget(max_tuples=1000))


@pytest.mark.parametrize("listed", [False, True])
def test_brute_checks_the_budget_once(monkeypatch, listed):
    """One tuple-budget check: a MemberSet's y before listing (the listing
    checks its count), or a sequence's distinct members after it."""
    from ellipsephic import meanvalue

    seen = []
    monkeypatch.setattr(meanvalue, "check_pairs", lambda n, limit: seen.append(n))
    members = MemberSet(SQUARES5, 300)
    sys1 = SpacedSystem.pure_powers(1, 5)
    brute_force_count(sys1, 2, list(members) * 2 if listed else members)
    assert seen == [members.y**2]


# --- meet in the middle ------------------------------------------------------

def test_mitm_examples():
    sys1 = SpacedSystem.pure_powers(1, 3)
    assert mitm_count(sys1, 2, E9).count == 28
    assert mitm_count(sys1, 1, [5, 7, 11]).count == 3


def test_mitm_without_members_counts_zero():
    """No member left to count: an empty list, weights whose support misses
    every member, and the base-5 {0, 4} members up to 3, of which there are
    none."""
    system = SpacedSystem.pure_powers(2, 5)
    elsewhere = WeightAssignment.from_pairs({2: 1})
    for members, weights in (([], None), ([1, 5, 6], elsewhere),
                             (MemberSet(DigitSet(5, (0, 4)), 3), None)):
        assert mitm_count(system, 3, members, weights) == CountResult(0, 3, 2, 0, "mitm")


def test_mitm_equals_brute_small_grid():
    for base, digits in ((3, (0, 1)), (5, (0, 1, 4)), (7, (0, 2, 3, 6))):
        ds = DigitSet(base, digits)
        members = list(iter_members(ds, 60))
        for k in (1, 2):
            system = SpacedSystem.pure_powers(k, base)
            for s in (1, 2):
                b = brute_force_count(system, s, members).count
                m = mitm_count(system, s, members).count
                assert m == b, (base, digits, k, s)
    # k = 3 keys beyond 2**62: both engines switch to Python integers, for a
    # wide key range and for a narrow one far from zero
    system = SpacedSystem.pure_powers(3, 3)
    for members in ([1, 5, 2**21 - 1, 2**21], [2**21 - 3, 2**21 - 1, 2**21]):
        assert (
            mitm_count(system, 2, members).count
            == brute_force_count(system, 2, members).count
        ), members


def test_mitm_fast_path_matches_general(table_dict):
    ds = DigitSet(5, (0, 1, 4))
    members = list(iter_members(ds, 5**3))
    system = SpacedSystem.pure_powers(1, 5)
    fast = mitm_count(system, 3, members).count  # unit weights: dense fast path
    general = sum(
        v * v for v in table_dict(multiplicity_table(system, 3, members)).values()
    )
    assert fast == general == 1830465  # golden, frozen from the convolution oracle


def test_mitm_golden_k2():
    ds = DigitSet(5, (0, 1, 4))
    system = SpacedSystem.pure_powers(2, 5)
    assert mitm_count(system, 3, list(iter_members(ds, 125))).count == 114561
    res60 = mitm_count(system, 3, list(iter_members(ds, 60)))
    assert res60.count == 27701
    assert brute_force_count(system, 3, list(iter_members(ds, 60))).count == 27701


def test_mitm_weighted_exact(table_dict):
    small = {1: Fraction(1, 2), 3: Fraction(1, 3), 4: 1, 9: Fraction(1, 4)}
    # numerators near 2**41 push the table masses past int64
    wide = {x: Fraction(2**41 - x, 2**41 + 1) for x in E9}
    for k, modulus, weights in itertools.product((1, 2), (None, 3**3), (small, wide)):
        system = SpacedSystem.pure_powers(k, 3)
        assignment = WeightAssignment.from_pairs(weights)
        res = mitm_count(system, 2, E9, assignment, modulus=modulus)
        # direct table: ordered pairs with weight products
        table = Counter()
        for x, y in itertools.product(E9, repeat=2):
            key = system.key((x, y))
            if modulus is not None:
                key = tuple(v % modulus for v in key)
            table[key] += weights[x] * weights[y]
        assert res.count == sum(v * v for v in table.values()), (k, modulus, weights)
        assert isinstance(res.count, Fraction)
        got = table_dict(multiplicity_table(system, 2, E9, assignment, modulus=modulus))
        # integer masses over D**2: the exact Fractions times D**2
        scale = assignment.denom**2
        assert got == {key: v * scale for key, v in table.items()}
        assert all(type(v) is int for v in got.values())


def test_mitm_weighted_float_close():
    sys1 = SpacedSystem.pure_powers(1, 3)
    weights = WeightAssignment.from_pairs({1: 0.5, 3: 1 / 3, 4: 1.0, 9: 0.25})
    res = mitm_count(sys1, 2, E9, weights)
    exact = mitm_count(
        sys1,
        2,
        E9,
        WeightAssignment.from_pairs(
            {1: Fraction(1, 2), 3: Fraction(1, 3), 4: 1, 9: Fraction(1, 4)}
        ),
    )
    assert res.count == pytest.approx(float(exact.count), rel=1e-9)


def test_mitm_refuses_mapping_weights():
    sys1 = SpacedSystem.pure_powers(1, 3)
    with pytest.raises(ValidationError, match=r"WeightAssignment\.from_pairs"):
        mitm_count(sys1, 2, E9, {1: Fraction(1, 2), 3: 1})


def test_exact_weights_reach_kernel_as_ints(monkeypatch):
    """Fraction weights are scaled once: the kernel is handed int masses only."""
    from ellipsephic import MeanValueSpec, congruence, congruence_mean_value, meanvalue

    seen = []

    def spy(factors, **kwargs):
        seen.extend(w for _, ws in factors for w in ws)
        return build(factors, **kwargs)

    # counts reach the kernel through its count-only entry point
    build = meanvalue.power_sum_squares
    monkeypatch.setattr(meanvalue, "power_sum_squares", spy)
    monkeypatch.setattr(congruence, "power_sum_squares", spy)
    weights = WeightAssignment.from_pairs(
        {1: Fraction(1, 2), 3: Fraction(1, 3), 4: 1, 9: Fraction(1, 4)}
    )
    system = SpacedSystem.pure_powers(2, 3)
    count = mitm_count(system, 2, E9, weights).count
    value = congruence_mean_value(MeanValueSpec(system, weights, 2, 2, 1))
    assert isinstance(count, Fraction) and isinstance(value, Fraction)
    assert seen and {type(w) for w in seen} == {int}


def test_mitm_modular_mode():
    sys1 = SpacedSystem.pure_powers(1, 3)
    exact = mitm_count(sys1, 2, E9).count
    # small modulus merges keys, so counts can only grow
    assert mitm_count(sys1, 2, E9, modulus=3).count >= exact
    # large modulus (beyond 2*s*max phi) recovers the exact count
    assert mitm_count(sys1, 2, E9, modulus=3**4).count == exact


def test_mitm_permutation_invariance():
    sys2 = SpacedSystem.pure_powers(2, 3)
    members = [1, 3, 4, 9, 10, 12]
    shuffled = members[:]
    random.Random(7).shuffle(shuffled)
    assert mitm_count(sys2, 2, members).count == mitm_count(sys2, 2, shuffled).count


def test_mitm_member_order_bitwise_equal():
    ds = DigitSet(3, (0, 1))
    members = list(iter_members(ds, 81))
    system = SpacedSystem.pure_powers(2, 3)
    fwd = mitm_count(system, 2, members)
    rev = mitm_count(system, 2, members[::-1])
    assert fwd.count == rev.count
    weights = WeightAssignment.from_pairs({m: 1 / (1 + i) for i, m in enumerate(members)})
    fwd_w = mitm_count(system, 2, members, weights)
    rev_w = mitm_count(system, 2, members[::-1], weights)
    assert fwd_w.count == rev_w.count  # bitwise equal floats


def test_mitm_budget_refusal():
    sys1 = SpacedSystem.pure_powers(1, 3)
    with pytest.raises(BudgetError):
        mitm_count(sys1, 4, list(range(1, 60)), budget=Budget(max_tuples=10))
    # a table far below 65536 entries still refuses before it is allocated
    sys2 = SpacedSystem.pure_powers(2, 3)
    members = list(iter_members(DigitSet(3, (0, 1)), 81))
    with pytest.raises(BudgetError):
        multiplicity_table(sys2, 2, members, budget=Budget(max_table_bytes=1000))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_mitm_equals_brute_property(data):
    base = data.draw(st.sampled_from([3, 5]))
    members = data.draw(
        st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True)
    )
    s = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        system = SpacedSystem.pure_powers(k, base)
    else:
        # phi_j = z^j + base * psi_j with negative coefficients: negative keys
        psi = data.draw(
            st.lists(
                st.lists(st.integers(-3, 2), min_size=1, max_size=3),
                min_size=k,
                max_size=k,
            )
        )
        system = SpacedSystem.perturbed(base, 1, psi)
    assert (
        mitm_count(system, s, members).count
        == brute_force_count(system, s, members).count
    )


def test_cauchy_schwarz_on_multiplicities(table_dict):
    sys1 = SpacedSystem.pure_powers(1, 5)
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 124))
    table = table_dict(multiplicity_table(sys1, 2, members))
    count = sum(v * v for v in table.values())
    mass = sum(table.values())
    assert count * len(table) >= mass * mass


@pytest.mark.parametrize(
    "system, modulus",
    [
        # phi_1 = 5 - 4z and phi_2 = -4z^2: signed keys, packed with offsets
        (SpacedSystem.perturbed(5, 1, [[1, -1], [0, 0, -1]]), None),
        (SpacedSystem.pure_powers(2, 5), 25),
    ],
    ids=["perturbed-signed", "modulus"],
)
def test_multiplicity_table_keys_increase(table_dict, system, modulus):
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 124))
    keys = list(table_dict(multiplicity_table(system, 3, members, modulus=modulus)))
    assert len(keys) > 100
    assert keys == sorted(keys)
    if modulus is None:
        assert keys[0][1] < 0 and keys[0][0] < 0 < keys[-1][0]


def test_multiplicity_table_s0_and_empty():
    system = SpacedSystem.pure_powers(2, 5)
    zero = multiplicity_table(system, 0, E9)  # the empty sum: one zero key of mass 1
    assert zero.keys.tolist() == [[0, 0]] and zero.masses.tolist() == [1]
    assert len(zero) == 1 and zero.sum_squares() == 1
    empty = multiplicity_table(system, 2, MemberSet(DigitSet(5, (0, 4)), 3))  # no member
    assert empty.keys.shape == (0, 2) and empty.masses.shape == (0,)
    assert len(empty) == 0 and empty.sum_squares() == 0


# --- diagonal and reference curves -------------------------------------------

def diagonal_dumb(s, y):
    total = 0
    for x in itertools.product(range(y), repeat=s):
        for z in itertools.product(range(y), repeat=s):
            if sorted(x) == sorted(z):
                total += 1
    return total


def test_diagonal_examples():
    assert diagonal_count(1, 4) == 4
    assert diagonal_count(2, 4) == 28
    assert diagonal_count(2, 1) == 1


def test_diagonal_matches_dumb_scan():
    for s, y in ((1, 3), (2, 3), (2, 5), (3, 3), (3, 4)):
        assert diagonal_count(s, y) == diagonal_dumb(s, y), (s, y)


def test_diagonal_lower_bounds_unit_count():
    sys2 = SpacedSystem.pure_powers(2, 3)
    members = list(iter_members(DigitSet(3, (0, 1)), 40))
    count = mitm_count(sys2, 2, members).count
    assert count >= diagonal_count(2, len(members)) >= len(members) ** 2


def test_lower_bound_reference_examples():
    assert lower_bound_reference(2, 1, 9, 4) == pytest.approx(4**4 / 9)
    assert lower_bound_reference(1, 1, 1, 1) == pytest.approx(1.0)
    assert lower_bound_reference(3, 2, 100, 10) == pytest.approx(1.0)


# --- exponent fitting ---------------------------------------------------------

def test_fit_exact_power_law():
    points = [(10**i, y, y**2) for i, y in enumerate([2, 4, 8, 16, 32])]
    fit = fit_exponent(points)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.residual < 1e-12


def test_fit_two_term_growth():
    # count = Y^s + Y^(2s - t*k(k+1)/2) with s=3, t=2, k=1: exponents 3 and 4
    points = [(0, y, y**3 + y**4) for y in (10, 100, 1000, 10000)]
    fit = fit_exponent(points)
    assert 3.0 < fit.slope <= 4.0


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit_exponent([(1, 2, 4), (2, 2, 4), (3, 2, 4)])  # constant Y
    with pytest.raises(ValidationError):
        fit_exponent([(1, 2, 4), (2, 4, 16)])  # too few points


def test_key_hex():
    assert key_hex((255,)) == "ff"
    assert key_hex((10, -16)) == "a:-10"


@given(st.lists(st.integers(-(2**70), 2**70), max_size=4))
def test_key_hex_matches_sign_branch(key):
    signed = ":".join(format(v, "x") if v >= 0 else "-" + format(-v, "x") for v in key)
    assert key_hex(tuple(key)) == signed
