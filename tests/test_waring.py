"""Waring representation tables, reconciliation, Cauchy bound."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellipsephic import (
    Budget,
    BudgetError,
    DigitSet,
    InvariantError,
    SpacedSystem,
    ValidationError,
    cauchy_bound_check,
    integer_root,
    iter_members,
    mitm_count,
    representation_table,
    represented_count,
)
from ellipsephic import digits

DS3 = DigitSet(3, (0, 1))
DS5 = DigitSet(5, (0, 1, 4))


def test_integer_root():
    assert integer_root(624, 2) == 24
    assert integer_root(625, 2) == 25
    assert integer_root(26, 3) == 2
    assert integer_root(27, 3) == 3
    for n in range(200):
        for k in (1, 2, 3, 4):
            r = integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


# far past the float range (about 10**308), and at perfect powers and their
# neighbours, where a float guess is most easily off by one
@given(
    st.integers(1, 7),
    st.integers(0, 10**600),
    st.integers(0, 10**85),
    st.integers(-1, 1),
)
def test_integer_root_exact_at_every_size(k, n, base, shift):
    for m in (n, max(0, base**k + shift)):
        r = integer_root(m, k)
        assert r**k <= m < (r + 1) ** k


@pytest.mark.parametrize(
    "ds, s, k, bound",
    [
        (DS3, 1, 2, 16),
        (DS3, 2, 1, 8),
        (DS5, 3, 2, 50),
        (DS5, 2, 2, 400),
        (DS5, 3, 1, 400),
        (DS5, 2, 3, 400),
        (DS3, 2, 2, 100),
        (DS5, 2, 2, 5**4),
        (DigitSet(5, (0, 2)), 2, 2, 1),
        (DigitSet(3, (0, 1, 2), strict=False), 1, 1, 20),
        (DS3, 1, 2, 1),
    ],
)
def test_sums_equal_plain_sums_over_counts(ds, s, k, bound):
    table = representation_table(ds, s, k, bound)
    assert table.total() == sum(table.counts.values())
    assert table.sum_squares() == sum(r * r for r in table.counts.values())
    assert table.total() + table.overflow == table.y**s


def test_table_s1_k2_example():
    table = representation_table(DS3, 1, 2, 16)
    assert table.counts == {1: 1, 9: 1, 16: 1}
    assert represented_count(table) == 3


def test_table_arrays_are_read_only_and_compared_by_identity():
    table = representation_table(DS3, 2, 1, 8)
    assert table.n.tolist() == [2, 4, 5, 6, 7, 8] and table.r.tolist() == [1, 2, 2, 1, 2, 1]
    assert table == table and table != representation_table(DS3, 2, 1, 8)
    assert hash(table) == hash(table)
    with pytest.raises(ValueError):
        table.r[0] = 5


def test_table_s2_k1_example():
    table = representation_table(DS3, 2, 1, 8)
    assert table.counts == {2: 1, 4: 2, 5: 2, 6: 1, 7: 2, 8: 1}


def test_no_representation_below_s():
    table = representation_table(DS5, 3, 2, 50)
    assert all(n >= 3 for n in table.counts)


def test_reconciliation_total():
    for s, k in ((2, 2), (3, 1), (2, 3)):
        table = representation_table(DS5, s, k, 400)
        assert table.total() + table.overflow == table.y**s


def test_reconciliation_direct_enumeration():
    table = representation_table(DS3, 2, 2, 100)
    members = [m for m in iter_members(DS3, 10) if m * m <= 100]
    direct = sum(
        1
        for tup in itertools.product(members, repeat=2)
        if sum(v * v for v in tup) <= 100
    )
    assert table.total() == direct


def test_sum_squares_equals_capped_mean_value():
    bound = 5**4
    table = representation_table(DS5, 2, 2, bound)
    system = SpacedSystem.single_power(2, 5)
    members = list(iter_members(DS5, integer_root(bound, 2)))
    res = mitm_count(system, 2, members, key_cap=bound)
    assert table.sum_squares() == res.count == 101  # golden


def test_waring_golden_p5():
    table = representation_table(DS5, 2, 2, 5**4)
    check = cauchy_bound_check(table)
    assert (table.y, table.total(), table.sum_squares()) == (9, 53, 101)
    assert represented_count(table) == 29
    assert (check.lhs, check.rhs) == (2809, 2929)
    assert check.holds
    assert check.lower_bound == pytest.approx(2809 / 101)
    assert represented_count(table) >= check.lower_bound


def test_empty_member_list_gives_zero():
    ds = DigitSet(5, (0, 2))  # smallest member is 2
    table = representation_table(ds, 2, 2, 1)
    assert table.counts == {} and represented_count(table) == 0


def test_full_digit_set_linear_covers_everything():
    full = DigitSet(3, (0, 1, 2), strict=False)
    table = representation_table(full, 1, 1, 20)
    assert represented_count(table) == 20


def test_cauchy_equality_single_mass():
    table = representation_table(DS3, 1, 2, 1)  # only n = 1 represented
    check = cauchy_bound_check(table)
    assert check.lhs == check.rhs
    assert check.holds


def test_budget_refusal():
    with pytest.raises(BudgetError):
        representation_table(DS5, 6, 1, 5**6, budget=Budget(max_tuples=1000))


def test_refusal_counts_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("members enumerated before the budget check")

    monkeypatch.setattr(digits, "iter_members", no_enumeration)
    with pytest.raises(BudgetError):
        representation_table(DS5, 3, 2, 5**22)  # Y = 177,147 members
    with pytest.raises(BudgetError):
        representation_table(DS5, 6, 1, 5**6, budget=Budget(max_tuples=1000))


def test_member_count_mismatch_is_invariant_error(monkeypatch):
    monkeypatch.setattr(digits, "count_members", lambda ds, bound: 0)
    with pytest.raises(InvariantError):
        representation_table(DS5, 2, 2, 625)


def test_validation():
    with pytest.raises(ValidationError):
        representation_table(DS3, 0, 2, 10)
    with pytest.raises(ValidationError):
        representation_table(DS3, 2, 2, 0)
