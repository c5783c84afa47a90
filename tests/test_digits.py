"""Digit-set construction, enumeration, membership, and representation profiles."""

import itertools
import json
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import (
    Budget,
    BudgetError,
    DigitSet,
    DigitSource,
    InvariantError,
    MemberSet,
    SpacedSystem,
    ValidationError,
    count_members,
    digit_set_text,
    et_star_report,
    is_member,
    iter_members,
    parse_digit_set,
    rep_profile,
)
from ellipsephic.digits import base_digits


def brute_members(base, digits, bound):
    """Independent oracle: filter [1, bound] by digit inspection."""
    allowed = set(digits)
    out = []
    for n in range(1, bound + 1):
        if set(base_digits(n, base)) <= allowed:
            out.append(n)
    return out


# --- construction and validation ------------------------------------------

def test_base_must_be_odd_prime():
    with pytest.raises(ValidationError, match="base not an odd prime"):
        DigitSet(4, (0, 1))
    with pytest.raises(ValidationError, match="base not an odd prime"):
        DigitSet(2, (0, 1))
    with pytest.raises(ValidationError, match="base not an odd prime"):
        DigitSet(9, (0, 1))


def test_composite_base_past_the_trial_divisors():
    """Odd composites with no factor among the Miller-Rabin bases, which
    only a witness rejects: 41 * 43, and 3215031751 = 151 * 751 * 28351, a
    strong pseudoprime to bases 2, 3, 5 and 7."""
    with pytest.raises(ValidationError, match="base not an odd prime"):
        DigitSet(1763, (0, 1))
    with pytest.raises(ValidationError, match="base not an odd prime"):
        SpacedSystem.pure_powers(1, 3215031751)


def test_digit_range_and_duplicates():
    with pytest.raises(ValidationError):
        DigitSet(3, (0, 3))
    with pytest.raises(ValidationError):
        DigitSet(3, (-1, 1))
    with pytest.raises(ValidationError):
        DigitSet(5, (0, 1, 1))


def test_strict_mode_window():
    with pytest.raises(ValidationError, match="r = 1"):
        DigitSet(5, (2,))
    with pytest.raises(ValidationError):
        DigitSet(3, (0, 1, 2))  # r = p needs strict off
    DigitSet(3, (0, 1, 2), strict=False)
    DigitSet(5, (2,), strict=False)


def test_digits_are_normalised_sorted():
    assert DigitSet(7, (4, 0, 2)).digits == (0, 2, 4)


_PRIMES = (3, 5, 7, 11, 13, 101)


@given(st.sampled_from(_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p - 1), min_size=1))))
def test_text_round_trip_property(base_digits_pair):
    base, digits = base_digits_pair
    ds = DigitSet(base, tuple(digits), strict=False)
    text = digit_set_text(ds)
    assert parse_digit_set(text, strict=False) == ds
    assert digit_set_text(parse_digit_set(text, strict=False)) == text
    if 2 <= len(digits) <= base - 1:
        assert parse_digit_set(text) == DigitSet(base, tuple(digits))


def test_text_round_trip():
    ds = DigitSet(11, (0, 1, 4, 9))
    assert digit_set_text(ds) == "p=11;digits=0,1,4,9"
    assert parse_digit_set(digit_set_text(ds)) == ds
    with pytest.raises(ValidationError):
        parse_digit_set("p=11")
    with pytest.raises(ValidationError):
        parse_digit_set("p=11;digits=0,1;p=3")


# --- enumeration and membership --------------------------------------------

def test_enumerate_examples():
    assert list(iter_members(DigitSet(3, (0, 1)), 10)) == [1, 3, 4, 9, 10]
    full = DigitSet(3, (0, 1, 2), strict=False)
    assert list(iter_members(full, 7)) == [1, 2, 3, 4, 5, 6, 7]
    assert list(iter_members(DigitSet(11, (0, 1, 4, 9)), 11)) == [1, 4, 9, 11]


def test_is_member_examples():
    ds = DigitSet(3, (0, 1))
    assert is_member(ds, 10)  # 101 in base 3
    assert not is_member(ds, 5)  # 12 in base 3
    assert is_member(DigitSet(7, (0, 2)), 2)
    with pytest.raises(ValidationError):
        is_member(ds, 0)


def test_count_examples():
    assert count_members(DigitSet(3, (0, 1)), 9) == 4
    assert count_members(DigitSet(3, (0, 1)), 2) == 1
    # golden, frozen from the enumeration oracle
    assert count_members(DigitSet(11, (0, 1, 4, 9)), 11**3) == 64


@given(st.sampled_from([3, 5, 7, 11]), st.data())
@settings(max_examples=80, deadline=None)
def test_count_members_matches_enumeration(base, data):
    # any digit set, strict or not, including {0} and the full set
    digits = data.draw(
        st.lists(st.integers(0, base - 1), min_size=1, max_size=base, unique=True)
    )
    ds = DigitSet(base, tuple(digits), strict=False)
    length = data.draw(st.integers(1, 3 if base == 11 else 4))
    top = base**length
    bounds = [1, base - 1, base, top - 1, top, data.draw(st.integers(1, 2 * top))]
    for bound in bounds:
        assert count_members(ds, bound) == len(list(iter_members(ds, bound)))
        # the walk above is the one count_members sums; this filter shares none of it
        assert count_members(ds, bound) == len(brute_members(base, digits, bound))


def test_residue_counts_match_the_member_listing():
    """The walk's counts mod p**M against the members' own x % p**M, on seeded
    digit sets with and without 0, bounds off the powers of p, and M from 0
    to past the bound's length."""
    rng = random.Random(22)
    for _ in range(300):
        base = rng.choice((3, 5, 7, 11))
        digits = sorted(rng.sample(range(base), rng.randint(2, base - 1)))
        if rng.random() < 0.4:
            digits = [d for d in digits if d] or [1]
        ds = DigitSet(base, tuple(digits), strict=False)
        bound = rng.randint(2, base ** rng.randint(1, 4 if base < 11 else 3))
        length = len(base_digits(bound, base))
        if bound == base ** (length - 1):
            bound += 1
        level = rng.randint(0, length + 2)
        want = Counter(x % base**level for x in iter_members(ds, bound))
        assert MemberSet(ds, bound).residue_counts(base**level) == want


def test_residue_counts_guard_and_tripwire(monkeypatch):
    from ellipsephic import digits

    ds = DigitSet(5, (0, 1, 4))
    for modulus in (0, 10, 26):
        with pytest.raises(ValidationError):
            MemberSet(ds, 125).residue_counts(modulus)
    # min(y, p**M) counts at UNIT_BYTES each are refused before the walk
    need = min(3**6, 5**3) * MemberSet.UNIT_BYTES
    with pytest.raises(BudgetError):
        MemberSet(ds, 5**6).residue_counts(125, Budget(max_table_bytes=need - 1))
    assert MemberSet(ds, 5**6).residue_counts(125, Budget(max_table_bytes=need)).total() == 3**6
    monkeypatch.setattr(digits, "count_members", lambda ds, bound: 0)
    with pytest.raises(InvariantError):
        MemberSet(ds, 30).residue_counts(25)


def test_member_set_counts_past_maxsize():
    ds = DigitSet(5, (0, 1, 4))
    members = MemberSet(ds, 10**100)
    assert members.y == count_members(ds, 10**100) > sys.maxsize
    assert list(MemberSet(ds, 30)) == [1, 4, 5, 6, 9, 20, 21, 24, 25, 26, 29, 30]


@given(
    st.sampled_from([3, 5, 7, 11]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_membership_oracle(base, data):
    digits = data.draw(
        st.lists(st.integers(0, base - 1), min_size=2, max_size=base - 1, unique=True)
    )
    bound = data.draw(st.integers(1, 400))
    ds = DigitSet(base, tuple(digits))
    members = list(iter_members(ds, bound))
    assert members == brute_members(base, digits, bound)
    assert members == sorted(set(members))
    for n in members:
        assert is_member(ds, n)


def test_truncation_closure():
    ds = DigitSet(5, (0, 1, 4))
    members = list(iter_members(ds, 5**4))
    for m in members:
        for level in (1, 2, 3):
            trunc = m % 5**level
            assert trunc == 0 or is_member(ds, trunc)


def test_prefix_monotonicity():
    ds = DigitSet(3, (0, 1))
    big = list(iter_members(ds, 500))
    for small_bound in (1, 10, 99, 250):
        small = list(iter_members(ds, small_bound))
        assert big[: len(small)] == small


def test_count_growth_bound():
    ds = DigitSet(5, (0, 1, 4))
    for a in range(1, 6):
        assert count_members(ds, 5**a) <= 3**a


# --- representation profiles -----------------------------------------------

def test_rep_profile_squares_examples():
    profile = rep_profile(DigitSource.squares(), 2, 30)
    assert profile.count(25) == 4  # (0,25),(25,0),(9,16),(16,9)
    assert profile.count(0) == 1
    assert profile.count(3) == 0


def test_rep_profile_self_consistency():
    horizon = 200
    source = DigitSource.squares()
    profile = rep_profile(source, 2, horizon)
    elems = source.up_to(horizon)
    direct = sum(
        1 for a, b in itertools.product(elems, repeat=2) if a + b <= horizon
    )
    assert sum(profile.counts) == direct


def test_rep_profile_higher_t():
    source = DigitSource.explicit([0, 1, 3])
    profile = rep_profile(source, 3, 12)
    elems = [0, 1, 3]
    for n in range(13):
        direct = sum(
            1 for tup in itertools.product(elems, repeat=3) if sum(tup) == n
        )
        assert profile.count(n) == direct
    # 2**70 ordered tuples: counts overflow int64 and stay exact
    profile = rep_profile(DigitSource.explicit([0, 1]), 70, 70)
    assert profile.counts.tolist() == [math.comb(70, n) for n in range(71)]


def test_rep_profile_validation():
    with pytest.raises(ValidationError):
        rep_profile(DigitSource.squares(), 1, 10)
    from ellipsephic import BudgetError

    with pytest.raises(BudgetError):
        rep_profile(DigitSource.squares(), 2, 10**9, budget=Budget(max_table_bytes=1 << 20))


def test_et_star_explicit_digits():
    profile = rep_profile(DigitSource.explicit([0, 1]), 2, 100)
    report = et_star_report(profile)
    assert report.max_count == 2  # n=1: (0,1),(1,0)
    assert report.max_at == 1


def test_et_star_window_maxima_small():
    profile = rep_profile(DigitSource.squares(), 2, 16)
    report = et_star_report(profile)
    # windows [1,2),[2,4),[4,8),[8,16),[16,17) read from the counts table
    expected = []
    start = 1
    while start <= 16:
        stop = min(2 * start, 17)
        expected.append((start, max(profile.counts[start:stop])))
        start *= 2
    assert report.windows == tuple(expected)
    assert all(type(v) is int for window in report.windows for v in window)


def test_et_star_matches_python_window_scan():
    """Object-dtype counts past 2**63 and a horizon that is not a power of two:
    the vectorised scan gives the Python scan's figures, all Python ints, so
    the JSON payload of a report is unchanged."""
    profile = rep_profile(DigitSource.explicit([0, 1]), 70, 1000)
    assert profile.counts.dtype == object and max(profile.counts) > 1 << 63
    counts = profile.counts.tolist()
    report = et_star_report(profile)
    windows = []
    start = 1
    while start <= 1000:
        windows.append((start, max(counts[start : min(2 * start, 1001)])))
        start *= 2
    figures = [report.max_count, report.max_at, *itertools.chain(*report.windows)]
    assert all(type(v) is int for v in figures)
    got = {"max_count": report.max_count, "max_at": report.max_at, "windows": report.windows}
    want = {"max_count": max(counts), "max_at": counts.index(max(counts)), "windows": windows}
    assert json.dumps(got) == json.dumps(want)


def test_profile_arrays_are_read_only_and_compared_by_identity():
    profile = rep_profile(DigitSource.squares(), 2, 30)
    assert profile == profile and profile != rep_profile(DigitSource.squares(), 2, 30)
    assert hash(profile) == hash(profile)
    assert type(profile.count(25)) is int
    with pytest.raises(ValueError):
        profile.counts[0] = 2


def test_et_star_needs_horizon():
    with pytest.raises(ValidationError):
        et_star_report(rep_profile(DigitSource.squares(), 2, 15))


def test_sources_validate():
    with pytest.raises(ValidationError):
        DigitSource.explicit([2, 3])  # must start at 0 or 1
    with pytest.raises(ValidationError):
        DigitSource.explicit([0, 0, 1])
    with pytest.raises(ValidationError):
        DigitSource.powers(0)
    assert DigitSource.powers(3).up_to(30) == [0, 1, 8, 27]
    assert DigitSource.squares().digit_set(11).digits == (0, 1, 4, 9)
