"""Congruence mean values from residue histograms against per-member scans.

The library reduces the support to residues before any phi evaluation; the
oracles here never do.  A ``MemberSet`` is one more weight kind: the oracles
read its listed ``entries``, the library its residue counts.  They scan the ordered tuples of the members
themselves, reduce each key mod p^B and sum the products of the weights, as
``test_count_slices.py`` does for the counting engines.
"""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import (
    DigitSet,
    GridPoint,
    MeanValueSpec,
    MemberSet,
    SpacedSystem,
    ValidationError,
    WeightAssignment,
    congruence_mean_value,
    discrete_integral,
    restricted_exp_sum,
    two_class_mean_value,
)


def split(entries, modulus):
    """The (x, w) entries grouped by x mod modulus, member by member."""
    out = {}
    for x, w in entries:
        out.setdefault(x % modulus, []).append((x, w))
    return out


def norm(part):
    return sum(w * w for _, w in part)


def scan(system, parts, modulus):
    """sum_v M(v)**2 over the ordered tuples taking entry i from parts[i]:
    M(v) sums the products of the weights of the tuples whose key is v mod
    modulus."""
    masses = {}
    for tup in itertools.product(*parts):
        key = tuple(v % modulus for v in system.key([x for x, _ in tup]))
        masses[key] = masses.get(key, 0) + math.prod(w for _, w in tup)
    return sum(m * m for m in masses.values())


def block_value(system, parts, modulus):
    """The grid average of prod |f_part|^2 over the parts, normalised (exact
    for integer weights too)."""
    return scan(system, parts, modulus) / Fraction(math.prod(norm(part) for part in parts))


def oracle_mean_value(system, entries, s, b_level, h):
    p = system.base
    total = sum(
        norm(part) * block_value(system, [part] * s, p**b_level)
        for part in split(entries, p**h).values()
    )
    return total / norm(entries)


def oracle_two_class(system, entries, s, b_level, big_r, a, b, nu):
    p = system.base
    total = 0
    for res_a, part_a in split(entries, p**a).items():
        for res_b, part_b in split(entries, p**b).items():
            if nu >= 1 and (res_a - res_b) % p**nu == 0:
                continue
            parts = [part_a] * big_r + [part_b] * (s - big_r)
            total += norm(part_a) * norm(part_b) * block_value(system, parts, p**b_level)
    return total / norm(entries) ** 2


@st.composite
def systems(draw):
    base = draw(st.sampled_from([3, 5]))
    if draw(st.booleans()):
        return SpacedSystem.pure_powers(draw(st.integers(1, 2)), base)
    k = draw(st.integers(1, 2))
    psi = [draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)) for _ in range(k)]
    return SpacedSystem.perturbed(base, 1, psi)  # negative psi: keys below 0


@st.composite
def weight_assignments(draw, base, max_size=7):
    kind = draw(st.sampled_from(["unit", "fraction", "float", "members"]))
    if kind == "members":  # unit weights on E(X), at most about 3 * max_size members
        digits = draw(st.lists(st.integers(0, base - 1), min_size=2, max_size=base - 1,
                               unique=True))
        ds = DigitSet(base, tuple(digits), strict=False)
        return MemberSet(ds, draw(st.integers(min(d for d in digits if d), 3 * max_size)))
    members = draw(st.lists(st.integers(1, 400), min_size=1, max_size=max_size, unique=True))
    if kind == "unit":
        return WeightAssignment.unit(members)
    if kind == "fraction":
        pairs = {}
        for x in members:
            den = draw(st.sampled_from([2, 3, 7, 12, 25]))
            pairs[x] = Fraction(draw(st.integers(1, den)), den)
        return WeightAssignment.from_pairs(pairs)
    return WeightAssignment.from_pairs({x: draw(st.floats(0.05, 1.0)) for x in members})


def same(got, want, weights):
    if weights.exact:
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_mean_value_and_integral_match_member_scan(system, data):
    weights = data.draw(weight_assignments(system.base))
    s = data.draw(st.integers(1, 3))
    b_level = data.draw(st.integers(1, 2))
    h = data.draw(st.integers(0, b_level))
    spec = MeanValueSpec(system, weights, s, b_level, h)
    entries = weights.entries
    same(congruence_mean_value(spec), oracle_mean_value(system, entries, s, b_level, h), weights)

    residue = data.draw(st.one_of(st.none(), st.integers(0, system.base**h)))
    part = split(entries, system.base ** (0 if residue is None else h)).get(
        0 if residue is None else residue % system.base**h
    )
    want = 0 if part is None else block_value(system, [part] * s, system.base**b_level)
    same(discrete_integral(spec, residue), want, weights)


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_two_class_matches_member_scan(system, data):
    weights = data.draw(weight_assignments(system.base, max_size=6))
    k = system.k
    s = data.draw(st.integers(1, 3))
    t, r = data.draw(st.sampled_from(
        [(t, r) for t in (2, 3) for r in range(k + 1) if t * r * (r + 1) // 2 <= s]
    ))
    big_r = t * r * (r + 1) // 2
    b_level = data.draw(st.integers(1, 2))
    a = data.draw(st.integers(0, b_level + 2))  # levels past B too
    b = data.draw(st.integers(0, b_level + 2))
    nu = data.draw(st.integers(0, 2))
    spec = MeanValueSpec(system, weights, s, b_level, 0)
    entries = weights.entries
    want = oracle_two_class(system, entries, s, b_level, big_r, a, b, nu)
    same(two_class_mean_value(spec, t, r, a, b, nu), want, weights)

    p = system.base
    xi = data.draw(st.integers(0, p**a))
    eta = data.draw(st.integers(0, p**b))
    part_a = split(entries, p**a).get(xi % p**a)
    part_b = split(entries, p**b).get(eta % p**b)
    pair = 0
    if part_a is not None and part_b is not None:
        parts = [part_a] * big_r + [part_b] * (s - big_r)
        pair = block_value(system, parts, p**b_level)
    same(two_class_mean_value(spec, t, r, a, b, xi=xi, eta=eta), pair, weights)


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_exp_sum_matches_member_sum_off_prime_powers(system, data):
    weights = data.draw(weight_assignments(system.base, max_size=10))
    modulus = data.draw(st.sampled_from([6, 10, 21, system.base**2]))
    u = tuple(data.draw(st.integers(1, modulus)) for _ in range(system.k))
    level = data.draw(st.integers(0, 3))
    residue = data.draw(st.integers(0, system.base**level))
    part = split(weights.entries, system.base**level).get(residue % system.base**level, [])
    want = 0j
    for x, w in part:
        phase = sum(uj * system.phi(j, x) for j, uj in enumerate(u, start=1))
        want += float(w) * cmath.exp(2j * cmath.pi * (phase % modulus) / modulus)
    if part:
        want /= math.sqrt(float(norm(part)))
    if isinstance(weights, MemberSet) and modulus != system.base**2:
        with pytest.raises(ValidationError):  # a member set is read mod powers of p only
            restricted_exp_sum(system, weights, GridPoint(u, modulus), level, residue)
        return
    got = restricted_exp_sum(system, weights, GridPoint(u, modulus), level, residue)
    scale = math.sqrt(len(part))  # bounds |f| for weights in [0, 1]
    assert cmath.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


def test_float_paths_take_huge_denominators():
    """Weights over a common denominator past 2**600: the float paths divide
    each summed mass by D as integers, which stays finite."""
    members = [1, 2, 4, 5, 7, 10, 13, 20, 22, 25]
    dens = [(1 << 300) + 2 * i + 1 for i in range(len(members))]
    weights = WeightAssignment.from_pairs(
        {x: Fraction(den // (i + 2), den) for i, (x, den) in enumerate(zip(members, dens))}
    )
    assert weights.denom > 1 << 600
    system = SpacedSystem.pure_powers(2, 3)
    for h in (0, 1):
        spec = MeanValueSpec(system, weights, 2, 2, h)
        exact = congruence_mean_value(spec)
        assert congruence_mean_value(spec, mode="grid") == pytest.approx(float(exact), rel=1e-9)
    value = restricted_exp_sum(system, weights, GridPoint((1, 2), 9), 1, 1)
    assert cmath.isfinite(value)
