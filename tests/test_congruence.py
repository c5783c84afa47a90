"""Class norms, restricted exponential sums, congruence mean values, ratios."""

import cmath
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from ellipsephic import (
    DigitSet,
    GridPoint,
    InvariantError,
    MeanValueSpec,
    MemberSet,
    SpacedSystem,
    ValidationError,
    WeightAssignment,
    class_norms,
    class_refinement_check,
    congruence_mean_value,
    discrete_integral,
    iter_members,
    normalized_two_class,
    restricted_exp_sum,
    restriction_ratio,
    two_class_mean_value,
)
from ellipsephic import congruence

DS3 = DigitSet(3, (0, 1))
DS5 = DigitSet(5, (0, 1, 4))
SYS31 = SpacedSystem.pure_powers(1, 3)
E9 = list(iter_members(DS3, 9))
E27 = list(iter_members(DS3, 27))
W9 = WeightAssignment.unit(E9)


def random_rational_weights(members, rng, denominator=16):
    pairs = {}
    while not pairs:
        pairs = {
            m: Fraction(rng.randint(0, denominator), denominator)
            for m in members
            if rng.random() < 0.9
        }
        pairs = {m: w for m, w in pairs.items() if w > 0}
    return WeightAssignment.from_pairs(pairs)


# --- weights and class norms -------------------------------------------------

def test_weight_validation():
    with pytest.raises(ValidationError):
        WeightAssignment.from_pairs({1: 2})  # above 1
    with pytest.raises(ValidationError):
        WeightAssignment.from_pairs({1: Fraction(-1, 2)})
    with pytest.raises(ValidationError):
        WeightAssignment.from_pairs({0: 1})  # support starts at 1
    with pytest.raises(ValidationError):
        WeightAssignment.from_pairs({5: 0})  # zero total weight
    with pytest.raises(ValidationError):
        WeightAssignment.from_pairs([(3, 1), (3, 1)])


def test_weight_modes():
    exact = WeightAssignment.from_pairs({1: 1, 3: Fraction(1, 2)})
    assert exact.exact and exact.rho0_sq == Fraction(5, 4)
    mixed = WeightAssignment.from_pairs({1: 1, 3: 0.5})
    assert not mixed.exact


@pytest.mark.parametrize("members, message", [
    ([3, 0, 5], "support values must be >= 1, got 0"),
    ([4, 2, 4], "repeated support value 4"),
    ([], "total weight must be positive"),
])
def test_unit_weight_validation(members, message):
    with pytest.raises(ValidationError, match=message):
        WeightAssignment.unit(members)
    with pytest.raises(ValidationError, match=message):
        WeightAssignment.from_pairs([(x, 1) for x in members])


def test_unit_weights_build_no_fraction(monkeypatch):
    from ellipsephic import meanvalue

    class Unbuilt(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("unit weights built a Fraction")

    monkeypatch.setattr(meanvalue, "Fraction", Unbuilt)
    weights = WeightAssignment.unit(reversed(E9))
    assert weights == WeightAssignment(dict.fromkeys(E9, 1), 1, True)
    assert list(weights.masses) == E9  # increasing x


@pytest.mark.parametrize("pairs", [
    {1: 1, 3: 1, 4: 0, 9: 1},
    {1: Fraction(1, 2), 3: 1, 4: Fraction(2, 3), 10: Fraction(5, 12)},
    {1: 0.5, 3: Fraction(1, 3), 4: 1, 12: 0.125},
    # odd denominators near 2**300: D passes 2**600
    {x: Fraction((1 << 300) // (x + 2), (1 << 300) + 2 * x + 1) for x in (1, 2, 4, 5, 7)},
], ids=["int", "fraction", "float", "huge-D"])
def test_entries_rebuild_the_masses(pairs):
    weights = WeightAssignment.from_pairs(pairs)
    again = WeightAssignment.from_pairs(weights.entries)
    assert (again.masses, again.denom, again.exact) == (weights.masses, weights.denom, weights.exact)
    assert again == weights
    assert [x for x, _ in weights.entries] == sorted(x for x, w in pairs.items() if w)
    if weights.exact:
        assert dict(weights.entries) == {x: w for x, w in pairs.items() if w}
        assert weights.denom == math.lcm(*(Fraction(w).denominator for w in pairs.values()))


def test_partition_identity_random_weights():
    rng = random.Random(20240917)
    for base, digits in ((3, (0, 1)), (5, (0, 1, 4))):
        ds = DigitSet(base, digits)
        members = list(iter_members(ds, base**4))
        for _ in range(20):
            weights = random_rational_weights(members, rng)
            for level in (1, 2, 3, 4):
                norms = class_norms(weights, base, level)
                assert sum(norms.table.values()) == weights.rho0_sq


def test_refinement_identity_random_weights():
    rng = random.Random(777)
    for base, digits in ((3, (0, 1)), (5, (0, 1, 4))):
        ds = DigitSet(base, digits)
        members = list(iter_members(ds, base**4))
        for _ in range(20):
            weights = random_rational_weights(members, rng)
            for a, b in ((1, 2), (2, 4), (1, 4), (3, 3)):
                coarse = class_norms(weights, base, a)
                fine = class_norms(weights, base, b)
                for residue, rho_sq in coarse.table.items():
                    refined = sum(
                        v for res, v in fine.table.items() if res % base**a == residue
                    )
                    assert refined == rho_sq


def test_class_zero_appears_for_multiples_of_p():
    norms = class_norms(W9, 3, 1)
    # 3 and 9 are divisible by 3, so class 0 is populated
    assert set(norms.table) == {0, 1}
    assert norms.table[0] == Fraction(2)


# --- restricted exponential sums ---------------------------------------------

def test_exp_sum_at_zero_is_sqrt_class_size():
    point = GridPoint((3,), 3)  # u = modulus: alpha = 1, phases all trivial
    val = restricted_exp_sum(SYS31, W9, point, 1, 1)
    assert val == pytest.approx(math.sqrt(2))


def test_exp_sum_single_support_has_modulus_one():
    weights = WeightAssignment.from_pairs({7: 1})
    point = GridPoint((2,), 9)
    val = restricted_exp_sum(SYS31, weights, point, 0, 0)
    assert abs(val) == pytest.approx(1.0)
    assert val == pytest.approx(cmath.exp(2j * cmath.pi * (2 * 7 % 9) / 9))


def test_exp_sum_full_sum_example():
    # f(1/3) = 1 + e(1/3) for unit weights on {1,3,4,9}
    point = GridPoint((1,), 3)
    val = restricted_exp_sum(SYS31, W9, point, 0, 0)
    assert val == pytest.approx(1 + cmath.exp(2j * cmath.pi / 3))


def test_empty_class_returns_zero():
    point = GridPoint((1,), 3)
    assert restricted_exp_sum(SYS31, W9, point, 1, 2) == 0


# --- discrete integral and U -------------------------------------------------

def test_u_example_b1_s1():
    spec = MeanValueSpec(SYS31, W9, 1, 1, 0)
    assert congruence_mean_value(spec) == Fraction(2)
    # h = B = 1 coincides on this instance
    spec_bb = MeanValueSpec(SYS31, W9, 1, 1, 1)
    assert congruence_mean_value(spec_bb) == Fraction(2)


def test_u_collapses_to_diagonal_for_large_modulus():
    # base**B > 2X: the congruence forces equality, and normalisation gives 1
    rng = random.Random(5)
    weights = random_rational_weights(E9, rng)
    spec = MeanValueSpec(SYS31, weights, 1, 4, 0)
    assert congruence_mean_value(spec) == 1


def test_grid_equals_count():
    for base, digits, k, levels in (
        (3, (0, 1), 1, (1, 2, 3, 4)),
        (3, (0, 1), 2, (1, 2)),
        (3, (0, 1), 3, (1, 2)),
        (5, (0, 1, 4), 1, (1, 2)),
    ):
        ds = DigitSet(base, digits)
        system = SpacedSystem.pure_powers(k, base)
        members = list(iter_members(ds, base**2))
        rational = [(x, Fraction(1 + x % 4, 4)) for x in members]
        for weights in (WeightAssignment.unit(members), WeightAssignment.from_pairs(rational)):
            for b_level in levels:
                for s in (1, 2):
                    for h in (0, 1):
                        spec = MeanValueSpec(system, weights, s, b_level, h)
                        exact = congruence_mean_value(spec, mode="count")
                        approx = congruence_mean_value(spec, mode="grid")
                        assert approx == pytest.approx(float(exact), rel=1e-9)


def test_grid_orthogonality_identity():
    # mean over u in [1, M] of e(u*n/M) is 1 when M | n and 0 otherwise
    modulus = 27
    for n in (0, 5, 27, 54, 40):
        vals = [cmath.exp(2j * cmath.pi * u * n / modulus) for u in range(1, modulus + 1)]
        mean = sum(vals) / modulus
        expect = 1.0 if n % modulus == 0 else 0.0
        assert abs(mean - expect) < 1e-12


def test_grid_budget_refusal():
    from ellipsephic import BudgetError

    spec = MeanValueSpec(SpacedSystem.pure_powers(2, 3), W9, 1, 7, 0)
    with pytest.raises(BudgetError):
        discrete_integral(spec, 0, mode="grid")  # 3^14 grid points


def test_u_code_paths_coincide_at_h0():
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    direct = discrete_integral(spec) / 1  # single class at level 0
    assert congruence_mean_value(spec) == direct * W9.rho0_sq / W9.rho0_sq
    assert congruence_mean_value(spec) == discrete_integral(spec)


def test_holder_chain_exact():
    rng = random.Random(99)
    for b_level in (1, 2, 3, 4):
        for s in (1, 2, 3):
            for k in (1, 2):
                system = SpacedSystem.pure_powers(k, 3)
                members = list(iter_members(DS3, 3**b_level))
                for weights in (
                    WeightAssignment.unit(members),
                    random_rational_weights(members, rng),
                ):
                    level = -(-b_level // k)
                    u_b = congruence_mean_value(
                        MeanValueSpec(system, weights, s, b_level, 0)
                    )
                    u_bh = congruence_mean_value(
                        MeanValueSpec(system, weights, s, b_level, level)
                    )
                    n_classes = sum(
                        1 for v in class_norms(weights, 3, level).table.values() if v > 0
                    )
                    assert u_b <= n_classes**s * u_bh


# --- two-class mean values -----------------------------------------------------

def split_by_class(weights, modulus):
    """The support entries grouped by x mod modulus, member by member."""
    out = {}
    for x, w in weights.entries:
        out.setdefault(x % modulus, []).append((x, w))
    return out


def brute_two_class(system, weights, s, b_level, t, r, a, b, nu):
    """Oracle: scan all 2s-tuples with the class constraints."""
    base = system.base
    modulus = base**b_level
    big_r = t * r * (r + 1) // 2
    split_a = split_by_class(weights, base**a)
    split_b = split_by_class(weights, base**b)
    norms_a = {res: sum(w * w for _, w in part) for res, part in split_a.items()}
    norms_b = {res: sum(w * w for _, w in part) for res, part in split_b.items()}
    total = Fraction(0)
    for res_a, part_a in split_a.items():
        for res_b, part_b in split_b.items():
            if nu >= 1 and (res_a - res_b) % base**nu == 0:
                continue
            raw = Fraction(0)
            xs_a = [x for x, _ in part_a]
            xs_b = [x for x, _ in part_b]
            wmap = dict(weights.entries)
            for x in itertools.product(xs_a, repeat=big_r):
                for y in itertools.product(xs_a, repeat=big_r):
                    for u in itertools.product(xs_b, repeat=s - big_r):
                        for v in itertools.product(xs_b, repeat=s - big_r):
                            ok = True
                            for j in range(1, system.k + 1):
                                lhs = sum(system.phi(j, e) for e in x) - sum(
                                    system.phi(j, e) for e in y
                                )
                                rhs = sum(system.phi(j, e) for e in u) - sum(
                                    system.phi(j, e) for e in v
                                )
                                if (lhs - rhs) % modulus != 0:
                                    ok = False
                                    break
                            if ok:
                                wprod = Fraction(1)
                                for e in x + y + u + v:
                                    wprod *= wmap[e]
                                raw += wprod
            pair = raw / (norms_a[res_a] ** big_r * norms_b[res_b] ** (s - big_r))
            total += norms_a[res_a] * norms_b[res_b] * pair
    return total / weights.rho0_sq**2


def test_two_class_golden():
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    value = two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1)
    assert value == Fraction(3, 4)  # golden, hand-verified against the scan oracle
    assert value == brute_two_class(SYS31, W9, 2, 2, 2, 1, 1, 1, 1)


def test_two_class_r0_equals_u():
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    collapsed = two_class_mean_value(spec, t=2, r=0, a=1, b=1, nu=0)
    u_b1 = congruence_mean_value(MeanValueSpec(SYS31, W9, 2, 2, 1))
    assert collapsed == u_b1


def test_two_class_exclusion_empties():
    weights = WeightAssignment.unit([1, 4, 7])  # all congruent mod 3
    spec = MeanValueSpec(SYS31, weights, 2, 2, 0)
    assert two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1) == 0


def test_two_class_r_too_large():
    spec = MeanValueSpec(SYS31, W9, 1, 2, 0)
    with pytest.raises(ValidationError):
        two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1)  # R = 2 > s = 1


def test_two_class_grid_agrees():
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    for (r, a, b) in ((1, 1, 1), (0, 1, 2)):
        count = two_class_mean_value(spec, t=2, r=r, a=a, b=b, nu=1)
        grid = two_class_mean_value(spec, t=2, r=r, a=a, b=b, nu=1, mode="grid")
        assert grid == pytest.approx(float(count), rel=1e-9)
    pair = two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1, xi=1, eta=0, mode="grid")
    assert pair == pytest.approx(1.5, rel=1e-9)


def test_two_class_grid_builds_each_class_once(monkeypatch):
    # p = 5, D = {0, 1, 4}, X = 3125, k = 1: 3 classes at level 1, 9 at level 2
    weights = WeightAssignment.unit(iter_members(DS5, 3125))
    n_classes = len(class_norms(weights, 5, 1).table) + len(class_norms(weights, 5, 2).table)
    assert n_classes == 12
    calls = {"_phi_columns": 0, "_grid_class_power_mean": 0}

    def spy(name):
        build = getattr(congruence, name)

        def counted(*args):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(congruence, name, counted)

    spy("_phi_columns")
    spy("_grid_class_power_mean")
    for s in (2, 3):
        spec = MeanValueSpec(SpacedSystem.pure_powers(1, 5), weights, s, 2, 0)
        values = {}
        for mode in ("count", "grid"):
            values[mode] = two_class_mean_value(spec, t=2, r=1, a=1, b=2, nu=1, mode=mode)
            assert calls["_phi_columns"] == n_classes, mode
            assert calls["_grid_class_power_mean"] == (n_classes if mode == "grid" else 0)
            calls.update(dict.fromkeys(calls, 0))
        assert values["grid"] == pytest.approx(float(values["count"]), rel=1e-12)


def test_two_class_reads_each_level_once(monkeypatch):
    # a == b: both blocks range over one table of level-1 classes
    levels = []
    build = congruence._classes

    def counted(weights, base, level, *rest):
        levels.append(level)
        return build(weights, base, level, *rest)

    monkeypatch.setattr(congruence, "_classes", counted)
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    assert two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1) == Fraction(3, 4)
    assert levels == [1]
    levels.clear()
    assert two_class_mean_value(spec, t=2, r=1, a=1, b=1, xi=1, eta=0) == pytest.approx(1.5)
    assert levels == [1]
    levels.clear()
    two_class_mean_value(spec, t=2, r=0, a=1, b=2, nu=1)
    assert levels == [1, 2]


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2)])
@pytest.mark.parametrize("nu", [0, 1])
def test_two_class_aggregate_is_the_weighted_pair_sum(a, b, nu):
    # K = rho_0^(-4) * sum over the pairs nu keeps of rho_xi^2 rho_eta^2 K(xi, eta)
    weights = random_rational_weights(E27, random.Random(a + 2 * b + 4 * nu))
    spec = MeanValueSpec(SYS31, weights, 3, 2, 0)
    norms_a, norms_b = class_norms(weights, 3, a).table, class_norms(weights, 3, b).table
    total = Fraction(0)
    for xi, eta in itertools.product(norms_a, norms_b):
        if nu >= 1 and (xi - eta) % 3**nu == 0:
            continue
        pair = two_class_mean_value(spec, t=2, r=1, a=a, b=b, nu=nu, xi=xi, eta=eta)
        total += norms_a[xi] * norms_b[eta] * pair
    aggregate = two_class_mean_value(spec, t=2, r=1, a=a, b=b, nu=nu)
    assert aggregate == total / weights.rho0_sq**2
    assert isinstance(aggregate, Fraction)


def test_two_class_single_pair_ignores_the_exclusion():
    # xi = eta = 1 agree mod 3: the aggregate leaves the pair out, the pair form does not
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    kept = two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=0, xi=1, eta=1)
    assert kept > 0
    assert two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1, xi=1, eta=1) == kept


def test_restriction_ratio_reads_the_support_twice(monkeypatch):
    # U^B at level 0 and U^{B,H} at level H; the class count comes from the level-H table
    levels = []
    build = congruence._classes

    def counted(weights, base, level, *rest):
        levels.append(level)
        return build(weights, base, level, *rest)

    def no_norms(*args):
        raise AssertionError("class_norms called")

    monkeypatch.setattr(congruence, "_classes", counted)
    monkeypatch.setattr(congruence, "class_norms", no_norms)
    rr = restriction_ratio(MeanValueSpec(SYS31, WeightAssignment.unit(E27), 2, 3, 0), DS3)
    assert sorted(levels) == [0, 3]
    assert rr.n_classes == 8


@pytest.mark.parametrize("ds, bound", [(DS5, 3000), (DigitSet(3, (1, 2)), 700)])
def test_member_set_reads_as_unit_weights(monkeypatch, ds, bound):
    """Every mean value on a MemberSet equals, exactly, the same call on the
    unit weights of its listed members, and lists none of them itself."""
    from ellipsephic import digits

    members = MemberSet(ds, bound)
    unit = WeightAssignment.unit(list(members))

    def unlisted(*args):
        raise AssertionError("members listed")

    monkeypatch.setattr(digits, "iter_members", unlisted)
    system = SpacedSystem.pure_powers(2, ds.base)
    calls = [
        *(lambda w, h=h: congruence_mean_value(MeanValueSpec(system, w, 2, 2, h))
          for h in (0, 1, 2)),
        lambda w: two_class_mean_value(MeanValueSpec(system, w, 3, 2, 0), 2, 1, 1, 2, nu=1),
        lambda w: two_class_mean_value(MeanValueSpec(system, w, 3, 2, 0), 2, 1, 1, 2,
                                       xi=1, eta=ds.digits[-1]),
        lambda w: restriction_ratio(MeanValueSpec(system, w, 2, 3, 0), ds),
        lambda w: class_norms(w, ds.base, 2),
    ]
    for call in calls:
        got, want = call(members), call(unit)
        assert got == want and type(got) is type(want)


def test_grid_class_vector_freed_before_the_next(monkeypatch):
    # one block: only the current class's grid vector may be alive
    weights = WeightAssignment.unit(iter_members(DS5, 625))
    spec = MeanValueSpec(SpacedSystem.pure_powers(2, 5), weights, 2, 2, 1)
    built = []
    build = congruence._grid_class_power_mean

    def tracked(*args):
        assert all(ref() is None for ref in built)
        vector = build(*args)
        built.append(weakref.ref(vector))
        return vector

    monkeypatch.setattr(congruence, "_grid_class_power_mean", tracked)
    grid = congruence_mean_value(spec, mode="grid")
    assert len(built) == 3
    assert grid == pytest.approx(float(congruence_mean_value(spec)), rel=1e-12)


def grid_abs2(system, weights, modulus, level, residue):
    """|f_level(u/modulus, residue)|**2 at every GridPoint of (Z/modulus)^k, in
    one fixed order, each from restricted_exp_sum's per-member loop."""
    return [
        abs(restricted_exp_sum(system, weights, GridPoint(u, modulus), level, residue)) ** 2
        for u in itertools.product(range(1, modulus + 1), repeat=system.k)
    ]


def rho_sq(weights, base, level, residue):
    return sum(w * w for x, w in weights.entries if (x - residue) % base**level == 0)


@pytest.mark.parametrize(
    "base, digits, k, levels",
    [(3, (0, 1), 1, (1, 2, 3)), (3, (0, 1), 2, (1, 2)), (3, (0, 1), 3, (1, 2)),
     (7, (0, 1, 3), 1, (1, 2)), (7, (0, 1, 3), 2, (1, 2)), (7, (0, 1, 3), 3, (1,))],
)
def test_grid_mode_matches_a_mean_over_every_grid_point(base, digits, k, levels):
    # rational weights on the members up to base**2 (8 in each digit set)
    members = list(iter_members(DigitSet(base, digits), base**2))
    weights = random_rational_weights(members, random.Random(base * 10 + k))
    system = SpacedSystem.pure_powers(k, base)
    residues = {h: sorted({x % base**h for x, _ in weights.entries}) for h in (0, 1)}
    rho0_sq = rho_sq(weights, base, 0, 0)
    for b_level in levels:
        modulus = base**b_level
        abs2 = {(h, xi): grid_abs2(system, weights, modulus, h, xi)
                for h in (0, 1) for xi in residues[h]}

        def mean(*blocks):  # grid mean of prod |f_h(., xi)|**(2n) over (h, xi, n)
            return math.fsum(
                math.prod(abs2[h, xi][i] ** n for h, xi, n in blocks) for i in range(modulus**k)
            ) / modulus**k

        for s in (1, 3):
            for h in (0, 1):
                spec = MeanValueSpec(system, weights, s, b_level, h)
                want = sum(rho_sq(weights, base, h, xi) * mean((h, xi, s)) for xi in residues[h])
                got = congruence_mean_value(spec, mode="grid")
                assert got == pytest.approx(float(want / rho0_sq), rel=1e-12)
        spec = MeanValueSpec(system, weights, 3, b_level, 0)
        for r, nu in ((1, 1), (0, 0)):  # R = 2 pairs of class xi, then 0
            big_r = r * (r + 1)
            want = sum(
                rho_sq(weights, base, 1, xi) * rho_sq(weights, base, 1, eta)
                * mean((1, xi, big_r), (1, eta, 3 - big_r))
                for xi in residues[1] for eta in residues[1]
                if nu == 0 or (xi - eta) % base**nu
            )
            got = two_class_mean_value(spec, t=2, r=r, a=1, b=1, nu=nu, mode="grid")
            assert got == pytest.approx(float(want / rho0_sq**2), rel=1e-12)
        xi, eta = residues[1][0], residues[1][-1]
        pair = two_class_mean_value(spec, t=2, r=1, a=1, b=1, xi=xi, eta=eta, mode="grid")
        assert pair == pytest.approx(mean((1, xi, 2), (1, eta, 1)), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_grid_block_holds_half_the_grid(k):
    # the last axis stops at modulus // 2; u -> -u maps the rest onto it
    weights = WeightAssignment.unit(iter_members(DS5, 125))
    system = SpacedSystem.pure_powers(k, 5)
    cls = congruence._classes(weights, 5, 0, 125)[0]
    factor = congruence._class_factor(system, cls)
    block = congruence._grid_class_power_mean(factor, cls.rho_sq, 125, 1, 1)
    assert block.shape == (125,) * (k - 1) + (63,)


def test_unknown_mode_rejected():
    weights = WeightAssignment.unit(iter_members(DS5, 125))
    spec = MeanValueSpec(SpacedSystem.pure_powers(2, 5), weights, 2, 2, 0)
    with pytest.raises(ValidationError, match="unknown mode"):
        two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1, mode="bogus")
    with pytest.raises(ValidationError, match="unknown mode"):
        congruence_mean_value(spec, mode="bogus")
    # an empty class is rejected too, before its value 0 is returned
    empty = MeanValueSpec(SYS31, W9, 2, 2, 1)
    assert discrete_integral(empty, 2) == 0
    with pytest.raises(ValidationError, match="unknown mode"):
        discrete_integral(empty, 2, mode="bogus")
    with pytest.raises(ValidationError, match="unknown mode"):
        two_class_mean_value(empty, t=2, r=1, a=1, b=1, xi=2, eta=0, mode="bogus")


def test_two_class_single_pair():
    spec = MeanValueSpec(SYS31, W9, 2, 2, 0)
    value = two_class_mean_value(spec, t=2, r=1, a=1, b=1, nu=1, xi=1, eta=0)
    assert value == Fraction(3, 2)


# --- normalisation -------------------------------------------------------------

def test_normalize_identity_cases():
    assert normalized_two_class(Fraction(5, 2), 0, 1, 2, Fraction(5, 2), 4) == 1.0
    assert normalized_two_class(8, 1, 1, 2, 2, 2) == pytest.approx(2.0)
    # exponent arithmetic: k=3 r=1 and r=2 give 1, k=4 r=2 gives 3/4
    assert normalized_two_class(16, 0, 1, 3, 2, 3) == pytest.approx(8.0)
    assert normalized_two_class(16, 0, 2, 3, 2, 3) == pytest.approx(8.0)
    assert normalized_two_class(16, 0, 2, 4, 2, 3) == pytest.approx(8.0**0.75)


def test_normalize_validation():
    with pytest.raises(ValidationError):
        normalized_two_class(1, 0, 1, 1, 1, 2)  # k = 1 undefined
    with pytest.raises(ValidationError):
        normalized_two_class(1, 0, 2, 2, 1, 2)  # r out of range
    with pytest.raises(ValidationError):
        normalized_two_class(1, 0, 1, 2, 0, 2)  # U must be positive


# --- restriction ratio ----------------------------------------------------------

def test_ratio_single_class_is_zero():
    members = [x for x in iter_members(DS3, 81) if x % 3 == 1]
    weights = WeightAssignment.unit(members)
    spec = MeanValueSpec(SYS31, weights, 2, 1, 0)
    assert restriction_ratio(spec, DS3).ratio == 0.0


def test_ratio_golden_series():
    # Unit weights on E(3^B), phi(z)=z, s=2: U^B = (3/2)^B and U^{B,B} = 1, so the
    # ratio is log2(3/2) at every B.
    values = []
    for b_level in (2, 3, 4):
        members = list(iter_members(DS3, 3**b_level))
        weights = WeightAssignment.unit(members)
        spec = MeanValueSpec(SYS31, weights, 2, b_level, 0)
        rr = restriction_ratio(spec, DS3)
        assert rr.u_b == Fraction(3, 2) ** b_level
        assert rr.u_bh == 1
        values.append(rr.ratio)
    for ratio in values:
        assert ratio == pytest.approx(math.log2(1.5), abs=1e-12)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-9


def test_ratio_grows_past_critical_s():
    # s = 4 exceeds the critical t*k(k+1)/2 = 2, so the restriction gets costly
    members = list(iter_members(DS3, 81))
    weights = WeightAssignment.unit(members)
    r2 = restriction_ratio(MeanValueSpec(SYS31, weights, 2, 4, 0), DS3)
    r4 = restriction_ratio(MeanValueSpec(SYS31, weights, 4, 4, 0), DS3)
    assert r4.u_b == Fraction(212139, 256)  # golden
    assert r4.ratio > r2.ratio


def test_ratio_bounded_by_s():
    rng = random.Random(13)
    for s in (1, 2):
        for b_level in (1, 2, 3):
            members = list(iter_members(DS3, 3**b_level))
            weights = random_rational_weights(members, rng)
            spec = MeanValueSpec(SYS31, weights, s, b_level, 0)
            rr = restriction_ratio(spec, DS3)
            assert rr.ratio <= s + rr.eps_hat + 1e-9


def test_ratio_validation():
    weights = WeightAssignment.unit([2])  # q = #E(7) for digits {0,2} is... base 7 digits {0,2}: E(7) = {2}
    ds = DigitSet(7, (0, 2))
    spec = MeanValueSpec(SpacedSystem.pure_powers(1, 7), weights, 1, 1, 0)
    with pytest.raises(ValidationError, match="q ="):
        restriction_ratio(spec, ds)


# --- refinement check ------------------------------------------------------------

def test_refinement_equal_levels_margin_one():
    chk = class_refinement_check(SYS31, W9, 1, 1, 2, 1, 2, samples=20)
    assert chk.passed
    assert chk.worst_margin == pytest.approx(1.0)


def test_refinement_w1_alpha0():
    point = GridPoint((9,), 9)  # alpha = 1: all phases trivial
    chk = class_refinement_check(SYS31, W9, 1, 2, 1, 1, 2, points=[point])
    assert chk.passed


def test_refinement_random_sample():
    members = list(iter_members(DS3, 81))
    weights = WeightAssignment.unit(members)
    chk = class_refinement_check(
        SYS31, weights, 1, 2, 2, 1, 3, samples=100, rng=random.Random(3)
    )
    assert chk.passed
    assert chk.worst_margin >= 1.0 - 1e-9


def test_refinement_validation():
    with pytest.raises(ValidationError):
        class_refinement_check(SYS31, W9, 2, 1, 1, 0, 2)
