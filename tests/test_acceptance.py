"""Acceptance suite.

One test per criterion; each prints a single `ACCEPTANCE <n> <PASS|FAIL>` line
(visible with `pytest -s` and in failure output) before asserting, so the
status of every criterion is reported even when one fails.

Criteria 8 and 9 check the growth the paper describes for square digits
against references the tests derive on their own, without the library's
table kernel: the squares profile must equal Jacobi's two-squares formula at
every n (so it grows like n^o(1)), and the fitted mean-value exponents must lie
near the limits log(lambda_s) / log|D| given by the Perron root lambda_s of
the base-5 carry transfer matrix.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ellipsephic import (
    DigitSet,
    DigitSource,
    MeanValueSpec,
    SpacedSystem,
    WeightAssignment,
    brute_force_count,
    carry_decomposition,
    cauchy_bound_check,
    class_norms,
    congruence_mean_value,
    diagonal_count,
    et_star_report,
    fit_exponent,
    integer_root,
    iter_members,
    lifting_chain,
    mitm_count,
    rep_profile,
    representation_table,
    restriction_ratio,
    sum_congruence_count,
    unit_tuple_weights,
)

DS3 = DigitSet(3, (0, 1))
DS5 = DigitSet(5, (0, 1, 4))


def report(number: int, ok: bool, limit: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s / limit {limit:g}s) {detail}"
    )


def random_rational_weights(members, rng, denominator=16):
    pairs = {}
    while not pairs:
        pairs = {
            m: Fraction(rng.randint(1, denominator), denominator)
            for m in members
            if rng.random() < 0.9
        }
    return WeightAssignment.from_pairs(pairs)


def test_c01_oracle_equivalence():
    """mitm_count equals brute_force_count over the full small grid."""
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for base, digits in ((3, (0, 1)), (5, (0, 1, 4))):
        ds = DigitSet(base, digits)
        for s in (1, 2, 3):
            # X rises to 300 where the brute-force budget (Y^(2s) <= 1e9) allows;
            # at s = 3 the largest admissible enumeration is X = 121 (Y = 31)
            bounds = (60, 300) if s <= 2 else (60, 121)
            for k in (1, 2):
                system = SpacedSystem.pure_powers(k, base)
                for bound in bounds:
                    members = list(iter_members(ds, bound))
                    b = brute_force_count(system, s, members).count
                    m = mitm_count(system, s, members).count
                    checked += 1
                    if b != m:
                        mismatches.append((base, s, k, bound, b, m))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60
    report(1, ok, 60, elapsed, f"{checked} grid cells, {len(mismatches)} mismatches")
    assert not mismatches
    assert elapsed < 60


def test_c02_golden_diagonal_case():
    t0 = time.perf_counter()
    members = list(iter_members(DS3, 9))
    c1 = mitm_count(SpacedSystem.pure_powers(1, 3), 2, members).count
    c2 = mitm_count(SpacedSystem.pure_powers(2, 3), 2, members).count
    diag = diagonal_count(2, 4)
    elapsed = time.perf_counter() - t0
    ok = c1 == c2 == diag == 28 and elapsed < 1
    report(2, ok, 1, elapsed, f"I_21(9)={c1} I_22(9)={c2} diagonal={diag}")
    assert c1 == 28 and c2 == 28 and diag == 28
    assert elapsed < 1


def test_c03_partition_identities():
    t0 = time.perf_counter()
    rng = random.Random(314159)
    failures = 0
    for base, digits in ((3, (0, 1)), (5, (0, 1, 4))):
        ds = DigitSet(base, digits)
        members = list(iter_members(ds, base**4))
        for _ in range(20):
            weights = random_rational_weights(members, rng)
            for a in (1, 2, 3, 4):
                norms = class_norms(weights, base, a)
                if sum(norms.table.values()) != weights.rho0_sq:
                    failures += 1
                for b in range(a, 5):
                    fine = class_norms(weights, base, b)
                    for residue, rho_sq in norms.table.items():
                        refined = sum(
                            v
                            for res, v in fine.table.items()
                            if res % base**a == residue
                        )
                        if refined != rho_sq:
                            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10
    report(3, ok, 10, elapsed, f"2x20 weight draws, {failures} identity failures")
    assert failures == 0
    assert elapsed < 10


def test_c04_orthogonality_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    grid = [
        (3, (0, 1), 1, (1, 2, 3, 4)),
        (3, (0, 1), 2, (1, 2, 3)),
        (5, (0, 1, 4), 1, (1, 2, 3)),
        (5, (0, 1, 4), 2, (1, 2)),
    ]
    for base, digits, k, levels in grid:
        ds = DigitSet(base, digits)
        system = SpacedSystem.pure_powers(k, base)
        members = list(iter_members(ds, base**2))
        weights = WeightAssignment.unit(members)
        for b_level in levels:
            if base ** (k * b_level) > 10**5:
                continue
            for s in (1, 2):
                for h in (0, 1):
                    spec = MeanValueSpec(system, weights, s, b_level, h)
                    exact = float(congruence_mean_value(spec, mode="count"))
                    approx = congruence_mean_value(spec, mode="grid")
                    rel = abs(approx - exact) / exact
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120
    report(4, ok, 120, elapsed, f"{checked} specs, worst relative gap {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 120


def test_c05_exact_holder_chain():
    t0 = time.perf_counter()
    rng = random.Random(2718)
    violations = 0
    checked = 0
    for b_level in (1, 2, 3, 4):
        members = list(iter_members(DS3, 3**b_level))
        for s in (1, 2, 3):
            for k in (1, 2):
                system = SpacedSystem.pure_powers(k, 3)
                level = -(-b_level // k)
                for weights in (
                    WeightAssignment.unit(members),
                    random_rational_weights(members, rng),
                ):
                    u_b = congruence_mean_value(
                        MeanValueSpec(system, weights, s, b_level, 0)
                    )
                    u_bh = congruence_mean_value(
                        MeanValueSpec(system, weights, s, b_level, level)
                    )
                    n_classes = sum(
                        1
                        for v in class_norms(weights, 3, level).table.values()
                        if v > 0
                    )
                    checked += 1
                    if u_b > n_classes**s * u_bh:
                        violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60
    report(5, ok, 60, elapsed, f"{checked} specs, {violations} Hoelder violations")
    assert violations == 0
    assert elapsed < 60


def test_c06_carry_decomposition_identity():
    t0 = time.perf_counter()
    rng = random.Random(61803)
    failures = 0
    for ds in (DS3, DigitSet(3, (0, 1, 2), strict=False)):
        members = list(iter_members(ds, 27))
        tuples = list(itertools.product(members, repeat=2))
        unit = unit_tuple_weights(members, 2)
        rational = {
            tup: Fraction(rng.randint(0, 8), 8) for tup in tuples
        }
        for depth in (1, 2, 3):
            for weights in (unit, rational):
                dec = carry_decomposition(3, 2, depth, weights)
                if dec.total != sum_congruence_count(3, 2, depth, weights):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30
    report(6, ok, 30, elapsed, f"d<=3, unit+rational weights, {failures} mismatches")
    assert failures == 0
    assert elapsed < 30


def test_c07_lifting_chain():
    t0 = time.perf_counter()
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])  # phi(z) = z + 3 z^2
    members = list(iter_members(DS3, 27))
    chain = lifting_chain(system, 2, members, 3)
    elapsed = time.perf_counter() - t0
    ok = chain.j_star == 3 and all(st.verified for st in chain.steps) and elapsed < 30
    report(
        7,
        ok,
        30,
        elapsed,
        f"j*={chain.j_star}, steps {[(st.j, st.c_j, st.pairs_checked) for st in chain.steps]}",
    )
    assert chain.j_star == 3
    assert all(st.verified for st in chain.steps)
    assert elapsed < 30


def ordered_two_square_counts(horizon: int) -> np.ndarray:
    """#{(a, b) : a, b >= 0, a^2 + b^2 = n} for 0 <= n <= horizon, by Jacobi.

    Jacobi's r_2(n) = 4 (d_1(n) - d_3(n)) counts signed pairs, where d_i(n) is
    the number of divisors of n congruent to i mod 4.  Folding the signs leaves
    d_1(n) - d_3(n) + [n is a square] pairs of non-negative integers; n = 0 has
    no divisors in the sieve below and is the square 0^2, which gives 1.
    """
    counts = np.zeros(horizon + 1, dtype=np.int64)
    for d in range(1, horizon + 1, 2):
        counts[d::d] += 1 if d % 4 == 1 else -1
    counts[np.arange(math.isqrt(horizon) + 1) ** 2] += 1
    return counts


def test_c08_landau_desk_check():
    horizon = 10**6
    t0 = time.perf_counter()
    profile = rep_profile(DigitSource.squares(), 2, horizon)
    rpt = et_star_report(profile)
    elapsed = time.perf_counter() - t0
    # Golden values, frozen from an independent pair-sieve (np.add.outer + bincount):
    # max ordered representation count 32, window slope 0.2355961...
    golden_ok = rpt.max_count == 32 and abs(rpt.slope - 0.2355961372) < 1e-6
    # Few representations at finite size: every count equals Jacobi's formula,
    # hence is at most d(n) + 1 = n^o(1).  The window slope itself only falls
    # slowly (the divisor envelope fits ~0.25 at 1e6 and ~0.15 near 1e50).
    reference = ordered_two_square_counts(horizon)
    mismatches = int(np.count_nonzero(np.array(profile.counts) != reference))
    criterion_ok = mismatches == 0
    ok = golden_ok and criterion_ok and elapsed < 60
    report(
        8,
        ok,
        60,
        elapsed,
        f"max={rpt.max_count} slope={rpt.slope:.4f}; Jacobi d1-d3+[square] "
        f"mismatches {mismatches} of {horizon + 1} (criterion: 0)",
    )
    assert golden_ok, (rpt.max_count, rpt.slope)
    assert elapsed < 60
    assert criterion_ok, f"{mismatches} counts differ from d1(n) - d3(n) + [n square]"


# Golden count series for criterion 9, frozen from an independent truncated
# convolution oracle (and equal to brute force where the budget allows).
GOLDEN_SERIES = {
    1: [27, 81, 243, 729],
    2: [4775, 85609, 1559199, 28584209],
    3: [1830465, 269826669, 40343833821, 6052733316465],
}


def carry_perron_root(base: int, digits: tuple[int, ...], s: int) -> float:
    """Per-digit growth rate of #{x_1+..+x_s = y_1+..+y_s} over digit-restricted x, y.

    Adding both sides digit by digit, the carry goes from c to c' when
    sum(u) - sum(v) + c = base * c' for digit tuples u, v in digits^s, and
    stays within |c| <= s * max(digits) / (base - 1).  Over L digits the count
    grows like the Perron root of this transfer matrix to the power L.
    """
    sums = [sum(u) for u in itertools.product(digits, repeat=s)]
    top = s * max(digits) // (base - 1)
    matrix = np.zeros((2 * top + 1, 2 * top + 1))
    for c in range(-top, top + 1):
        for a in sums:
            for b in sums:
                carry, rest = divmod(a - b + c, base)
                if rest == 0:
                    matrix[c + top, carry + top] += 1
    return float(max(abs(np.linalg.eigvals(matrix))))


def test_c09_exponent_fit():
    t0 = time.perf_counter()
    system = SpacedSystem.pure_powers(1, 5)
    bounds = [5**a for a in (3, 4, 5, 6)]
    slopes = {}
    series_ok = True
    for s in (1, 2, 3):
        points = []
        for bound in bounds:
            members = list(iter_members(DS5, bound))
            res = mitm_count(system, s, members)
            points.append((bound, res.y, res.count))
        if [p[2] for p in points] != GOLDEN_SERIES[s]:
            series_ok = False
        slopes[s] = fit_exponent(points).slope
    elapsed = time.perf_counter() - t0
    # With X = 5^L the count grows like lambda_s^L and Y like 3^L, so the
    # fitted slope tends to log(lambda_s) / log 3 (1, 2.651, 4.562).
    limits = {
        s: math.log(carry_perron_root(5, (0, 1, 4), s)) / math.log(3) for s in (1, 2, 3)
    }
    half_width = {1: 0.5, 2: 0.3, 3: 0.5}
    in_window = {s: abs(slopes[s] - limits[s]) <= half_width[s] for s in (1, 2, 3)}
    ok = series_ok and all(in_window.values()) and elapsed < 600
    report(
        9,
        ok,
        600,
        elapsed,
        "slopes s=1:{:.3f} s=2:{:.3f} s=3:{:.3f} (carry-matrix limits "
        "{:.3f}+-0.5, {:.3f}+-0.3, {:.3f}+-0.5)".format(
            slopes[1], slopes[2], slopes[3], limits[1], limits[2], limits[3]
        ),
    )
    assert series_ok, "count series deviates from the frozen oracle values"
    assert elapsed < 600
    for s in (1, 2, 3):
        assert in_window[s], (
            f"s={s} slope {slopes[s]:.4f} outside {limits[s]:.4f} +- {half_width[s]}"
        )


def test_c10_restriction_ratio_sanity():
    t0 = time.perf_counter()
    sys31 = SpacedSystem.pure_powers(1, 3)
    # single-class weights give ratio exactly zero
    single = WeightAssignment.unit(
        [x for x in iter_members(DS3, 81) if x % 9 == 1]
    )
    zero_ratio = restriction_ratio(
        MeanValueSpec(sys31, single, 2, 2, 0), DS3
    ).ratio
    # golden ratio series, non-increasing in B; the bound ratio <= s + eps is
    # asserted inside restriction_ratio itself for every computed spec
    rng = random.Random(555)
    ratios = []
    bound_ok = True
    for b_level in (2, 3, 4):
        members = list(iter_members(DS3, 3**b_level))
        weights = WeightAssignment.unit(members)
        rr = restriction_ratio(MeanValueSpec(sys31, weights, 2, b_level, 0), DS3)
        ratios.append(rr.ratio)
        if rr.ratio > 2 + rr.eps_hat + 1e-9:
            bound_ok = False
        extra = restriction_ratio(
            MeanValueSpec(
                sys31, random_rational_weights(members, rng), 2, b_level, 0
            ),
            DS3,
        )
        if extra.ratio > 2 + extra.eps_hat + 1e-9:
            bound_ok = False
    non_increasing = all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    # golden: U^B = (3/2)^B with U^{B,B} = 1 makes every ratio log2(3/2)
    golden_ok = all(abs(r - math.log2(1.5)) < 1e-12 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = zero_ratio == 0.0 and bound_ok and non_increasing and golden_ok and elapsed < 300
    report(
        10,
        ok,
        300,
        elapsed,
        f"single-class={zero_ratio} goldens={[round(r, 6) for r in ratios]}",
    )
    assert zero_ratio == 0.0
    assert bound_ok
    assert non_increasing
    assert golden_ok
    assert elapsed < 300


def test_c11_waring_reconciliation():
    t0 = time.perf_counter()
    bound = 5**4
    table = representation_table(DS5, 2, 2, bound)
    check = cauchy_bound_check(table)
    system = SpacedSystem.single_power(2, 5)
    members = list(iter_members(DS5, integer_root(bound, 2)))
    mv_count = mitm_count(system, 2, members, key_cap=bound).count
    elapsed = time.perf_counter() - t0
    ok = table.sum_squares() == mv_count and check.holds and elapsed < 60
    report(
        11,
        ok,
        60,
        elapsed,
        f"sumR2={table.sum_squares()} capped-mitm={mv_count} cauchy {check.lhs}<={check.rhs}",
    )
    assert table.sum_squares() == mv_count
    assert check.holds
    assert elapsed < 60
