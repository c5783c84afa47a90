"""Carry-aware decomposition of digit-sum congruences and modulus lifting.

When t base-p numbers are added digit by digit, the carries propagated between
positions form an integer vector with entries in [1-t, t-1].  Solutions of
sum x_i = sum y_i (mod p^d) decompose exactly by their carry vector, and the
digit pairs at each position land in the difference set of tuples with a
prescribed digit sum.  The lifting chain raises the modulus of the linear
congruence sum x_i = sum y_i from p^c to the full p^B in steps c_j = min(jc, B)
for systems phi(z) = z + p^c psi(z); it counts each step's solution pairs as
the sum of squares of one power-sum table, without listing a pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from ._tables import Shape, check_pairs, power_sum_table, price
from .digits import DigitSet, MemberSet
from .errors import BudgetError, InvariantError, ValidationError
from .meanvalue import Budget, DEFAULT_BUDGET, SpacedSystem

__all__ = [
    "CarrySets",
    "CarryTuple",
    "carry_sets",
    "carry_tuple_for_pair",
    "unit_tuple_weights",
    "sum_congruence_count",
    "Decomposition",
    "carry_decomposition",
    "LiftStep",
    "LiftingChain",
    "lifting_chain",
]


@dataclass(frozen=True)
class CarryTuple:
    """A carry vector of the digitwise addition of t numbers, lowest digit first."""

    t: int
    base: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        for v in vals:
            if not 1 - self.t <= v <= self.t - 1:
                raise ValidationError(f"carry {v} outside [{1 - self.t}, {self.t - 1}]")
        object.__setattr__(self, "values", vals)

    @property
    def adjusted(self) -> tuple[int, ...]:
        """The digit-sum differences lambda_r * p - lambda_(r-1) per position."""
        prev = 0
        out = []
        for v in self.values:
            out.append(v * self.base - prev)
            prev = v
        return tuple(out)


@dataclass(frozen=True)
class CarrySets:
    """Digit tuples with a prescribed sum, and how many pairs differ by each sum.

    sums[h] lists the t-tuples over the digit set with digit sum h; diffs[h]
    is the number of pairs of t-tuples whose digit sums differ by h, by the
    convolution identity diffs[h] = sum_m #sums[m] * #sums[m - h].
    """

    base: int
    t: int
    sums: dict[int, tuple[tuple[int, ...], ...]]
    diffs: dict[int, int]

    def sum_size(self, h: int) -> int:
        return len(self.sums.get(h, ()))

    def diff_size(self, h: int) -> int:
        return self.diffs.get(h, 0)


def carry_sets(digit_set: DigitSet, t: int) -> CarrySets:
    """Enumerate the digit-sum tuple sets and count the difference sets for all h."""
    if t < 2:
        raise ValidationError("t must be >= 2")
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for tup in itertools.product(digit_set.digits, repeat=t):
        by_sum.setdefault(sum(tup), []).append(tup)
    diffs: dict[int, int] = {}
    for m1, tups1 in by_sum.items():
        for m2, tups2 in by_sum.items():
            diffs[m1 - m2] = diffs.get(m1 - m2, 0) + len(tups1) * len(tups2)
    return CarrySets(digit_set.base, t, {h: tuple(v) for h, v in by_sum.items()}, diffs)


def _prefix_sums(tup: Sequence[int], powers: Sequence[int]) -> tuple[int, ...]:
    """P_r = sum_i (x_i mod base**(r+1)) for each power base**(r+1) in ``powers``."""
    return tuple(sum(v % q for v in tup) for q in powers)


def _carries(
    px: Sequence[int], py: Sequence[int], powers: Sequence[int]
) -> tuple[int, ...] | None:
    """Carry vector of a pair from its prefix sums, or None if it is no solution.

    The pair solves sum x = sum y (mod base**d) iff P_(d-1)(x) = P_(d-1)(y)
    modulo base**d; the carry out of position r is then
    lambda_r = (P_r(x) - P_r(y)) / base**(r+1), an exact division.
    """
    if px and (px[-1] - py[-1]) % powers[-1] != 0:
        return None
    return tuple((a - b) // q for a, b, q in zip(px, py, powers))


def carry_tuple_for_pair(
    x: Sequence[int], y: Sequence[int], base: int, depth: int
) -> CarryTuple:
    """Carry vector of the solution pair (x, y) of sum x = sum y (mod base**depth).

    The carries of the digitwise addition are read off the prefix sums of
    the two tuples, never found by search.  Raises if the pair is not
    actually a solution.
    """
    if len(x) != len(y):
        raise ValidationError("x and y must have the same length")
    powers = [base ** (r + 1) for r in range(depth)]
    lam = _carries(_prefix_sums(x, powers), _prefix_sums(y, powers), powers)
    if lam is None:
        raise InvariantError(
            f"pair {tuple(x)}, {tuple(y)} is not a solution modulo {base}**{depth}"
        )
    return CarryTuple(len(x), base, lam)


def unit_tuple_weights(members: Sequence[int], t: int) -> dict[tuple[int, ...], Fraction]:
    """Unit weights on every t-tuple over the member list."""
    return {tup: Fraction(1) for tup in itertools.product(sorted(members), repeat=t)}


def sum_congruence_count(
    base: int,
    t: int,
    depth: int,
    weights: Mapping[tuple[int, ...], object],
    *,
    mode: str = "count",
):
    """Weighted count of tuple pairs with equal component sums modulo base**depth.

    Counting mode groups tuples by their sum residue and returns the sum of
    squared class masses: exact for rational weights, real and nonnegative by
    construction for complex ones.  Grid mode averages the squared modulus of
    the associated exponential sum over the base**depth grid; the two agree to
    1e-9 relative (exactly, in rational mode, against an exact rational
    regrouping).
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if t < 2:
        raise ValidationError("t must be >= 2")
    modulus = base**depth
    if mode == "count":
        masses: dict[int, object] = {}
        for tup, w in weights.items():
            if len(tup) != t:
                raise ValidationError(f"tuple {tup} does not have length {t}")
            res = sum(tup) % modulus
            masses[res] = masses.get(res, 0) + w
        total = 0
        for mass in masses.values():
            if isinstance(mass, complex):
                total = total + (mass.real**2 + mass.imag**2)
            else:
                total = total + mass * mass
        return total
    if mode == "grid":
        # direct evaluation per tuple, independent of the residue regrouping above
        roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
        tuple_sums = np.array([sum(tup) % modulus for tup in weights], dtype=np.int64)
        wvec = np.array([complex(w) for w in weights.values()])
        out = np.empty(modulus)
        for u in range(1, modulus + 1):
            val = roots[(u * tuple_sums) % modulus] @ wvec
            out[u - 1] = val.real**2 + val.imag**2
        return float(np.mean(out))
    raise ValidationError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Decomposition:
    """Per-carry-vector contributions whose total is the digit-sum count."""

    base: int
    t: int
    depth: int
    table: dict[tuple[int, ...], object]
    total: object


def carry_decomposition(
    base: int,
    t: int,
    depth: int,
    weights: Mapping[tuple[int, ...], object],
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> Decomposition:
    """Classify every solution pair by its carry vector.

    Each pair (x, y) with sum x = sum y (mod base**depth) is assigned the
    unique carry vector of the digitwise addition; contributions w_x *
    conj(w_y) are accumulated per vector and sum exactly to the congruence
    count.  The carry vector depends on a pair only through the two tuples'
    prefix sums, so the weights are summed per prefix-sum class first and
    the classes are paired, not the tuples, and priced once they are known.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if (2 * t - 1) ** depth > budget.max_tuples:
        raise BudgetError("carry table would exceed the tuple budget")
    powers = [base ** (r + 1) for r in range(depth)]
    masses: dict[tuple[int, ...], object] = {}
    for tup, w in weights.items():
        if len(tup) != t:
            raise ValidationError(f"tuple {tup} does not have length {t}")
        px = _prefix_sums(tup, powers)
        masses[px] = masses.get(px, 0) + w
    check_pairs(len(masses), budget.max_tuples)
    table: dict[tuple[int, ...], object] = {}
    for px, wx in masses.items():
        for py, wy in masses.items():
            lam = _carries(px, py, powers)
            if lam is None:
                continue
            contrib = wx * (wy.conjugate() if isinstance(wy, complex) else wy)
            table[lam] = table.get(lam, 0) + contrib
    total = 0
    for v in table.values():
        total = total + v
    if isinstance(total, complex):
        if abs(total.imag) > 1e-12 * max(1.0, abs(total)):
            raise InvariantError(f"decomposition total has imaginary part {total.imag}")
        total = total.real
    return Decomposition(base, t, depth, table, total)


@dataclass(frozen=True)
class LiftStep:
    """Step j of the chain: its pairs, counted by the kernel, all satisfy the check."""

    j: int
    c_j: int
    pairs_checked: int
    verified: bool


@dataclass(frozen=True)
class LiftingChain:
    steps: tuple[LiftStep, ...]
    j_star: int


def lifting_chain(
    system: SpacedSystem,
    t: int,
    members: Sequence[int] | MemberSet,
    modulus_level: int,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> LiftingChain:
    """Verify the modulus-raising chain over the t-tuples of ``members``.

    Requires phi(z) = z + base**c * psi(z) with finite spacing c >= 1.  With
    q_j = base**c_j and c_j = min(j*c, B), step j checks sum x = sum y
    (mod q_j) on the tuple pairs with sum phi(x) = sum phi(y) (mod base**B)
    that agree componentwise modulo q_(j-1).  The pairs are counted, never
    listed: step j is one power-sum table modulo base**B whose factor i keys x
    by phi(x), by x mod q_(j-1) in slot i of t slots (0 in the others), and by
    the check column (x mod q_j) * base**(B - c_j), which sums to
    (sum x mod q_j) * base**(B - c_j).  ``pairs_checked`` is the table's sum
    of squared masses; the kernel refuses a step over budget, and every step
    of a ``MemberSet`` before a member is listed: Y entries per factor, phi and
    the check column below base**B, slot i at most X.  Two keys that differ
    only in the check column break the implication, a theorem under the
    spacing, so that is an InvariantError: the arithmetic is wrong, not the maths.
    """
    if system.k != 1:
        raise ValidationError("lifting chain applies to single-equation systems")
    if system.spacing is None or system.spacing < 1:
        raise ValidationError("lifting chain needs finite spacing c >= 1")
    if t < 1 or modulus_level < 1:
        raise ValidationError(f"lifting chain needs t, B >= 1, got t={t}, B={modulus_level}")
    base, c, big_b = system.base, system.spacing, modulus_level
    q = base**big_b
    if isinstance(members, MemberSet):
        wide, low, y = (0, q - 1), (0, min(members.bound, q - 1)), members.y
        price([Shape(y, (wide, *[low if n == i else (0, 0) for n in range(t)], wide), y)
               for i in range(t)], modulus=q, budget=budget)
    mem = sorted(set(members))
    phi, zeros = [system.phi(1, x) for x in mem], [0] * len(mem)
    j_star = max(1, -(-big_b // c))  # first j with min(j*c, B) = B
    steps = []
    for j in range(1, j_star + 1):
        c_j = min(j * c, big_b)
        slot = [x % base ** min((j - 1) * c, big_b) for x in mem]
        check = [x % base**c_j * base ** (big_b - c_j) for x in mem]
        slots = [[slot if n == i else zeros for n in range(t)] for i in range(t)]
        table = power_sum_table(
            [([phi, *cols, check], None) for cols in slots],
            modulus=q,
            budget=budget,
        )
        prefix = table.keys[:, :-1]  # sorted: equal prefixes are neighbours
        if (prefix[1:] == prefix[:-1]).all(axis=1).any():
            raise InvariantError(f"lifting implication failed at step {j}, mod {base}**{c_j}")
        steps.append(LiftStep(j, c_j, table.sum_squares(), True))
    return LiftingChain(tuple(steps), j_star)
