"""Exact solution counting for Vinogradov-type systems over member lists.

Counts 2s-tuples (x, y) with phi_j(x_1)+...+phi_j(x_s) = phi_j(y_1)+...+phi_j(y_s)
for j = 1..k, where the variables run over a member list or a ``MemberSet``,
which each engine prices before listing it.  Two counters are provided:

* brute_force_count -- scans every (x, y) tuple pair; the ground-truth oracle.
* mitm_count -- meet-in-the-middle: sum_v m(v)^2 over the multiplicity table
  m(v) of power-sum keys over ordered s-tuples of one side, from the shared
  power-sum kernel in ``_tables`` (s copies of the member list, folded over
  multisets of members where that costs no more than the ordered steps, the
  sparse backend folding the last copy in slice by slice); brute-force
  equality guards its correctness.

``multiplicity_table`` returns that table m(v) itself, the kernel's ``Table``
of key and mass arrays.  Keys may optionally be reduced modulo a fixed modulus
(congruence counting) or capped componentwise (Waring reconciliation).  Every
count runs in one process; the library has no worker pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._tables import DEFAULT_BUDGET, Budget, Shape, Table, check_pairs, power_sum_squares, power_sum_table, price
from .errors import ValidationError
from .digits import MemberSet, _is_prime

__all__ = [
    "SpacedSystem",
    "Budget",
    "WeightAssignment",
    "CountResult",
    "FitResult",
    "brute_force_count",
    "mitm_count",
    "multiplicity_table",
    "diagonal_count",
    "lower_bound_reference",
    "fit_exponent",
    "key_hex",
]

@dataclass(frozen=True)
class SpacedSystem:
    """k integer polynomials phi_j with phi_j(z) = z^j modulo base**spacing.

    ``coeffs[j-1]`` holds the coefficients of phi_j in ascending order.
    ``spacing=None`` is the exact pure-power system (infinite spacing).
    ``spacing=0`` puts no constraint on the coefficients; it is used for
    single-equation counting such as phi(z) = z^k with one equation.
    """

    k: int
    base: int
    coeffs: tuple[tuple[int, ...], ...]
    spacing: int | None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.base < 3 or not _is_prime(self.base) or self.base % 2 == 0:
            raise ValidationError(f"base not an odd prime: {self.base}")
        if len(self.coeffs) != self.k:
            raise ValidationError("need one coefficient list per equation")
        coeffs = tuple(tuple(int(c) for c in row) for row in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.spacing is None:
            for j, row in enumerate(coeffs, start=1):
                if row != (0,) * j + (1,):
                    raise ValidationError(
                        "infinite spacing requires exact pure powers phi_j = z^j"
                    )
        else:
            if self.spacing < 0:
                raise ValidationError("spacing must be >= 0")
            q = self.base**self.spacing
            for j, row in enumerate(coeffs, start=1):
                for i, c in enumerate(row):
                    delta = c - 1 if i == j else c
                    if delta % q != 0:
                        raise ValidationError(
                            f"phi_{j} - z^{j} has coefficient {delta} at degree {i}, "
                            f"not divisible by {self.base}^{self.spacing}"
                        )

    @classmethod
    def pure_powers(cls, k: int, base: int) -> "SpacedSystem":
        """The Vinogradov system phi_j(z) = z^j, j = 1..k."""
        return cls(k, base, tuple((0,) * j + (1,) for j in range(1, k + 1)), None)

    @classmethod
    def single_power(cls, degree: int, base: int) -> "SpacedSystem":
        """One equation with phi(z) = z^degree (spacing 0)."""
        if degree < 1:
            raise ValidationError("degree must be >= 1")
        return cls(1, base, ((0,) * degree + (1,),), 0)

    @classmethod
    def perturbed(
        cls, base: int, spacing: int, perturbations: Sequence[Sequence[int]]
    ) -> "SpacedSystem":
        """phi_j(z) = z^j + base**spacing * psi_j(z) for the given psi coefficients."""
        if spacing < 1:
            raise ValidationError("perturbed systems need spacing >= 1")
        q = base**spacing
        rows = []
        for j, psi in enumerate(perturbations, start=1):
            width = max(j + 1, len(psi))
            row = [0] * width
            row[j] = 1
            for i, c in enumerate(psi):
                row[i] += q * int(c)
            rows.append(tuple(row))
        return cls(len(rows), base, tuple(rows), spacing)

    def phi(self, j: int, x: int) -> int:
        """Evaluate phi_j(x) exactly (Horner)."""
        value = 0
        for c in reversed(self.coeffs[j - 1]):
            value = value * x + c
        return value

    def key(self, xs: Sequence[int]) -> tuple[int, ...]:
        """Power-sum key (sum phi_1(x_i), ..., sum phi_k(x_i))."""
        return tuple(sum(self.phi(j, x) for x in xs) for j in range(1, self.k + 1))

    def phi_ranges(self, x_max: int) -> tuple[tuple[int, int], ...]:
        """(min, max) of each phi_j over 1 <= x <= x_max, bounded term by term."""
        return tuple((sum(c if c > 0 else c * x_max**i for i, c in enumerate(row)),
                      sum(c * x_max**i if c > 0 else c for i, c in enumerate(row)))
                     for row in self.coeffs)

    def phi_bound(self, x_max: int) -> int:
        """Upper bound for max_j |phi_j(x)| over 0 <= x <= x_max."""
        return max(
            sum(abs(c) * x_max**i for i, c in enumerate(row)) for row in self.coeffs
        )


def _check_support(xs: list[int]) -> None:
    """Refuse a sorted support that is empty or has a value below 1 or a repeat."""
    if not xs:
        raise ValidationError("total weight must be positive")
    if xs[0] < 1:
        raise ValidationError(f"support values must be >= 1, got {xs[0]}")
    for x, nxt in zip(xs, xs[1:]):
        if x == nxt:
            raise ValidationError(f"repeated support value {x}")


@dataclass(frozen=True)
class WeightAssignment:
    """Finitely supported weights in [0, 1] on positive integers, the one
    member-weight type of the counting engines and the congruence mean values.

    Integer and Fraction inputs run in exact rational mode; any float input
    switches the whole assignment to float mode.  Zero-weight entries are
    dropped, and the total weight must be positive.  ``masses``, the only
    stored form of the weights, maps each x, in increasing order, to its
    weight times ``denom``, the weights' common denominator D, as an int
    (exact mode), or to its float weight (D = 1).
    """

    masses: dict
    denom: int
    exact: bool

    @classmethod
    def from_pairs(cls, pairs) -> "WeightAssignment":
        pairs = pairs.items() if isinstance(pairs, Mapping) else pairs
        items = sorted((int(x), w) for x, w in pairs)
        _check_support([x for x, _ in items])
        exact = all(isinstance(w, (int, Fraction)) for _, w in items)
        kept = {}
        for x, w in items:
            wv = w if exact else float(w)
            if not 0 <= wv <= 1:
                raise ValidationError(f"weight for {x} outside [0, 1]: {w}")
            if wv != 0:
                kept[x] = wv
        if not kept:
            raise ValidationError("total weight must be positive")
        denom = math.lcm(*(w.denominator for w in kept.values())) if exact else 1  # an int's is 1
        if exact:
            kept = {x: w.numerator * (denom // w.denominator) for x, w in kept.items()}
        return cls(kept, denom, exact)

    @classmethod
    def unit(cls, members: Iterable[int]) -> "WeightAssignment":
        """Weight 1 on each member: mass 1 over D = 1, checked as from_pairs checks."""
        xs = sorted(map(int, members))
        _check_support(xs)
        return cls(dict.fromkeys(xs, 1), 1, True)

    @property
    def entries(self) -> tuple[tuple[int, object], ...]:
        """(x, weight) in increasing x, built from ``masses``: m / D as a Fraction, or a float."""
        if self.exact:
            return tuple((x, Fraction(m, self.denom)) for x, m in self.masses.items())
        return tuple(self.masses.items())

    @property
    def rho0_sq(self):
        """The squared normalising norm, sum w**2: (sum m**2) / D**2, or a float."""
        total = sum(m * m for m in self.masses.values())
        return Fraction(total, self.denom**2) if self.exact else total


@dataclass(frozen=True)
class CountResult:
    """A count and the s, k and Y it was taken over; callers time the call."""

    count: object  # int exactly, Fraction or float in weighted modes
    s: int
    k: int
    y: int
    method: str


def _phi_columns(system: SpacedSystem, members: Sequence[int]):
    return [[system.phi(j, x) for x in members] for j in range(1, system.k + 1)]


# --- brute force oracle ----------------------------------------------------

def brute_force_count(
    system: SpacedSystem,
    s: int,
    members: Sequence[int] | MemberSet,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> CountResult:
    """Count solutions by comparing every x-side tuple against every y-side tuple.

    Costs Y**(2s) key comparisons and refuses to start beyond the tuple budget.
    This is the oracle the meet-in-the-middle engine is validated against.
    """
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    priced = isinstance(members, MemberSet)  # refused on its y, which the listing checks
    if priced:
        check_pairs(members.y**s, budget.max_tuples)
    mem = sorted(set(int(m) for m in members))
    y = len(mem)
    if not priced:
        check_pairs(y**s, budget.max_tuples)
    if y == 0:
        return CountResult(0, s, system.k, 0, "brute")

    cols = _phi_columns(system, mem)
    key_mag = s * system.phi_bound(mem[-1])
    dtype = np.int64 if key_mag < 1 << 62 else object
    tuple_keys = []
    for col in cols:
        arr = np.asarray(col, dtype=dtype)
        keys = np.zeros(1, dtype=dtype)
        for _ in range(s):
            keys = (keys[:, None] + arr[None, :]).ravel()
        tuple_keys.append(keys)

    n = len(tuple_keys[0])
    total = 0
    step = max(1, (1 << 22) // n)
    for lo in range(0, n, step):
        eq = tuple_keys[0][lo : lo + step, None] == tuple_keys[0][None, :]
        for keys in tuple_keys[1:]:
            eq &= keys[lo : lo + step, None] == keys[None, :]
        total += int(np.count_nonzero(eq))
    return CountResult(total, s, system.k, y, "brute")


# --- meet-in-the-middle engine ----------------------------------------------

def _factors(system, s, members, weights, modulus, cap, budget) -> tuple[int, list]:
    """The number of distinct members of nonzero weight, and the s kernel factors
    over them: one (phi columns, masses) object, masses None for unit weights.
    A ``MemberSet``'s factors are priced from its count and bound first."""
    if weights is not None and not isinstance(weights, WeightAssignment):
        raise ValidationError("weights must be built by WeightAssignment.from_pairs")
    if isinstance(members, MemberSet) and s:
        mass = members.y if weights is None else sum(map(abs, weights.masses.values()))
        shape = Shape(members.y, system.phi_ranges(members.bound), mass)
        price([shape] * s, modulus=modulus, cap=cap, budget=budget)
    mem, masses = sorted(set(int(m) for m in members)), None
    if weights is not None:
        mem = [m for m in mem if m in weights.masses]
        masses = [weights.masses[m] for m in mem]
    return len(mem), [(_phi_columns(system, mem), masses)] * s


def multiplicity_table(
    system: SpacedSystem,
    s: int,
    members: Sequence[int] | MemberSet,
    weights: WeightAssignment | None = None,
    *,
    modulus: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Table:
    """The kernel ``Table`` of power-sum keys v and the (weighted) number m(v)
    of ordered s-tuples with each key: ``keys`` (n, k) in increasing
    lexicographic order, int64 or object past int64, and ``len(table)`` n.
    ``masses`` are tuple counts for unit weights (None) and integers over D**s
    for exact weights, int64 or object, or float64 for float weights, and
    ``table.sum_squares()`` is ``mitm_count`` on the same arguments times
    D**(2s).  Members outside the weights' support are dropped.  Built from
    s copies of the member list, folded over multisets of members where that
    costs no more than the ordered steps (see ``_tables``), and refused
    before it starts when its predicted work or bytes exceed the budget.
    """
    if s < 0:
        raise ValidationError(f"s must be >= 0, got {s}")
    factors = _factors(system, s, members, weights, modulus, None, budget)[1]
    if s == 0:  # the empty sum: one zero key of mass 1
        return Table(np.zeros((1, system.k), dtype=np.int64), np.ones(1, dtype=np.int64), 1)
    return power_sum_table(factors, modulus=modulus, budget=budget)


def mitm_count(
    system: SpacedSystem,
    s: int,
    members: Sequence[int] | MemberSet,
    weights: WeightAssignment | None = None,
    *,
    modulus: int | None = None,
    key_cap: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> CountResult:
    """Meet-in-the-middle count: sum over keys v of m(v)**2.

    Equals brute_force_count exactly with unit weights (None).  Exact weights
    give a Fraction, the kernel's integer sum divided once by D**(2s); float
    weights a float.  Members outside the weights' support count as weight 0.
    ``modulus`` reduces keys mod that value; ``key_cap`` drops keys with any
    component above the cap before summing.  The kernel's count-only entry
    point ``power_sum_squares`` folds the last of the s factors in slice by
    slice, so the count never holds the whole last step.
    """
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    y, factors = _factors(system, s, members, weights, modulus, key_cap, budget)
    if y == 0:
        return CountResult(0, s, system.k, 0, "mitm")
    total = power_sum_squares(factors, modulus=modulus, cap=key_cap, budget=budget)
    if weights is not None and weights.exact:
        total = Fraction(total, weights.denom ** (2 * s))
    return CountResult(total, s, system.k, y, "mitm")


# --- reference quantities ---------------------------------------------------

def _partitions(n: int, largest: int | None = None):
    """Non-increasing integer partitions of n."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def diagonal_count(s: int, y: int) -> int:
    """Number of pairs (x, y) in members^s x members^s with y a permutation of x.

    Depends only on s and the member count y: sum over multisets of the squared
    multinomial, evaluated per partition shape.  Always >= y**s.
    """
    if s < 1 or y < 1:
        raise ValidationError("diagonal_count needs s >= 1 and y >= 1")
    s_fact = math.factorial(s)
    total = 0
    for shape in _partitions(s):
        parts = len(shape)
        if parts > y:
            continue
        assignments = math.perm(y, parts)
        for size in set(shape):
            assignments //= math.factorial(shape.count(size))
        ordered = s_fact
        for part in shape:
            ordered //= math.factorial(part)
        total += assignments * ordered * ordered
    return total


def lower_bound_reference(s: int, k: int, x: int, y: int) -> float:
    """Reference curve y**(2s) * x**(-k(k+1)/2); no constant is asserted."""
    if x < 1 or y < 1:
        raise ValidationError("x and y must be >= 1")
    return math.exp(2 * s * math.log(y) - k * (k + 1) / 2 * math.log(x))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float  # root-mean-square residual of the fit


def fit_exponent(points: Sequence[tuple[int, int, object]]) -> FitResult:
    """Least-squares slope of log(count) against log(Y) for (X, Y, count) points."""
    if len(points) < 3:
        raise ValidationError("fit needs at least 3 points")
    ys = [p[1] for p in points]
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise ValidationError("Y values must be strictly increasing")
    counts = [p[2] for p in points]
    if any(c <= 0 for c in counts):
        raise ValidationError("counts must be positive to fit exponents")
    lx = np.array([math.log(v) for v in ys])
    ly = np.array([math.log(c) for c in counts])
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return FitResult(float(slope), float(intercept), rms)


def key_hex(key: tuple[int, ...]) -> str:
    """Colon-separated signed hex of the key components; exact and sortable back."""
    return ":".join(format(v, "x") for v in key)
