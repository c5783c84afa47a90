"""Congruence mean values over residue classes of a weighted member set.

Weighted exponential sums restricted to congruence classes modulo powers of
the base prime, the discrete integral over the rational grid u/p^B (equal by
orthogonality to a congruence count, which is the default evaluation path),
single-class and two-class congruence mean values, and the finite
restriction-ratio diagnostic.

The weights are a ``WeightAssignment`` or a ``MemberSet`` (unit weights), read
only by ``_classes``, through each member's residue mod p^max(B, level): its
summed masses, or the set's residue counts, walked with no member listed.

One driver, ``_class_average``, sums every mean value over tuples of per-class
blocks, one per residue class and power, each built once per call from the
class's residues (``_classes``): their phi columns (the only phi evaluation
here) and summed masses.  In grid mode a block is the class's values over half
the grid, the u with u_k <= p^B // 2, whose mirror images -u cover the rest: a
real DFT of each populated row of its weight histogram over (phi_j(x) mod
p^B)_j, completed by a DFT over the first k - 1 axes.  In count mode it is the
class's factors of the exact power-sum table.

Exact arithmetic policy: counting paths hand the kernel integer masses
(``WeightAssignment.masses``) and divide once per table; grid paths are
double-precision complex and are held to 1e-9 relative agreement with the
counting paths.  Class norms are stored squared so the rational paths never
need square roots.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .digits import DigitSet, MemberSet, count_members
from .errors import BudgetError, InvariantError, ValidationError
from ._tables import power_sum_squares
from .meanvalue import Budget, DEFAULT_BUDGET, SpacedSystem, WeightAssignment, _phi_columns

__all__ = [
    "GRID_BUDGET",
    "WeightAssignment",
    "ClassNorms",
    "GridPoint",
    "MeanValueSpec",
    "class_norms",
    "restricted_exp_sum",
    "discrete_integral",
    "congruence_mean_value",
    "two_class_mean_value",
    "normalized_two_class",
    "RestrictionRatio",
    "restriction_ratio",
    "RefinementCheck",
    "class_refinement_check",
]

GRID_BUDGET = 10**6  # grid mode is refused above this many grid points


def _check_mode(mode: str) -> None:
    if mode not in ("count", "grid"):
        raise ValidationError(f"unknown mode {mode!r}; expected count or grid")


@dataclass(frozen=True)
class ClassNorms:
    """Squared class norms rho_a(xi)^2 indexed by residue xi = x mod base**level.

    Residues are those realised by the support ("class 0" appears whenever a
    support element is divisible by base**level), so the partition identity
    sum_xi rho_a(xi)^2 = rho_0^2 holds exactly for every digit set.
    """

    base: int
    level: int
    table: dict[int, object]


class _Class(NamedTuple):
    """A class's distinct member residues, the summed masses on each, and rho^2."""

    residues: list
    masses: list
    rho_sq: object


_EMPTY = _Class([], [], 0)
Weights = WeightAssignment | MemberSet  # a MemberSet reads as unit weights


def _classes(
    weights: Weights, base: int, level: int, modulus: int, budget: Budget = DEFAULT_BUDGET
) -> dict[int, _Class]:
    """The support's classes modulo base**level, the one reader of its members.

    A member x enters only through x mod lcm(modulus, base**level), which
    fixes phi_j(x) mod ``modulus`` (phi has integer coefficients) and x's
    class, so the masses and squared masses are summed per residue first (a
    ``MemberSet``'s are both its residue counts, walked under ``budget``).
    """
    if level < 0:
        raise ValidationError("level must be >= 0")
    step = base**level
    reduce_by = math.lcm(modulus, step)
    if isinstance(weights, MemberSet):
        hist = {r: (c, c) for r, c in weights.residue_counts(reduce_by, budget).items()}
        if not hist:
            raise ValidationError("total weight must be positive")
    else:
        hist = {}
        for x, m in weights.masses.items():
            sums = hist.setdefault(x % reduce_by, [0, 0])
            sums[0] += m
            sums[1] += m * m
    groups: dict[int, list[int]] = {}
    for r in sorted(hist):
        groups.setdefault(r % step, []).append(r)
    scale = Fraction(1, weights.denom**2) if weights.exact else 1  # rho^2 in weight units
    return {
        res: _Class(rs, [hist[r][0] for r in rs], scale * sum(hist[r][1] for r in rs))
        for res, rs in groups.items()
    }


def class_norms(weights: Weights, base: int, level: int) -> ClassNorms:
    table = {res: cls.rho_sq for res, cls in _classes(weights, base, level, 1).items()}
    return ClassNorms(base, level, table)


@dataclass(frozen=True)
class GridPoint:
    """The point alpha = u / modulus with componentwise 1 <= u_j <= modulus."""

    u: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValidationError("modulus must be >= 1")
        u = tuple(int(v) for v in self.u)
        for v in u:
            if not 1 <= v <= self.modulus:
                raise ValidationError(f"grid coordinate {v} outside [1, {self.modulus}]")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class MeanValueSpec:
    """Parameters of a congruence mean value.

    ``modulus_level`` is the exponent B of the congruence modulus base**B;
    ``class_level`` is the exponent h of the class restriction (0 = none).
    """

    system: SpacedSystem
    weights: Weights
    s: int
    modulus_level: int
    class_level: int = 0

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValidationError("s must be >= 1")
        if self.modulus_level < 1:
            raise ValidationError("modulus level must be >= 1")
        if not 0 <= self.class_level <= self.modulus_level:
            raise ValidationError("need 0 <= class level <= modulus level")

    @property
    def base(self) -> int:
        return self.system.base

    @property
    def modulus(self) -> int:
        return self.base**self.modulus_level


def restricted_exp_sum(
    system: SpacedSystem,
    weights: Weights,
    point: GridPoint,
    level: int,
    residue: int,
) -> complex:
    """The class-restricted normalised exponential sum f_level(alpha, residue).

    Empty classes return 0 by convention.  At level 0 this is the full sum f.
    """
    q = system.base**level
    cls = _classes(weights, system.base, level, point.modulus).get(residue % q, _EMPTY)
    return _class_exp_sum(_class_factor(system, cls), cls.rho_sq, point, weights.denom)


def _class_factor(system: SpacedSystem, cls: _Class):
    """One class's (phi columns, summed masses) over its residues, in both modes:
    every phi value here.  A kernel factor; the float paths read weights m / D."""
    return _phi_columns(system, cls.residues), cls.masses


def _class_exp_sum(factor, rho_sq, point: GridPoint, denom: int) -> complex:
    """f at alpha = point over one class's ``_class_factor``; 0 if it is empty."""
    cols, ms = factor
    if len(point.u) != len(cols):
        raise ValidationError(
            f"grid point has {len(point.u)} coordinates for a k={len(cols)} system"
        )
    if not ms:
        return 0j
    modulus = point.modulus
    total = 0j
    for i, m in enumerate(ms):
        phase = sum(u * col[i] for u, col in zip(point.u, cols))
        total += m / denom * cmath.exp(2j * cmath.pi * (phase % modulus) / modulus)
    return total / math.sqrt(float(rho_sq))


def _grid_class_power_mean(factor, rho_sq, modulus: int, power: int, denom: int) -> np.ndarray:
    """|f_class(u/modulus)|**(2*power) over half the grid, as a k-D array of
    shape (modulus,)**(k-1) x (modulus//2 + 1): the u with u_k <= modulus // 2.

    f_class sees a member x only through (phi_j(x) mod modulus)_j, read off
    the class's ``_class_factor``, so the weights (mass / D, a true division
    that stays finite for any D) are summed into a histogram over those
    residues first.  Only its populated rows are held: one row over the last
    residue per distinct tuple of the first k - 1.  Each row's real DFT
    (``rfft``) is scattered into the half grid, and a DFT over the leading
    k - 1 axes, in place, completes the transform.  The weights are real, so
    |DFT[u]| = |f_class(u/modulus)| = |f_class(-u/modulus)|, index 0 standing
    for u = modulus; u -> -u maps the rest of the grid onto the half held
    (``_block_mean`` weighs it in).  Every call returns the grid in the same
    order.
    """
    cols, ms = factor
    k = len(cols)
    residues = np.array([[c % modulus for c in col] for col in cols], dtype=np.int64)
    lead, row = np.unique(residues[:-1], axis=1, return_inverse=True)
    hist = np.zeros((lead.shape[1], modulus))
    np.add.at(hist, (row, residues[-1]), [m / denom for m in ms])
    sums = np.zeros((modulus,) * (k - 1) + (modulus // 2 + 1,), dtype=complex)
    sums[tuple(lead)] = np.fft.rfft(hist)
    if k > 1:
        np.fft.fftn(sums, axes=range(k - 1), out=sums)
    re, im = sums.real, sums.imag  # in place: each fresh grid costs its page faults
    np.square(re, out=re)
    np.square(im, out=im)
    abs2 = re + im
    abs2 **= power
    abs2 /= float(rho_sq) ** power
    return abs2


def _block(spec: MeanValueSpec, cls: _Class, n: int, mode: str):
    """The factor |f_class(alpha)|**(2n) of one class, from its ``_class_factor``.

    "grid" gives its values over half the grid u/modulus
    (``_grid_class_power_mean``); "count" gives its n kernel factors, whose
    masses are the weights times D, and its norm in the same units,
    (D**2 * rho_sq)**n; the kernel prices their table in ``_block_mean``.
    Grid mode is refused above GRID_BUDGET points of the whole grid, before
    any phi value.  Callers check ``mode``.
    """
    denom = spec.weights.denom
    if mode == "count":
        return [_class_factor(spec.system, cls)] * n, (denom**2 * cls.rho_sq) ** n
    n_points = spec.modulus**spec.system.k
    if n_points > GRID_BUDGET:
        raise BudgetError(f"grid mode needs {n_points} points > {GRID_BUDGET}; use counting mode")
    factor = _class_factor(spec.system, cls)
    return _grid_class_power_mean(factor, cls.rho_sq, spec.modulus, n, denom)


def _block_mean(blocks: Sequence, modulus: int, mode: str, budget: Budget):
    """Grid average of prod_i |f_i(alpha)|**(2 n_i) over alpha = u/modulus.

    ``blocks`` are ``_block`` results of one mode.  "grid" multiplies their
    half grids: the product is unchanged by u -> -u, which fixes the plane
    u_k = 0 and swaps u_k with modulus - u_k elsewhere, so it sums that plane
    once and the rest twice.  The modulus is a power of an odd prime, so no
    u_k equals -u_k except 0.  "count" evaluates the equal congruence
    count as the exact sum of squares of the table over all their factors,
    over D**(2 #factors), divided once by the norms, which carry that power.
    ``power_sum_squares`` folds the last factor in by residue classes of v_0
    modulo a power of p dividing the modulus, so the table is never held whole.
    """
    if mode == "grid":
        prod = functools.reduce(np.multiply, blocks)
        return float(2 * prod.sum() - prod[..., 0].sum()) / modulus**prod.ndim
    factors = [factor for block_factors, _ in blocks for factor in block_factors]
    raw = power_sum_squares(factors, modulus=modulus, budget=budget)
    return raw / math.prod(norm for _, norm in blocks)


def discrete_integral(
    spec: MeanValueSpec,
    residue: int | None = None,
    *,
    mode: str = "count",
    budget: Budget = DEFAULT_BUDGET,
):
    """Grid average of |f_h(alpha, residue)|**(2s) over alpha = u/base**B.

    With residue None the unrestricted sum f is integrated (h = 0).  The
    default "count" mode evaluates the equal-by-orthogonality congruence
    count exactly; "grid" mode averages over the p**(kB) grid points and is
    refused above GRID_BUDGET points.
    """
    _check_mode(mode)
    level = 0 if residue is None else spec.class_level
    return _class_average(spec, [(level, spec.s, residue or 0)], mode, budget)


def _class_average(
    spec: MeanValueSpec,
    blocks: Sequence[tuple[int, int, int | None]],
    mode: str,
    budget: Budget,
    nu: int = 0,
    by_level: dict | None = None,
):
    """Every congruence mean value, a ``_block_mean`` over tuples of classes.

    Block i of the m ``blocks`` ``(level, n, residue)`` reads the classes
    mod base**level (``by_level``, else one ``_classes`` table per level)
    with power n.  Given residues return their tuple's bare _block_mean, 0
    if a picked class is empty.  Residues None give rho_0^(-2m) * sum of
    prod_i rho_i^2 * _block_mean over every class tuple, in sorted order,
    less those whose first and last residues agree mod base**nu if nu >= 1.

    Each class's ``_block`` is built once per block, not once per tuple.  The
    first block's class changes slowest, so only its current one is kept,
    beside every one of the later blocks.
    """
    if by_level is None:
        levels = {level for level, _, _ in blocks}
        by_level = {lv: _classes(spec.weights, spec.base, lv, spec.modulus, budget)
                    for lv in levels}
    tables = [by_level[level] for level, _, _ in blocks]
    chosen = blocks[0][2] is not None
    picks = [sorted(table) if res is None else table.keys() & {res % spec.base**level}
             for table, (level, _, res) in zip(tables, blocks)]  # an empty class: no tuple
    built: list[dict] = [{} for _ in blocks]
    total = Fraction(0) if spec.weights.exact else 0.0
    for residues in itertools.product(*picks):
        if not chosen and nu >= 1 and (residues[0] - residues[-1]) % spec.base**nu == 0:
            continue
        parts = []  # before the builds: the last tuple's blocks are freed
        for i, (table, res, (_, n, _)) in enumerate(zip(tables, residues, blocks)):
            if res not in built[i]:
                if i == 0:
                    built[0].clear()
                built[i][res] = _block(spec, table[res], n, mode)
            parts.append(built[i][res])
        weight = 1 if chosen else math.prod(t[res].rho_sq for t, res in zip(tables, residues))
        total = total + weight * _block_mean(parts, spec.modulus, mode, budget)
    return total if chosen else total / spec.weights.rho0_sq ** len(blocks)


def congruence_mean_value(
    spec: MeanValueSpec,
    *,
    mode: str = "count",
    budget: Budget = DEFAULT_BUDGET,
):
    """The class-averaged congruence mean value at the spec's class level h.

    rho_0^{-2} * sum_xi rho_h(xi)^2 * (grid average of |f_h(., xi)|^{2s}); at
    h = 0 there is a single class and this is the plain mean value over the
    full congruence system.  Exact (Fraction) in rational mode.
    """
    _check_mode(mode)
    return _class_average(spec, [(spec.class_level, spec.s, None)], mode, budget)


def two_class_mean_value(
    spec: MeanValueSpec,
    t: int,
    r: int,
    a: int,
    b: int,
    nu: int = 0,
    xi: int | None = None,
    eta: int | None = None,
    *,
    mode: str = "count",
    budget: Budget = DEFAULT_BUDGET,
):
    """Two-class congruence mean value with block sizes R and s - R.

    R = t*r*(r+1)/2 of the s variable pairs are confined to the level-a class
    xi and the remaining s - R pairs to the level-b class eta; the two blocks'
    power sums must agree modulo base**B.  With xi and eta given the single
    pair value is returned; otherwise the rho-weighted aggregate over all
    class pairs with xi != eta mod base**nu (no exclusion when nu = 0).
    Counting mode is exact with rational weights.
    """
    _check_mode(mode)
    s = spec.s
    if not 0 <= r <= spec.system.k:
        raise ValidationError(f"need 0 <= r <= k, got r={r}")
    if t < 2:
        raise ValidationError("t must be >= 2")
    if nu < 0:
        raise ValidationError("nu must be >= 0")
    big_r = t * r * (r + 1) // 2
    if big_r > s:
        raise ValidationError(f"R = t*r(r+1)/2 = {big_r} exceeds s = {s}")
    if (xi is None) != (eta is None):
        raise ValidationError("give both xi and eta or neither")
    return _class_average(spec, [(a, big_r, xi), (b, s - big_r, eta)], mode, budget, nu)


def normalized_two_class(k_value, delta: float, r: int, k: int, u_bh, q_h: int) -> float:
    """(K / (q_h**delta * U^{B,H}))**((k-1)/(r(k-r))); undefined at k = 1."""
    if k < 2:
        raise ValidationError("normalisation exponent is undefined for k = 1")
    if not 1 <= r <= k - 1:
        raise ValidationError(f"need 1 <= r <= k-1, got r={r}")
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    if u_bh <= 0:
        raise ValidationError("U^{B,H} must be positive")
    exponent = (k - 1) / (r * (k - r))
    return (float(k_value) / (q_h**delta * float(u_bh))) ** exponent


@dataclass(frozen=True)
class RestrictionRatio:
    """Finite-level cost of restricting all variables to a congruence class.

    ``ratio`` is log(U^B / U^{B,H}) / log(q^H) with q = #members in [1, base];
    ``ratio_by_classes`` renormalises by the number of populated classes at
    level H.  ``eps_hat`` is the exact slack in the ratio <= s bound implied
    by the constant-free Hoelder chain.
    """

    u_b: object
    u_bh: object
    level: int  # H
    q: int
    n_classes: int
    ratio: float
    ratio_by_classes: float | None
    eps_hat: float


def restriction_ratio(
    spec: MeanValueSpec,
    digit_set: DigitSet,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> RestrictionRatio:
    """Compute U^B and U^{B,H} at H = ceil(B/k) and their log ratio."""
    level = -(-spec.modulus_level // spec.system.k)
    q = count_members(digit_set, digit_set.base)
    if q < 2:
        raise ValidationError(f"q = #members in [1, base] is {q}; ratio needs q >= 2")
    by_level = {lv: _classes(spec.weights, spec.base, lv, spec.modulus, budget)
                for lv in (0, level)}
    u_b = _class_average(spec, [(0, spec.s, None)], "count", budget, by_level=by_level)
    u_bh = _class_average(spec, [(level, spec.s, None)], "count", budget, by_level=by_level)
    if u_bh <= 0:
        raise ValidationError("degenerate weights: U^{B,H} is zero")
    n_classes = len(by_level[level])
    log_ratio = math.log(float(u_b)) - math.log(float(u_bh))
    ratio = log_ratio / (level * math.log(q))
    ratio_classes = log_ratio / math.log(n_classes) if n_classes > 1 else None
    bound = spec.s * (
        math.log(n_classes) / (level * math.log(q)) if n_classes > 1 else 0.0
    )
    eps_hat = max(0.0, bound - spec.s)
    if ratio > spec.s + eps_hat + 1e-9:
        raise InvariantError(
            f"restriction ratio {ratio} exceeds s + eps_hat = {spec.s + eps_hat}"
        )
    return RestrictionRatio(
        u_b, u_bh, level, q, n_classes, ratio, ratio_classes, eps_hat
    )


@dataclass(frozen=True)
class RefinementCheck:
    """Sampled verification that coarse-class sums are dominated by refinements."""

    passed: bool
    worst_margin: float
    split_factor: int
    n_points: int


def class_refinement_check(
    system: SpacedSystem,
    weights: Weights,
    a: int,
    b: int,
    w: int,
    xi: int,
    modulus_level: int,
    points: Sequence[GridPoint] | None = None,
    samples: int = 100,
    rng: random.Random | None = None,
) -> RefinementCheck:
    """Check rho_a(xi)^2 |f_a|^{2w} <= C^{w(b-a)} * sum over refining classes.

    C is the largest number of populated level-(l+1) classes over a populated
    level-l class for a <= l < b, so C^(b-a) bounds how many level-b classes
    refine any level-a class.  The inequality is a finite Hoelder step and
    must hold at every point; the worst RHS/LHS margin is reported.
    """
    if a > b:
        raise ValidationError("need a <= b")
    if w < 1:
        raise ValidationError("need w >= 1")
    base = system.base
    split_factor = 1
    for level in range(a, b):
        per_parent = Counter(res % base**level for res in _classes(weights, base, level + 1, 1))
        split_factor = max([split_factor, *per_parent.values()])

    if points is None:
        rng = rng or random.Random(0)
        modulus = base**modulus_level
        points = [
            GridPoint(tuple(rng.randint(1, modulus) for _ in range(system.k)), modulus)
            for _ in range(samples)
        ]

    modulus = math.lcm(*(point.modulus for point in points))
    res_a = xi % base**a
    class_a = _classes(weights, base, a, modulus).get(res_a, _EMPTY)
    coarse = (_class_factor(system, class_a), class_a.rho_sq)
    refining = [
        (_class_factor(system, cls), cls.rho_sq)
        for res, cls in _classes(weights, base, b, modulus).items()
        if res % base**a == res_a
    ]

    def term(factor, rho_sq, point):  # rho^2 * |f|^(2w) of one class
        return float(rho_sq) * abs(_class_exp_sum(factor, rho_sq, point, weights.denom)) ** (2 * w)

    scale = float(split_factor) ** (w * (b - a))
    worst = math.inf
    passed = True
    for point in points:
        lhs = term(*coarse, point)
        rhs = sum(term(*part, point) for part in refining) * scale
        if lhs > rhs * (1 + 1e-9):
            passed = False
        if lhs > 0:
            worst = min(worst, rhs / lhs)
    return RefinementCheck(passed, worst, split_factor, len(points))
