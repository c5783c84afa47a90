"""Digit-restricted Waring counts.

Representation counts R(n) of integers as ordered sums of s k-th powers of
ellipsephic members, the represented-integer count N up to a bound, and the
exact Cauchy-Schwarz lower bound N >= (sum R)^2 / (sum R^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._tables import Shape, power_sum_table, price
from .digits import DigitSet, MemberSet, integer_root
from .errors import ValidationError
from .meanvalue import Budget, DEFAULT_BUDGET

__all__ = [
    "RepresentationTable",
    "CauchyCheck",
    "integer_root",
    "representation_table",
    "represented_count",
    "cauchy_bound_check",
]


@dataclass(frozen=True, eq=False)
class RepresentationTable:
    """Sparse table n -> R(n) of ordered s-fold k-th power representations.

    ``n`` holds the represented integers, increasing (the kernel's order), and
    ``r`` their R(n), both read-only arrays of the kernel; ``counts`` is the
    mapping n -> R(n), built from them on each access.  Tables compare and
    hash by identity (``eq=False``), since an array has no single truth value.
    ``overflow`` counts the ordered tuples whose power sum exceeded the bound,
    so R and overflow always reconcile: sum R(n) + overflow = Y**s.
    ``sum_r`` and ``sum_r2`` are sum R(n) and sum R(n)**2, taken once from the
    table's masses.
    """

    s: int
    k: int
    bound: int
    y: int
    n: np.ndarray
    r: np.ndarray
    overflow: int
    sum_r: int
    sum_r2: int

    @property
    def counts(self) -> dict[int, int]:
        return dict(zip(self.n.tolist(), self.r.tolist()))

    def total(self) -> int:
        return self.sum_r

    def sum_squares(self) -> int:
        return self.sum_r2


def representation_table(
    digit_set: DigitSet,
    s: int,
    k: int,
    bound: int,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> RepresentationTable:
    """Exact R(n) for all n <= bound, by the s-fold convolution of the k-th powers.

    Only members with x**k <= bound can occur in a representation, so the
    member list is the ellipsephic enumeration up to the integer k-th root.
    The s copies of the k-th powers are folded over multisets of members
    where that costs no more than the ordered steps (see ``_tables``).
    Partial sums above the bound are dropped as they arise, and the overflow
    is the remaining mass Y**s - sum R(n).  The table is priced from Y, a
    ``MemberSet``'s count, and refused before any member is enumerated.
    """
    if s < 1 or k < 1:
        raise ValidationError("representation_table needs s >= 1 and k >= 1")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    root = integer_root(bound, k)
    members = MemberSet(digit_set, root)
    y = members.y
    price([Shape(y, ((1, root**k),), y)] * s, cap=bound, budget=budget)
    factor = ([[m**k for m in members]], None)
    table = power_sum_table([factor] * s, cap=bound, budget=budget)
    n, r = table.keys[:, 0], table.masses
    n.flags.writeable = r.flags.writeable = False
    total = int(r.sum())
    return RepresentationTable(s, k, bound, y, n, r, y**s - total, total, table.sum_squares())


def represented_count(table: RepresentationTable) -> int:
    """Number of integers up to the bound with at least one representation."""
    return len(table.n)


@dataclass(frozen=True)
class CauchyCheck:
    lhs: int  # (sum R)^2
    rhs: int  # N * sum R^2
    holds: bool
    lower_bound: Fraction  # implied bound N >= (sum R)^2 / (sum R^2)


def cauchy_bound_check(table: RepresentationTable) -> CauchyCheck:
    """Verify (sum R)^2 <= N * sum R^2 in exact integers and report the bound."""
    total = table.total()
    squares = table.sum_squares()
    n_repr = represented_count(table)
    lhs = total * total
    rhs = n_repr * squares
    bound = Fraction(lhs, squares) if squares else Fraction(0)
    return CauchyCheck(lhs, rhs, lhs <= rhs, bound)
