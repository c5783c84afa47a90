"""Digit-restricted ("ellipsephic") integer sets.

An ellipsephic set over an odd prime base p is the set of positive integers
whose base-p expansion only uses digits from a prescribed digit set.  This
module builds digit sets, explicit or cut from a source such as the squares;
counts and lists the members of [1, X] by one top-first digit walk, whose
count a ``MemberSet`` holds so that a job is priced before any is listed, and
whose blocks give the members on each residue mod p^M without listing one;
tests membership; and gives a source's additive representation profile, how
many ordered t-tuples of source elements sum to each integer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._tables import DEFAULT_BUDGET, Budget, Shape, power_sum_dense, price
from .errors import BudgetError, InvariantError, ValidationError

__all__ = [
    "DigitSet",
    "DigitSource",
    "RepProfile",
    "EtStarReport",
    "parse_digit_set",
    "digit_set_text",
    "MemberSet",
    "iter_members",
    "is_member",
    "count_members",
    "base_digits",
    "integer_root",
    "rep_profile",
    "et_star_report",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for word-sized n."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def base_digits(n: int, base: int) -> list[int]:
    """Base-`base` digits of n, least significant first. base_digits(0) == []."""
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


@dataclass(frozen=True)
class DigitSet:
    """A prime base together with the permitted digits in [0, base).

    With ``strict`` (the default) the digit count r must satisfy
    2 <= r <= base - 1: r = 0 and {0} are trivial, r = base is the
    unrestricted classical case, and r = 1 is rejected outright.
    """

    base: int
    digits: tuple[int, ...]
    strict: bool = True

    def __post_init__(self) -> None:
        if self.base < 3 or self.base % 2 == 0 or not _is_prime(self.base):
            raise ValidationError(f"base not an odd prime: {self.base}")
        digits = tuple(sorted(self.digits))
        if len(set(digits)) != len(digits):
            raise ValidationError(f"duplicate digits: {self.digits}")
        for d in digits:
            if not 0 <= d < self.base:
                raise ValidationError(f"digit {d} out of range [0, {self.base})")
        if self.strict:
            if len(digits) == 1:
                raise ValidationError(
                    "single-digit sets are excluded in strict mode (r = 1)"
                )
            if not 2 <= len(digits) <= self.base - 1:
                raise ValidationError(
                    f"strict mode needs 2 <= #digits <= base-1, got {len(digits)}"
                )
        elif not digits:
            raise ValidationError("empty digit set")
        object.__setattr__(self, "digits", digits)

    @property
    def r(self) -> int:
        """Number of permitted digits."""
        return len(self.digits)


def parse_digit_set(text: str, strict: bool = True) -> DigitSet:
    """Parse the text form ``p=11;digits=0,1,4,9`` (no spaces)."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        if "=" not in part:
            raise ValidationError(f"malformed digit-set field: {part!r}")
        key, _, value = part.partition("=")
        if key in fields:
            raise ValidationError(f"repeated digit-set field: {key!r}")
        fields[key] = value
    if set(fields) != {"p", "digits"}:
        raise ValidationError(f"digit-set text needs exactly p and digits: {text!r}")
    try:
        base = int(fields["p"])
        digits = tuple(int(d) for d in fields["digits"].split(","))
    except ValueError as exc:
        raise ValidationError(f"non-integer in digit-set text: {text!r}") from exc
    return DigitSet(base, digits, strict)


def digit_set_text(ds: DigitSet) -> str:
    """Canonical text form; round-trips through parse_digit_set."""
    return f"p={ds.base};digits={','.join(str(d) for d in ds.digits)}"


def integer_root(n: int, k: int) -> int:
    """Exact floor of n**(1/k) for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValidationError("integer_root needs n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # integer Newton from 2**ceil(bits/k) > n**(1/k): by AM-GM every step stays
    # >= the root and falls strictly while above it, so the first non-decrease
    # is at the root; no float, so exact at every size
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class DigitSource:
    """An increasing integer sequence used to derive digit sets.

    Kinds: ``explicit`` (a finite list), ``squares``, and ``powers`` (k-th
    powers for a fixed exponent).  Generated sequences start at 0 or 1.
    """

    kind: str
    values: tuple[int, ...] = ()
    exponent: int = 0

    def __post_init__(self) -> None:
        if self.kind == "explicit":
            vals = self.values
            if not vals:
                raise ValidationError("explicit source needs at least one value")
            if vals[0] not in (0, 1):
                raise ValidationError("source must start at 0 or 1")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValidationError("source values must be strictly increasing")
        elif self.kind == "squares":
            pass
        elif self.kind == "powers":
            if self.exponent < 1:
                raise ValidationError("powers source needs exponent >= 1")
        else:
            raise ValidationError(f"unknown source kind: {self.kind!r}")

    @classmethod
    def explicit(cls, values) -> "DigitSource":
        return cls("explicit", tuple(values))

    @classmethod
    def squares(cls) -> "DigitSource":
        return cls("squares")

    @classmethod
    def powers(cls, exponent: int) -> "DigitSource":
        return cls("powers", exponent=exponent)

    def up_to(self, bound: int) -> list[int]:
        """All source values <= bound, increasing."""
        if bound < 0:
            return []
        if self.kind == "explicit":
            return [v for v in self.values if v <= bound]
        k = 2 if self.kind == "squares" else self.exponent
        return [i**k for i in range(integer_root(bound, k) + 1)]

    def digit_set(self, base: int, strict: bool = True) -> DigitSet:
        """Truncate the source to [0, base) and build a DigitSet."""
        return DigitSet(base, tuple(self.up_to(base - 1)), strict)


def _blocks(digit_set: DigitSet, bound: int) -> Iterator[tuple[int, int]]:
    """[1, bound] as blocks (head, n), increasing: head * p**n + w for every
    string w of n permitted digits.  One per nonzero permitted lead at each
    length below the bound's; then, top digit first, one per permitted digit
    below the bound's (nonzero at the top) while the bound's digit is
    permitted, and (bound, 0) if it always is."""
    if bound < 1:
        raise ValidationError(f"bound must be >= 1, got {bound}")
    p, allowed = digit_set.base, digit_set.digits
    leads = [d for d in allowed if d]
    top_first = base_digits(bound, p)[::-1]
    for n in range(len(top_first) - 1):
        for d in leads:
            yield d, n
    head = 0
    for pos, b in enumerate(top_first):
        for d in allowed if pos else leads:  # increasing
            if d >= b:
                break
            yield head * p + d, len(top_first) - 1 - pos
        if b not in allowed:
            return
        head = head * p + b
    yield head, 0


def iter_members(digit_set: DigitSet, bound: int) -> Iterator[int]:
    """Yield the ellipsephic members of [1, bound] in increasing order: each
    block of ``_blocks`` in turn, its digit strings in lexicographic order,
    which is numeric order, so the output is sorted without a sort pass."""
    p, digits = digit_set.base, digit_set.digits
    for head, n in _blocks(digit_set, bound):
        for tail in itertools.product(digits, repeat=n):
            value = head
            for d in tail:
                value = value * p + d
            yield value


def count_members(digit_set: DigitSet, bound: int) -> int:
    """#(ellipsephic members in [1, bound]), the sum of r**n over the blocks
    (head, n) of ``_blocks``, never enumerating.  At most r**(floor(log_p bound)+1)."""
    r = digit_set.r
    return sum(r**n for _, n in _blocks(digit_set, bound))


@dataclass(frozen=True)
class MemberSet:
    """The members of [1, bound], counted in ``y`` (not ``len``: y may pass
    sys.maxsize) and listed by iterating, increasing, with an InvariantError
    after the last if they were not y, the figure the job was priced by.
    The congruence mean values read it as unit weights (mass 1 over ``denom``
    1, ``rho0_sq`` = y) through ``residue_counts``; ``entries`` lists them."""

    digit_set: DigitSet
    bound: int
    y: int = field(init=False)
    denom, exact = 1, True
    UNIT_BYTES = 130  # a residue count's bytes: above the 100-129 of a unit weight's dict entry

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", count_members(self.digit_set, self.bound))

    def __iter__(self) -> Iterator[int]:
        n = 0
        for n, x in enumerate(iter_members(self.digit_set, self.bound), start=1):
            yield x
        if n != self.y:
            raise InvariantError(f"{n} members enumerated, {self.y} counted")

    rho0_sq = property(lambda self: self.y)
    entries = property(lambda self: tuple((x, 1) for x in self))

    def residue_counts(self, modulus: int, budget: Budget = DEFAULT_BUDGET) -> Counter:
        """Members on each residue mod ``modulus`` = p**M, from the blocks (head, n)
        of ``_blocks``, listing none: one with n >= M puts r**(n - M) on every
        string of M permitted digits (summed first: each string is visited
        once), one with n < M one on (head * p**n + w) mod p**M per n-digit w.
        Refused first if min(y, p**M) counts at UNIT_BYTES pass the byte cap."""
        p = self.digit_set.base
        level = len(base_digits(modulus, p)) - 1 if modulus > 0 else 0
        if p**level != modulus:
            raise ValidationError(f"members are read modulo powers of {p}, not {modulus}")
        if min(self.y, modulus) * self.UNIT_BYTES > budget.max_table_bytes:
            raise BudgetError(f"residue counts of {self.y} members mod {modulus} pass "
                              f"{budget.max_table_bytes} bytes")
        # a string's value is the sum of its digits' place values d * p**i
        places = [[d * p**i for d in self.digit_set.digits] for i in range(level)]
        counts, full = Counter(), 0
        for head, n in _blocks(self.digit_set, self.bound):
            if n >= level:
                full += self.digit_set.r ** (n - level)
            else:
                top = head * p**n
                counts.update((top + sum(w)) % modulus for w in itertools.product(*places[:n]))
        if full:
            counts.update(dict.fromkeys(map(sum, itertools.product(*places)), full))
        if counts.total() != self.y:
            raise InvariantError(f"{counts.total()} members walked by residue, {self.y} counted")
        return counts


def is_member(digit_set: DigitSet, n: int) -> bool:
    """True iff every base-p digit of n is permitted. Requires n >= 1."""
    if n < 1:
        raise ValidationError(f"membership is defined for n >= 1, got {n}")
    p = digit_set.base
    allowed = set(digit_set.digits)
    while n:
        n, d = divmod(n, p)
        if d not in allowed:
            return False
    return True


# --- Additive representation profiles -------------------------------------

@dataclass(frozen=True, eq=False)
class RepProfile:
    """counts[n] = number of ordered t-tuples of source elements summing to n.

    ``counts`` is the kernel's array, read-only: int64, or object (Python
    integers) when the a-priori bound passes int64; int64 also when the
    kernel built it in int32 (a bound below 2**31).  Profiles compare and hash
    by identity (``eq=False``), since an array has no single truth value.
    """

    source: DigitSource
    t: int
    horizon: int
    counts: np.ndarray = field(repr=False)

    def count(self, n: int) -> int:
        return int(self.counts[n])


def rep_profile(
    source: DigitSource,
    t: int,
    horizon: int,
    *,
    budget: Budget = DEFAULT_BUDGET,
) -> RepProfile:
    """Exact ordered t-tuple representation counts for all 0 <= n <= horizon.

    Computed by the dense backend of ``_tables`` from t copies of the source
    values up to the horizon, its leading copies folded over multisets of
    values where that costs no more than the ordered steps.  While the
    partial table is sparse, as the sums of one or two squares are, a step
    scatters its nonzero counts over the source values; once it fills in, a
    step shifts the whole table once per source value.  Counts are 64-bit
    when the a-priori bound (#source)**t rules out overflow, and Python
    integers otherwise; below 2**31 the steps run in 32 bits and the
    finished array is widened once.  A generated source's table is priced
    before any i**k is listed, from their number, one more than the integer
    k-th root of the horizon; an explicit source's values come from its own
    tuple, priced by ``power_sum_dense`` itself.
    """
    if t < 2:
        raise ValidationError(f"t must be >= 2, got {t}")
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    if source.kind != "explicit":
        k = 2 if source.kind == "squares" else source.exponent
        root = integer_root(horizon, k)
        price([Shape(root + 1, ((0, root**k),), root + 1)] * t, cap=horizon, budget=budget)
    factor = ([source.up_to(horizon)], None)
    counts = power_sum_dense([factor] * t, cap=horizon, budget=budget)
    counts.flags.writeable = False
    return RepProfile(source, t, horizon, counts)


@dataclass(frozen=True)
class EtStarReport:
    """Growth summary of a representation profile over doubling windows.

    The slope is the least-squares fit of log(window max) against
    log(window start); a slope near zero is consistent with the few-
    representations property, but no verdict is asserted -- the property
    itself is asymptotic.
    """

    max_count: int
    max_at: int
    windows: tuple[tuple[int, int], ...]  # (window start, max count in window)
    slope: float
    intercept: float


def et_star_report(profile: RepProfile) -> EtStarReport:
    """Window maxima of a representation profile and their fitted growth.

    The windows are [2**i, 2**(i+1)) cut at the horizon; every figure is a
    Python int, whatever the profile's dtype."""
    if profile.horizon < 16:
        raise ValidationError("et_star_report needs horizon >= 16")
    counts = profile.counts
    max_at = int(np.argmax(counts))
    starts = 1 << np.arange(profile.horizon.bit_length())
    maxima = np.maximum.reduceat(counts[1:], starts - 1)
    windows = tuple(zip(starts.tolist(), maxima.tolist()))
    pts = [(s, m) for s, m in windows if m > 0]
    if len(pts) < 2:
        raise ValidationError("fewer than two nonzero windows; nothing to fit")
    xs = np.log([float(s) for s, _ in pts])
    ys = np.log([float(m) for _, m in pts])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return EtStarReport(int(counts[max_at]), max_at, windows, float(slope), float(intercept))
