"""Exact tables of s-fold power sums over weighted factors.

Every count in the library is built from one object: the table v -> m(v),
where m(v) is the total weight of the ordered tuples (x_1, ..., x_n) whose
keys add up to v, with x_i running over the i-th factor.  It is built here by
repeated ordered convolution, one factor at a time, starting from the table
{0: 1} of the empty sum.

``price``, the one budget rule for tables, predicts a table's backend, work
and peak bytes from one ``Shape`` per factor before anything is allocated;
``power_sum_table`` and the callers that refuse before enumerating call it.

* dense -- one key component, no modulus, all keys >= 0, and the array fits
  the byte budget: a 1-D array indexed by key value, each factor folded in by
  a shift or a scatter step, whichever ``_dense_step`` prices lower.
* sparse -- otherwise: each key tuple is packed into one integer in mixed
  radix, every pairwise sum of table and factor entries (a *candidate*) is
  formed at once, and equal keys are merged by a sort and ``np.add.reduceat``.

dtypes follow from a-priori bounds: packed keys and masses are int64 when the
packed range and the product of the factors' total |mass| fit, else Python
integers (object arrays); float weights use float64.  Rational weights arrive
as integers over one common D (``WeightAssignment``); callers divide it out once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, InvariantError, ValidationError

_INT64_LIMIT = 1 << 63
_OBJECT_ITEM_BYTES = 40  # one pointer plus a small Python int
# Cost model of a dense step, in vectorised element adds (see _dense).
_SHIFT_CALL = 2600
_SCATTER_CALL = 5000
_SCATTER_ELEMENT = 10
# Element adds per sparse candidate, the unit of work: on a 2-core x86 host an
# int64 candidate took 57-110 ns (median 75), a dense element add 0.4-0.5 ns.
_ADDS_PER_CANDIDATE = 160


@dataclass(frozen=True)
class Budget:
    """Limits past which a job is refused: ``max_tuples`` bounds a table's predicted work
    in candidates (and ``check_pairs``'s pairs), ``max_table_bytes`` its predicted bytes."""

    max_tuples: int = 10**9
    max_table_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        if self.max_tuples < 1 or self.max_table_bytes < 1:
            raise ValidationError(f"budget limits must be >= 1, got {self}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Table:
    """Keys (n, k) in increasing lexicographic order and their masses."""

    keys: np.ndarray
    masses: np.ndarray
    mass_bound: object  # a-priori bound on the sum of |masses|

    def sum_squares(self):
        """sum_v m(v)**2: an int for unit and integer weights, else a float."""
        m = self.masses
        if m.dtype == np.int64 and self.mass_bound**2 >= _INT64_LIMIT:
            m = m.astype(object)
        raw = (m * m).sum()
        return float(raw) if m.dtype == np.float64 else int(raw)


class Shape(NamedTuple):
    """What ``price`` reads of a factor: entries, (min, max) per key component, |mass|."""

    entries: int
    ranges: tuple
    mass: object

    @classmethod
    def of(cls, cols, ws) -> "Shape":
        ranges = tuple((min(col, default=0), max(col, default=0)) for col in cols)
        return cls(len(cols[0]), ranges, len(cols[0]) if ws is None else sum(map(abs, ws)))


class Plan(NamedTuple):
    """A priced table: dense length (None: sparse), packing widths, dtypes and costs."""

    length: int | None
    widths: list
    key_dtype: object
    mass_dtype: object
    mass_bound: object
    work: int
    nbytes: int


def check_pairs(n_tuples: int, max_tuples: int) -> None:
    """Refuse pairing n_tuples tuples, a predicted count, when n_tuples**2 > max_tuples."""
    if n_tuples * n_tuples > max_tuples:
        raise BudgetError(f"{n_tuples}**2 pairs exceed the tuple budget {max_tuples}")


def price(shapes: Sequence[Shape], *, modulus=None, cap=None, budget: Budget) -> Plan:
    """Price the table over factors of these shapes, a repeated factor passed as
    the same object.  After i factors it has at most min(W_i, M_i) keys: W_i is
    their key range (modulus**k under a modulus; a cap, applied last by the
    sparse backend, does not shrink it), M_i the product over each factor used c
    times of C(n + c - 1, c).  A sparse step costs #keys * #entries candidates
    (two keys, two masses and an index each), a dense step the cheaper
    ``_dense_step`` price at that key bound over _ADDS_PER_CANDIDATE.  Raises
    BudgetError at the first step whose running work or bytes exceed the budget.
    """
    k = len(shapes[0].ranges)
    mass_bound = math.prod([sh.mass for sh in shapes])  # a float for float weights
    is_float = isinstance(mass_bound, float)
    mass_dtype = np.float64 if is_float else np.int64 if mass_bound < _INT64_LIMIT else object
    mass_item = _OBJECT_ITEM_BYTES if mass_dtype is object else 8
    spans, key_ranges = [0] * k, []  # W_i after each factor
    for sh in shapes:
        spans = [w + hi - lo for w, (lo, hi) in zip(spans, sh.ranges)]
        key_ranges.append(math.prod([w + 1 for w in spans]) if modulus is None else modulus**k)
    # packing widths: under a modulus two residues add without carry
    widths = [w + 1 for w in spans] if modulus is None else [2 * modulus - 1] * k
    key_dtype = np.int64 if math.prod(widths) < _INT64_LIMIT else object
    step_bytes = 2 * ((_OBJECT_ITEM_BYTES if key_dtype is object else 8) + mass_item) + 8
    top = sum([sh.ranges[0][1] for sh in shapes])
    n = (top if cap is None else max(-1, min(top, cap))) + 1
    dense = k == 1 and modulus is None and min([sh.ranges[0][0] for sh in shapes]) >= 0
    length = n if dense and 2 * n * mass_item <= budget.max_table_bytes else None
    keys, multisets, used, cur, top, adds, work = 1, 1, {}, 1, 0, 0, 0
    nbytes = 0 if length is None else 2 * length * mass_item
    for i, sh in enumerate(shapes):
        if length is None:
            work += keys * sh.entries
            nbytes = max(nbytes, keys * sh.entries * step_bytes)
        else:
            top += sh.ranges[0][1]
            nxt = min(length, top + 1)
            adds += min(_dense_step(sh.entries, cur, min(cur, keys), min(sh.entries, nxt)))
            work, cur = -(-adds // _ADDS_PER_CANDIDATE), nxt
        if work > budget.max_tuples or nbytes > budget.max_table_bytes:
            raise BudgetError(f"table needs {work} candidates and {nbytes} bytes by factor {i + 1}"
                              f" of {len(shapes)}, allowed {budget.max_tuples} and "
                              f"{budget.max_table_bytes}")
        c = used[id(sh)] = used.get(id(sh), 0) + 1
        multisets = multisets * (sh.entries + c - 1) // c  # M_i
        keys = min(multisets, key_ranges[i])
    return Plan(length, widths, key_dtype, mass_dtype, mass_bound, work, nbytes)


def power_sum_table(
    factors: Sequence[tuple[Sequence[Sequence[int]], Sequence | None]],
    *,
    modulus: int | None = None,
    cap: int | None = None,
    budget: Budget,
) -> Table:
    """Exact table of the sums key(x_1) + ... + key(x_n), x_i over factor i.

    Each factor is ``(columns, weights)``: ``columns[j]`` holds component j of
    every entry's key, and ``weights`` the entry weights: None for unit, or a
    list of Python ints or of floats.  The masses are float64 when any factor
    has float weights, and exact integers otherwise.  ``modulus`` reduces
    every key component modulo it; ``cap`` drops keys with any component
    above it.  ``price`` refuses the table before its first step.  Without a
    cap the total mass must equal the product of the factor masses (checked
    in the exact dtypes, skipped for floats); a mismatch is an InvariantError.
    """
    distinct = {id(f): f for f in factors}  # [factor] * s is priced and reduced once
    by_id = {i: Shape.of(*f) for i, f in distinct.items()}
    shapes = [by_id[id(f)] for f in factors]
    plan = price(shapes, modulus=modulus, cap=cap, budget=budget)
    if modulus is not None:
        for i, (cols, ws) in distinct.items():
            distinct[i] = ([[c % modulus for c in col] for col in cols], ws)
        factors = [distinct[id(f)] for f in factors]
    masses_in = [[1] * len(cols[0]) if ws is None else ws for cols, ws in factors]
    if plan.length is not None:
        dense = _dense([cols[0] for cols, _ in factors], masses_in, plan.length, plan.mass_dtype)
        nz = np.flatnonzero(dense)
        keys, masses = nz.reshape(-1, 1), dense[nz]
    else:
        keys, masses = _sparse(factors, masses_in, shapes, modulus, plan)
        if cap is not None:
            keep = (keys <= cap).all(axis=1)
            keys, masses = keys[keep], masses[keep]
    if cap is None and plan.mass_dtype is not np.float64:
        total = int(masses.sum())
        expected = math.prod(sum(ms) for ms in masses_in)
        if total != expected:
            raise InvariantError(f"table mass {total} != product of factor masses {expected}")
    return Table(keys, masses, plan.mass_bound)


def _dense_step(entries: int, cur_len: int, nnz: int, distinct: int) -> tuple[int, int]:
    """(shift, scatter) prices of a dense step in element adds, a Python-level loop
    iteration with its NumPy calls counting as _SHIFT_CALL or _SCATTER_CALL."""
    return entries * (_SHIFT_CALL + cur_len), nnz * (_SCATTER_CALL + _SCATTER_ELEMENT * distinct)


def _dense(values: list, masses_in: list, length: int, dtype) -> np.ndarray:
    """Convolution into an array indexed by key value below length.

    Each step takes the kind ``_dense_step`` prices lower: a *shift*, one
    shifted add of the current array per factor entry, or a *scatter*,
    ``nxt[i + uv] += cur[i] * um`` per nonzero index i, where uv are the
    factor's distinct values, increasing, and um their masses summed in the
    mass dtype; uv has no repeats, so each fancy-index add is exact, and each
    row is cut where i + uv reaches the end of nxt.

    A table with few nonzeros, such as the squares or their pairwise sums,
    scatters; a dense one shifts.  The constants were timed on a 2-core x86
    host with int64 and float64 masses: a shifted add took 1.3 us plus 0.5 ns
    per element, a scatter row 2.5 us plus 5 ns per value.  Counting element
    operations alone, without the per-call terms, picks scatter for small
    dense tables and made such steps several times slower.
    """
    cur = np.ones(1, dtype=dtype)
    top = 0
    for f_values, f_masses in zip(values, masses_in):
        top += max(f_values, default=0)
        nxt = np.zeros(min(length, top + 1), dtype=dtype)
        uv, um = _distinct(f_values, f_masses, len(nxt), dtype)
        shift, scatter = _dense_step(len(f_values), len(cur), np.count_nonzero(cur), len(uv))
        if scatter < shift:
            rows = np.flatnonzero(cur)
            cuts = np.searchsorted(uv, len(nxt) - rows)
            for i, cut in zip(rows.tolist(), cuts.tolist()):
                nxt[i + uv[:cut]] += cur[i] * um[:cut]
        else:
            for a, w in zip(f_values, f_masses):
                n = min(len(cur), len(nxt) - a)
                if n > 0:
                    nxt[a : a + n] += cur[:n] if w == 1 else cur[:n] * w
        cur = nxt
    return cur


def _distinct(f_values, f_masses, size: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The factor's distinct values below size, increasing, and their summed masses."""
    if max(f_values, default=0) >= size:
        kept = [(v, w) for v, w in zip(f_values, f_masses) if v < size]
        f_values, f_masses = [v for v, _ in kept], [w for _, w in kept]
    vals = np.array(f_values, dtype=np.int64)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    first = np.flatnonzero(np.diff(vals, prepend=-1))
    masses = np.array(f_masses, dtype=dtype)[order]
    return vals[first], np.add.reduceat(masses, first) if len(first) else masses


def _sparse(factors, masses_in, shapes, modulus, plan: Plan):
    """Keys (n, k) and masses by pairwise sums of mixed-radix packed keys.

    Component 0 is the most significant digit, so packed order is
    lexicographic order.  Equal keys are merged by sort and np.add.reduceat.
    """
    widths, key_dtype, mass_dtype = plan.widths, plan.key_dtype, plan.mass_dtype
    # residues are packed as they are
    lo = [[low if modulus is None else 0 for low, _ in sh.ranges] for sh in shapes]
    offsets = [sum(col) for col in zip(*lo)]
    strides = [math.prod(widths[j + 1 :]) for j in range(len(widths))]

    keys = np.zeros(1, dtype=key_dtype)
    masses = np.ones(1, dtype=mass_dtype)
    packed = {}  # by factor identity: [factor] * s is packed once
    for factor, f_masses, f_lo in zip(factors, masses_in, lo):
        if id(factor) not in packed:
            packed[id(factor)] = _pack(factor[0], f_lo, strides, key_dtype)
        cand = (keys[:, None] + packed[id(factor)][None, :]).ravel()
        cand_mass = np.outer(masses, np.array(f_masses, dtype=mass_dtype)).ravel()
        if modulus is not None:
            for stride in strides:
                cand[cand // stride % widths[0] >= modulus] -= modulus * stride
        order = np.argsort(cand, kind="stable")
        cand, cand_mass = cand[order], cand_mass[order]
        new = np.ones(len(cand), dtype=bool)
        new[1:] = cand[1:] != cand[:-1]
        first = np.flatnonzero(new)
        keys, masses = cand[first], np.add.reduceat(cand_mass, first)
    if any(abs(off) + w >= _INT64_LIMIT for w, off in zip(widths, offsets)):
        keys = keys.astype(object)  # narrow packed range, components beyond int64
    comps = [keys // st % w + off for st, w, off in zip(strides, widths, offsets)]
    return np.stack(comps, axis=1), masses


def _pack(cols, lo, strides, key_dtype) -> np.ndarray:
    """Each entry's key components, offset by lo, packed into one mixed-radix integer."""
    return np.array(
        [sum((c - low) * st for c, low, st in zip(entry, lo, strides)) for entry in zip(*cols)],
        dtype=key_dtype,
    )
