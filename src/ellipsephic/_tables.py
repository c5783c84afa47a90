"""Exact tables of s-fold power sums over weighted factors.

Every count in the library is built from one object: the table v -> m(v),
where m(v) is the total weight of the ordered tuples (x_1, ..., x_n) whose
keys add up to v, with x_i running over the i-th factor.  It is built here by
repeated ordered convolution, one factor at a time, starting from the table
{0: 1} of the empty sum.

The backend is selected from the input:

* dense -- one key component, no modulus, all keys >= 0, and the array fits
  the byte budget: a 1-D array indexed by key value.  Each factor is folded in
  by whichever step the cost model of ``_dense`` prices lower: a *shift*, one
  shifted add of the whole array per factor entry, or a *scatter*, one
  fancy-index add of the factor's distinct values per nonzero entry of the
  table (a scatter row costs like 5,000 element adds, a shifted add like
  2,600 plus its length).
* sparse -- otherwise: each key tuple is packed into one integer in mixed
  radix, every pairwise sum of table and factor entries is formed at once, and
  equal keys are merged by a sort and ``np.add.reduceat``.

dtypes are chosen from a-priori bounds, never after the fact: packed keys are
int64 when the packed range fits, masses are int64 when the product of the
factors' total absolute masses fits, and otherwise both are Python integers
(object arrays).  Float weights use float64.  Rational weights arrive scaled
to integers by one common D (``meanvalue.WeightAssignment``); the callers
divide by the power of D once, when they read a table's values or its sum of
squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, InvariantError, ValidationError

_INT64_LIMIT = 1 << 63
_OBJECT_ITEM_BYTES = 40  # one pointer plus a small Python int
# Cost model of a dense step, in vectorised element adds (see _dense).
_SHIFT_CALL = 2600
_SCATTER_CALL = 5000
_SCATTER_ELEMENT = 10


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


def check_multisets(y: int, s: int, max_tuples: int) -> None:
    """Refuse an s-fold table over y entries when C(y+s-1, s) exceeds the budget."""
    if s < 0:  # callers may check a job's s before its engine validates it
        raise ValidationError(f"an s-fold table needs s >= 0, got {s}")
    n_multisets = math.comb(max(y + s - 1, 0), s)  # C(-1, 0) = 1: y = s = 0
    if n_multisets > max_tuples:
        raise BudgetError(
            f"{n_multisets} multisets exceed the tuple budget {max_tuples}"
        )


def check_pairs(n_tuples: int, max_tuples: int) -> None:
    """Refuse pairing n_tuples tuples when n_tuples**2 exceeds the tuple budget.

    Callers apply it to a predicted tuple count, before any tuple exists.
    """
    if n_tuples * n_tuples > max_tuples:
        raise BudgetError(f"{n_tuples}**2 pairs exceed the tuple budget {max_tuples}")


def _item_bytes(dtype) -> int:
    return _OBJECT_ITEM_BYTES if dtype == object else 8


def power_sum_table(
    factors: Sequence[tuple[Sequence[Sequence[int]], Sequence | None]],
    *,
    modulus: int | None = None,
    cap: int | None = None,
    max_bytes: int,
) -> Table:
    """Exact table of the sums key(x_1) + ... + key(x_n), x_i over factor i.

    Each factor is ``(columns, weights)``: ``columns[j]`` holds component j of
    every entry's key, and ``weights`` the entry weights: None for unit, or a
    list of Python ints or of floats.  The masses are float64 when any factor
    has float weights, and exact integers otherwise.  ``modulus`` reduces
    every key component modulo it; ``cap`` drops keys with any component
    above it.  Each step refuses with BudgetError before allocating more than ``max_bytes``.
    Without a cap the total mass must equal the product of the factor masses
    (checked in the exact dtypes, skipped for floats); a mismatch is an
    InvariantError.
    """
    if modulus is not None:  # by factor identity, so [factor] * s is reduced once
        reduced = {id(f): f for f in factors}
        for i, (cols, ws) in reduced.items():
            reduced[i] = ([[c % modulus for c in col] for col in cols], ws)
        factors = [reduced[id(f)] for f in factors]
    masses_in = [[1] * len(cols[0]) if ws is None else ws for cols, ws in factors]
    is_float = any(isinstance(ms[0], float) for ms in masses_in if ms)
    mass_bound = math.prod(sum(abs(w) for w in ms) for ms in masses_in)
    mass_dtype = np.float64 if is_float else np.int64 if mass_bound < _INT64_LIMIT else object

    keys = None
    values = [cols[0] for cols, _ in factors]
    nonnegative = all(min(v, default=0) >= 0 for v in values)
    if len(factors[0][0]) == 1 and modulus is None and nonnegative:
        top = sum(max(v, default=0) for v in values)
        length = (top if cap is None else max(-1, min(top, cap))) + 1
        if 2 * length * _item_bytes(mass_dtype) <= max_bytes:
            dense = _dense(values, masses_in, length, mass_dtype)
            nz = np.flatnonzero(dense)
            keys, masses = nz.reshape(-1, 1), dense[nz]
    if keys is None:
        keys, masses = _sparse(factors, masses_in, modulus, mass_dtype, max_bytes)
        if cap is not None:
            keep = (keys <= cap).all(axis=1)
            keys, masses = keys[keep], masses[keep]

    if cap is None and not is_float:
        total = int(masses.sum())
        expected = math.prod(sum(ms) for ms in masses_in)
        if total != expected:
            raise InvariantError(
                f"table mass {total} != product of factor masses {expected}"
            )
    return Table(keys, masses, mass_bound)


def _dense(values: list, masses_in: list, length: int, dtype) -> np.ndarray:
    """Convolution into an array indexed by key value below length.

    Each step takes the cheaper of two kinds, costed in vectorised element
    adds, where one Python-level loop iteration with its NumPy calls counts as
    _SHIFT_CALL or _SCATTER_CALL of them:

    * shift -- one shifted add of the current array per factor entry:
      #entries * (_SHIFT_CALL + len(cur));
    * scatter -- ``nxt[i + uv] += cur[i] * um`` per nonzero index i, where uv
      are the factor's distinct values, increasing, and um their masses summed
      in the mass dtype; uv has no repeats, so each fancy-index add is exact,
      and each row is cut where i + uv reaches the end of nxt:
      nnz * (_SCATTER_CALL + _SCATTER_ELEMENT * |uv|).

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
        nnz = np.count_nonzero(cur)
        shift = len(f_values) * (_SHIFT_CALL + len(cur))
        if nnz * (_SCATTER_CALL + _SCATTER_ELEMENT * len(uv)) < shift:
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


def _sparse(factors, masses_in, modulus, mass_dtype, max_bytes):
    """Keys (n, k) and masses by pairwise sums of mixed-radix packed keys.

    Component 0 is the most significant digit, so packed order is
    lexicographic order.  Equal keys are merged by sort and np.add.reduceat.
    """
    k = len(factors[0][0])
    if modulus is not None:
        lo = [[0] * k for _ in factors]  # residues are packed as they are
        widths = [2 * modulus - 1] * k  # two residues add without carry
    else:
        lo = [[min(col, default=0) for col in cols] for cols, _ in factors]
        widths = [1] * k
        for (cols, _), f_lo in zip(factors, lo):
            for j, col in enumerate(cols):
                widths[j] += max(col, default=0) - f_lo[j]
    offsets = [sum(f_lo[j] for f_lo in lo) for j in range(k)]
    strides = [math.prod(widths[j + 1 :]) for j in range(k)]
    key_dtype = np.int64 if math.prod(widths) < _INT64_LIMIT else object
    step_bytes = 2 * (_item_bytes(key_dtype) + _item_bytes(mass_dtype)) + 8

    keys = np.zeros(1, dtype=key_dtype)
    masses = np.ones(1, dtype=mass_dtype)
    packed = {}  # by factor identity: [factor] * s is packed once
    for factor, f_masses, f_lo in zip(factors, masses_in, lo):
        cols = factor[0]
        need = len(keys) * len(cols[0]) * step_bytes
        if need > max_bytes:
            raise BudgetError(
                f"table step needs ~{need} bytes > memory budget {max_bytes}"
            )
        if id(factor) not in packed:
            packed[id(factor)] = _pack(cols, f_lo, strides, key_dtype)
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
