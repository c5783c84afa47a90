"""Exact tables of s-fold power sums over weighted factors.

Every count in the library is built from one object: the table v -> m(v),
where m(v) is the total weight of the ordered tuples (x_1, ..., x_n) whose
keys add up to v, with x_i running over the i-th factor.  It is built here by
repeated ordered convolution, one factor at a time, starting from the table
{0: 1} of the empty sum.

``price``, the one budget rule for tables, predicts a table's backend, work,
peak bytes and key layout from one ``Shape`` per factor before anything is
allocated; ``power_sum_table``, ``power_sum_dense``, ``power_sum_squares`` and
the callers that refuse before enumerating call it.  ``_prepare`` then turns
each distinct factor into the backend's input once, so [factor] * s is
priced, reduced, packed and converted a single time.

* dense -- one key component, no modulus, all keys >= 0, and the array fits
  the byte budget: a 1-D array indexed by key value, each factor folded in by
  a shift or a scatter step, whichever ``_dense_step`` prices lower; a
  scatter loops over the shorter of the table's nonzero rows and the
  factor's distinct values.  ``power_sum_dense`` returns that array itself.
* sparse -- otherwise: each key tuple is packed into one integer in mixed
  radix, every pairwise sum of table and factor entries (a *candidate*) is
  formed at once, and equal keys are merged by a sort and ``np.add.reduceat``.
  When the largest key and the largest mass, both int64 and >= 0, fit 63 bits
  together, each mass is packed below its key and the one array is sorted in
  place (NumPy's default sort); it splits back into keys, increasing, and
  masses.  Masses of equal keys then add in another order, which leaves an
  int64 sum unchanged.  Object keys or masses, float masses and wider pairs
  take a stable argsort instead, so float sums keep their order bit for bit.
* count-only -- ``power_sum_squares`` returns sum_v m(v)**2 alone.  Keys whose
  component 0 differs mod q differ, so the sum splits over the classes
  c = v_0 mod q.  The sparse backend builds the first n - 1 factors as above
  and folds the last one in one *slice* per class: each table group of
  residue a paired with each factor entry of residue c - a, merged, summed
  and dropped.  Only the table is grouped, so a slice's candidate count, the
  sum of its pairs' group sizes, is known before any candidate exists.  A
  step within _SLICE_CANDIDATES (a working set, not the budget: price's
  bytes would leave whole steps of gigabytes unsliced), or whose keys admit
  no q > 1, is one merge of all its candidates, as a sparse step of
  ``power_sum_table``.  Otherwise q is the smallest power b, b**2, ... whose
  largest slice fits, else the finest q the keys admit below 2**62, where
  sums of two residues still fit int64.  b is 2, or under a modulus its
  smallest prime factor (p for the moduli p**B of the congruence counts), so
  q divides the modulus and reducing a key mod it keeps its class.  The
  dense backend builds its whole array, which is the table.

dtypes follow from a-priori bounds: packed keys and masses are int64 when the
packed range and the mass bound fit, else Python integers (object arrays);
float weights use float64.  The mass bound is the product of the factors'
total |mass|, an exact factor's counted as at least 1, and bounds every
partial sum.  A dense plan with int64 masses and a bound below 2**31 works in
an int32 array and returns it widened to int64, so every table, array and
sum of squares handed out is in the plan's dtype.  Rational weights arrive
as integers over one common D (``WeightAssignment``); callers divide it out once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, InvariantError, ValidationError

_INT64_LIMIT = 1 << 63
_INT32_LIMIT = 1 << 31
_OBJECT_ITEM_BYTES = 40  # one pointer plus a small Python int
# Cost model of a dense step, in vectorised element adds (see _dense).
_SHIFT_CALL = 2600
_SCATTER_CALL = 5000
_SCATTER_ELEMENT = 10
# Element adds per sparse candidate, the unit of work: on a 2-core x86 host an
# int64 candidate took 57-110 ns (median 75), a dense element add 0.4-0.5 ns.
# Timed before the fused sort of _merge made most int64 candidates cheaper; it
# is not retuned, since a new value would move which jobs are refused.
_ADDS_PER_CANDIDATE = 160
# Candidates per slice of a count-only last step, about 10 MB of working set.
_SLICE_CANDIDATES = 1 << 18


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


@dataclass(frozen=True, eq=False)
class Table:
    """Keys (n, k) in increasing lexicographic order and their masses; ``len``
    is n.  Also ``meanvalue.multiplicity_table``'s result, so it compares and
    hashes by identity, since an array has no single truth value."""

    keys: np.ndarray
    masses: np.ndarray
    mass_bound: object  # a-priori bound on the sum of |masses|

    def __len__(self) -> int:
        return len(self.keys)

    def sum_squares(self):
        """sum_v m(v)**2: an int for unit and integer weights, else a float."""
        return _sum_squares(self.masses, self.mass_bound)


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
    """A priced table: dense length (None: sparse), key layout, dtypes and costs.

    The layout packs key tuples into one integer in mixed radix with these
    ``widths`` and ``strides``: component 0 is the most significant digit, so
    packed order is lexicographic order.  Each factor's keys are packed less
    its per-component lows (0 under ``modulus``: residues are packed as they
    are), so a sum of packed keys is the packed key of the sum less
    ``offsets``, the sums of the factors' lows.
    """

    length: int | None
    widths: list
    strides: list
    offsets: list
    modulus: int | None
    key_dtype: object
    mass_dtype: object
    mass_bound: object
    work: int
    nbytes: int

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """Packed keys of the whole table as an (n, k) array of components."""
        if any(abs(off) + w >= _INT64_LIMIT for w, off in zip(self.widths, self.offsets)):
            keys = keys.astype(object)  # narrow packed range, components beyond int64
        comps = [keys // st % w + off for st, w, off in zip(self.strides, self.widths, self.offsets)]
        return np.stack(comps, axis=1)


def check_pairs(n_tuples: int, max_tuples: int) -> None:
    """Refuse pairing n_tuples tuples, a predicted count, when n_tuples**2 > max_tuples."""
    if n_tuples * n_tuples > max_tuples:
        raise BudgetError(f"{n_tuples}**2 pairs exceed the tuple budget {max_tuples}")


def price(shapes: Sequence[Shape], *, modulus=None, cap=None, budget: Budget) -> Plan:
    """Price the table over factors of these shapes, a repeated factor passed as
    the same object.  After i factors it has at most min(W_i, M_i) keys: W_i is
    their key range, the product over the components of the sums of the
    factors' extents plus 1 (a cap, applied last by the sparse backend, does
    not shrink it), M_i the product over each factor used c times of
    C(n + c - 1, c).  A factor's extent is hi - lo, or under a modulus its
    largest residue: hi when 0 <= lo <= hi < modulus, else modulus - 1, with
    W_i's terms at most the modulus.  A component's packing width is then
    min(sum of extents, modulus - 1 + largest extent) + 1: a reduced table
    component plus a factor's; the plan carries the whole key layout.  A
    sparse step costs #keys * #entries candidates (two keys, two masses and
    an index each), a dense step the cheaper ``_dense_step`` price at that
    key bound over _ADDS_PER_CANDIDATE.  Raises BudgetError at the first
    step whose running work or bytes exceed the budget.
    """
    k = len(shapes[0].ranges)
    # a float for float weights; an exact factor's total counts as at least 1,
    # so an all-zero factor leaves the bound over every other factor
    mass_bound = math.prod([sh.mass if isinstance(sh.mass, float) else max(sh.mass, 1)
                            for sh in shapes])
    is_float = isinstance(mass_bound, float)
    mass_dtype = np.float64 if is_float else np.int64 if mass_bound < _INT64_LIMIT else object
    mass_item = _OBJECT_ITEM_BYTES if mass_dtype is object else 8
    spans, largest, key_ranges = [0] * k, [0] * k, []  # W_i after each factor
    for sh in shapes:
        if modulus is None:
            spans = [w + hi - lo for w, (lo, hi) in zip(spans, sh.ranges)]
            key_ranges.append(math.prod([w + 1 for w in spans]))
        else:  # each component's largest residue
            ext = [hi if 0 <= lo <= hi < modulus else modulus - 1 for lo, hi in sh.ranges]
            spans = [w + e for w, e in zip(spans, ext)]
            largest = list(map(max, largest, ext))
            key_ranges.append(math.prod([min(w + 1, modulus) for w in spans]))
    # packing widths: under a modulus, a reduced table component plus a factor's
    widths = ([w + 1 for w in spans] if modulus is None
              else [min(w, modulus - 1 + most) + 1 for w, most in zip(spans, largest)])
    strides = [math.prod(widths[j + 1 :]) for j in range(k)]
    offsets = [0 if modulus is not None else sum([sh.ranges[j][0] for sh in shapes])
               for j in range(k)]
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
    return Plan(length, widths, strides, offsets, modulus, key_dtype, mass_dtype, mass_bound,
                work, nbytes)


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
    prepared, plan, mass = _prepare(factors, modulus, cap, budget)
    if plan.length is not None:
        dense = _dense(prepared, plan)
        nz = np.flatnonzero(dense)
        keys, masses = nz.reshape(-1, 1), dense[nz]
    else:
        keys, masses = _sparse(prepared, plan)
        keys = plan.unpack(keys)
        if cap is not None:
            keep = (keys <= cap).all(axis=1)
            keys, masses = keys[keep], masses[keep]
    if cap is None and plan.mass_dtype is not np.float64:
        _check_mass(int(masses.sum()), mass)
    return Table(keys, masses, plan.mass_bound)


def power_sum_dense(
    factors: Sequence[tuple[Sequence[Sequence[int]], Sequence | None]],
    *,
    cap: int,
    budget: Budget,
) -> np.ndarray:
    """``power_sum_table`` of keys of one component >= 0 as the dense backend's
    own array of length cap + 1, index v holding m(v), with no keys built.

    Priced as ``power_sum_table`` is, with the same mass dtype.  Refused when
    ``price`` finds no dense array within the byte budget (a sparse table of
    such keys would need more bytes per candidate than the array per key),
    or when the cap + 1 entries returned would not fit it.
    """
    prepared, plan, _ = _prepare(factors, None, cap, budget)
    item = _OBJECT_ITEM_BYTES if plan.mass_dtype is object else 8
    if plan.length is None or (cap + 1) * item > budget.max_table_bytes:
        raise BudgetError(f"no dense table of keys up to {cap} fits {budget.max_table_bytes} bytes")
    dense = _dense(prepared, plan)
    if len(dense) <= cap:  # every sum is below the cap
        dense = np.concatenate((dense, np.zeros(cap + 1 - len(dense), dtype=dense.dtype)))
    return dense


def power_sum_squares(
    factors: Sequence[tuple[Sequence[Sequence[int]], Sequence | None]],
    *,
    modulus: int | None = None,
    cap: int | None = None,
    budget: Budget,
) -> int | float:
    """sum_v m(v)**2 over ``power_sum_table`` of the same arguments, without its keys.

    Priced and checked as ``power_sum_table`` is; the sparse backend folds the
    last factor in one slice at a time (see the module docstring), applies the
    cap per slice and checks the slices' total mass.  An int for unit and
    integer weights, else a float, summed slice by slice.
    """
    prepared, plan, mass = _prepare(factors, modulus, cap, budget)
    if plan.length is not None:  # the zeros of the dense array add nothing
        slices = [_dense(prepared, plan)]
    else:
        slices = _last_step(prepared, plan, cap)
    exact = plan.mass_dtype is not np.float64
    total, squares = 0, 0 if exact else 0.0
    for masses in slices:
        if exact:
            total += int(masses.sum())
        squares += _sum_squares(masses, plan.mass_bound)
    if cap is None and exact:
        _check_mass(total, mass)
    return squares


def _prepare(factors, modulus, cap, budget):
    """Price the table, then turn each distinct factor into (keys, masses)
    once, masses 1 for unit weights: for a dense plan its one column and its
    masses as lists, for a sparse one its keys reduced mod the modulus and
    packed, and its masses as an array of the plan's mass dtype.  Returns
    them in factor order, the plan and the product of the factors' total
    masses."""
    distinct = {id(f): f for f in factors}  # [factor] * s is prepared once
    shapes = {i: Shape.of(*f) for i, f in distinct.items()}
    plan = price([shapes[id(f)] for f in factors], modulus=modulus, cap=cap, budget=budget)
    totals = {}
    for i, (cols, ws) in distinct.items():
        ms = [1] * len(cols[0]) if ws is None else ws
        totals[i] = sum(ms)
        if plan.length is not None:
            distinct[i] = (cols[0], ms)
            continue
        if modulus is not None:
            cols = [[c % modulus for c in col] for col in cols]
        lo = [low if modulus is None else 0 for low, _ in shapes[i].ranges]
        distinct[i] = (_pack(cols, lo, plan.strides, plan.key_dtype),
                       np.array(ms, dtype=plan.mass_dtype))
    mass = math.prod([totals[id(f)] for f in factors])
    return [distinct[id(f)] for f in factors], plan, mass


def _check_mass(total: int, expected: int) -> None:
    if total != expected:
        raise InvariantError(f"table mass {total} != product of factor masses {expected}")


def _sum_squares(masses: np.ndarray, mass_bound):
    """sum m**2, in Python integers when the squares may pass int64."""
    if masses.dtype == np.int64 and mass_bound**2 >= _INT64_LIMIT:
        masses = masses.astype(object)
    raw = (masses * masses).sum()
    return float(raw) if masses.dtype == np.float64 else int(raw)


def _dense_step(entries: int, cur_len: int, nnz: int, distinct: int) -> tuple[int, int]:
    """(shift, scatter) prices of a dense step in element adds, a Python-level loop
    iteration with its NumPy calls counting as _SHIFT_CALL or _SCATTER_CALL."""
    return entries * (_SHIFT_CALL + cur_len), nnz * (_SCATTER_CALL + _SCATTER_ELEMENT * distinct)


def _dense(prepared: list, plan: Plan) -> np.ndarray:
    """Convolution of the prepared (values, masses) lists into an array of
    the plan's mass dtype, indexed by key value below its length.

    Each step takes the kind ``_dense_step`` prices lower: a *shift*, one
    shifted add of the current array per factor entry, or a *scatter* of the
    current array's nonzero indices, its rows, over the factor's distinct
    values uv below the length of nxt, increasing, with their masses um
    summed by ``_merge``.  A scatter loops over the shorter of the two index
    sets: ``nxt[i + uv] += cur[i] * um`` per row i, or
    ``nxt[rows + v] += cur[rows] * m`` per value v of mass m, each cut where
    the sums reach the end of nxt.  Neither rows nor uv has repeats, so each
    fancy-index add is exact.  ``_dense_step`` prices the row loop; for the
    value loop, the shorter one, its scatter price is an upper bound.

    A table with few nonzeros, such as the squares or their pairwise sums,
    scatters; a dense one shifts.  The constants were timed on a 2-core x86
    host with int64 and float64 masses: a shifted add took 1.3 us plus 0.5 ns
    per element, a scatter row 2.5 us plus 5 ns per value.  Counting element
    operations alone, without the per-call terms, picks scatter for small
    dense tables and made such steps several times slower.  These
    int64-timed constants are not retuned for the value loop or int32
    arrays, since new values would move step kinds and refusals.

    An int64 plan whose mass bound is below 2**31 works in int32, which
    bounds every partial sum as it does the int64 one, and widens the
    finished array once.
    """
    dtype = plan.mass_dtype
    if dtype is np.int64 and plan.mass_bound < _INT32_LIMIT:
        dtype = np.int32
    cur = np.ones(1, dtype=dtype)
    top = 0
    for f_values, f_masses in prepared:
        top += max(f_values, default=0)
        nxt = np.zeros(min(plan.length, top + 1), dtype=dtype)
        vals = np.array(f_values)  # object past int64, so cut before the cast
        below = vals < len(nxt)
        masses = np.array(f_masses, dtype=dtype)[below]
        uv, um = _merge(vals[below].astype(np.int64), masses, plan)
        um = um.astype(dtype, copy=False)  # np.add.reduceat sums int32 in int64
        shift, scatter = _dense_step(len(f_values), len(cur), np.count_nonzero(cur), len(uv))
        if scatter < shift:
            rows = np.flatnonzero(cur)
            if len(uv) < len(rows):
                row_masses = cur[rows]
                cuts = np.searchsorted(rows, len(nxt) - uv)
                for v, m, cut in zip(uv.tolist(), um.tolist(), cuts.tolist()):
                    nxt[rows[:cut] + v] += row_masses[:cut] * m
            else:
                cuts = np.searchsorted(uv, len(nxt) - rows)
                for i, cut in zip(rows.tolist(), cuts.tolist()):
                    nxt[i + uv[:cut]] += cur[i] * um[:cut]
        else:
            for a, w in zip(f_values, f_masses):
                n = min(len(cur), len(nxt) - a)
                if n > 0:
                    nxt[a : a + n] += cur[:n] if w == 1 else cur[:n] * w
        cur = nxt
    return cur.astype(plan.mass_dtype, copy=False)


def _sparse(prepared: list, plan: Plan):
    """Packed keys and masses of the table over the prepared (packed keys,
    masses) factors, by one ``_step`` per factor."""
    keys = np.zeros(1, dtype=plan.key_dtype)
    masses = np.ones(1, dtype=plan.mass_dtype)
    for f_keys, f_masses in prepared:
        keys, masses = _step(keys, masses, f_keys, f_masses, plan)
    return keys, masses


def _step(keys, masses, f_keys, f_masses, plan: Plan):
    """The table folded with one factor: every candidate at once, one merge."""
    return _merge((keys[:, None] + f_keys[None, :]).ravel(),
                  np.outer(masses, f_masses).ravel(), plan)


def _merge(cand: np.ndarray, cand_mass: np.ndarray, plan: Plan):
    """Reduce the candidates' components mod the modulus, if any, then sum the
    masses of equal keys by a sort and np.add.reduceat: the distinct keys,
    increasing, and their masses.  Only a component wider than the modulus
    can reach it.  The inputs are reordered in place.

    When ``_mass_bits`` finds room, each mass is packed below its key and the
    one int64 array is sorted in place by NumPy's default (unstable) sort:
    equal keys come out adjacent with their masses in another order, which
    leaves an int64 sum unchanged.  Otherwise (object keys or masses, float
    masses, or a key and mass too wide to share 63 bits) a stable argsort
    orders both arrays, so float sums keep their order bit for bit.
    """
    modulus = plan.modulus
    for stride, width in zip(plan.strides, plan.widths):
        if modulus is not None and width > modulus:
            cand[cand // stride % width >= modulus] -= modulus * stride
    bits = _mass_bits(cand, cand_mass)
    if bits is None:
        order = np.argsort(cand, kind="stable")
        cand[:] = cand[order]  # in place: a caller's reference holds no second copy
        cand_mass[:] = cand_mass[order]
        del order
    else:
        cand <<= bits
        cand |= cand_mass
        cand.sort()
        np.bitwise_and(cand, (1 << bits) - 1, out=cand_mass)
        cand >>= bits
    first = _run_starts(cand)
    return cand[first], np.add.reduceat(cand_mass, first)


def _mass_bits(cand: np.ndarray, cand_mass: np.ndarray) -> int | None:
    """The bit length of the largest mass when the keys and masses are int64
    and >= 0 and the largest key and largest mass fit 63 bits together; else
    None, as for no candidates.  Measured before any shift, each by an OR:
    over values >= 0 it has the bit length of the largest, and a value < 0
    makes it negative."""
    if cand.dtype != np.int64 or cand_mass.dtype != np.int64 or not len(cand):
        return None
    keys, masses = int(np.bitwise_or.reduce(cand)), int(np.bitwise_or.reduce(cand_mass))
    bits = masses.bit_length()
    return bits if min(keys, masses) >= 0 and keys.bit_length() + bits <= 63 else None


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return np.flatnonzero(new)


class _Groups(NamedTuple):
    """The table's packed keys sorted by the residue of their digit 0 mod q: per
    residue present, increasing, its value and count, and its first sorted index."""

    order: np.ndarray
    residues: np.ndarray
    counts: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, packed: np.ndarray, plan: Plan, q: int) -> "_Groups":
        res = (packed // plan.strides[0] % q).astype(np.int64)
        order = np.argsort(res, kind="stable")
        res = res[order]
        starts = _run_starts(res)
        ends = np.concatenate((starts[1:], [len(res)]))
        return cls(order, res[starts], ends - starts, starts)


def _slice_pairs(table: _Groups, f_res: np.ndarray, q: int):
    """Every (table group a, factor entry j) pair, ordered by the slice (sum
    of residues mod q) it feeds, then by a and j; the index where each
    slice's pairs begin, with len(pairs) appended; and each slice's exact
    candidate count, the sum of its pairs' table group counts."""
    c = (table.residues[:, None] + f_res) % q  # pair (a, j) at a * len(f_res) + j
    order = np.argsort(c, axis=None, kind="stable")
    first = _run_starts(c.ravel()[order])
    del c
    a, j = np.divmod(order, len(f_res))
    sizes = np.add.reduceat(table.counts[a], first)
    return a, j, np.append(first, len(order)), sizes


def _last_step(prepared: list, plan: Plan, cap):
    """The masses of the table over the prepared factors, the first n - 1
    folded in by ``_sparse``, the last by ``_slices``, each slice after its cap."""
    for s_keys, s_masses in _slices(_sparse(prepared[:-1], plan), prepared[-1], plan):
        if cap is not None:
            s_masses = s_masses[(plan.unpack(s_keys) <= cap).all(axis=1)]
        yield s_masses


def _slices(table, factor, plan: Plan):
    """The merged keys and masses of the table folded with the factor: one
    ``_step`` when the step fits _SLICE_CANDIDATES or no q > 1 is admissible,
    else one ``_slice`` per residue class mod the first q of ``_moduli``
    whose largest slice fits, or its last."""
    keys, masses = table
    f_keys, f_masses = factor
    qs = [] if len(keys) * len(f_keys) <= _SLICE_CANDIDATES else list(_moduli(plan))
    if not qs:
        yield _step(keys, masses, f_keys, f_masses, plan)
        return
    for q in qs:
        groups = _Groups.of(keys, plan, q)
        f_res = (f_keys // plan.strides[0] % q).astype(np.int64)
        a, j, bounds, sizes = _slice_pairs(groups, f_res, q)
        if sizes.max() <= _SLICE_CANDIDATES:
            break
    keys, masses = keys[groups.order], masses[groups.order]
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        yield _slice((keys, masses, groups), factor, a[lo:hi], j[lo:hi], plan)


def _moduli(plan: Plan):
    """The admissible q > 1, increasing: the powers of b (see the module
    docstring) that divide the modulus, with two residues adding up within
    int64, up to the first past which every class holds one value of digit 0."""
    modulus, q = plan.modulus, 1
    limit = plan.widths[0] if modulus is None else modulus
    base = 2 if modulus is None else _least_prime_factor(modulus)
    while q < limit and (modulus is None or modulus % (q * base) == 0) and (
            2 * q * base < _INT64_LIMIT):
        q *= base
        yield q


def _slice(table, factor, a: np.ndarray, j: np.ndarray, plan: Plan):
    """One slice's merged keys and masses.  ``table`` is (keys, masses,
    groups) in its groups' sorted order, ``factor`` the prepared (keys,
    masses); the slice pairs every table entry of group a[i] with factor
    entry j[i].  Candidates are laid out pair by pair, each pair's table
    group gathered by one index array, the factor entry repeated over it."""
    keys, masses, groups = table
    f_keys, f_masses = factor
    runs = groups.counts[a]
    t = _ranges(groups.starts[a], runs)
    cand, cand_mass = keys[t], masses[t]
    del t
    cand += np.repeat(f_keys[j], runs)
    cand_mass *= np.repeat(f_masses[j], runs)
    return _merge(cand, cand_mass, plan)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges arange(start, start + count), concatenated."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out


def _least_prime_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def _pack(cols, lo, strides, key_dtype) -> np.ndarray:
    """Each entry's key components, offset by lo, packed into one mixed-radix integer."""
    return np.array(
        [sum((c - low) * st for c, low, st in zip(entry, lo, strides)) for entry in zip(*cols)],
        dtype=key_dtype,
    )
