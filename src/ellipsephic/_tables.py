"""Exact tables of s-fold power sums over weighted factors.

Every count in the library is built from one object: the table v -> m(v),
where m(v) is the total weight of the ordered tuples (x_1, ..., x_n) whose
keys add up to v, with x_i running over the i-th factor.  It is built here by
repeated convolution, one factor at a time, starting from the table {0: 1}
of the empty sum; a run of copies of one factor is convolved over its
multisets (the run fold below).

``price``, the one budget rule for tables, predicts a table's backend, work,
peak bytes and key layout from one ``Shape`` per factor before anything is
allocated; ``power_sum_table``, ``power_sum_dense``, ``power_sum_squares`` and
the callers that refuse before enumerating call it.  ``_prepare`` then turns
each distinct factor into the backend's input once: a sparse plan's
[factor] * s is reduced, packed and converted a single time, while the dense
backend converts and cuts each copy's values again at its own step.

* dense -- one key component, no modulus, all keys >= 0, and the array fits
  the byte budget: a 1-D array indexed by key value, each factor folded in by
  a shift or a scatter step, whichever ``_dense_step`` prices lower, or the
  leading copies of a run over multisets (below); a scatter and a run's last
  copy add their candidates into the array alike.  ``power_sum_dense``
  returns that array itself.
* sparse -- otherwise: each key tuple is packed into one integer in mixed
  radix, every pairwise sum of table and factor entries (a *candidate*) is
  formed at once, and equal keys are merged by a sort and ``np.add.reduceat``.
  When the largest key and the largest mass, both int64 and >= 0, fit 63 bits
  together, each mass is packed below its key and the one array is sorted in
  place (NumPy's default sort); it splits back into keys, increasing, and
  masses.  Masses of equal keys then add in another order, which leaves an
  int64 sum unchanged.  Object keys or masses, float masses and wider pairs
  take a stable argsort instead, so float sums keep their order bit for bit.
* run fold -- both backends fold a run of consecutive copies of one
  factor (``[factor] * s``, recognised by id) over non-decreasing factor
  indices, so each multiset of entries is formed once rather than once per
  ordering.  An entry of the run's state carries a key, a mass, l (the
  largest factor index used so far in the run) and mu (how many times l
  occurs).  Copy i + 1 pairs it with each factor entry j >= l at mass
  mass * w_j * (i + 1), divided by mu + 1 when j == l.  An entry's mass is
  thus its start key's times the multinomial i! / (c_0! c_1! ...) times
  w_{j_1} ... w_{j_i}, c_j counting the j's used, and the division is exact:
  the product is mu + 1 times the next such mass.  Entries stay sorted by l,
  each copy laying its candidates out j by j, so those pairing with j are a
  prefix.  They merge by key only after the run, each key's mass then being
  the ordered m(v).  ``price`` lists the copies that fold (see there): c
  of them only with no modulus (classes collide mod p**B), int64 keys and
  masses and mass_bound * c < 2**63 (each product is at most c times a term
  of the mass bound, so it fits before the division), and within its
  charge of the ordered steps, so no charge or refusal depends on the fold;
  float and object masses keep the ordered fold and its summation order.
  The sparse backend folds a whole run or none of it.  The dense one folds
  a run's leading copies, over the factor's distinct values: every one but
  the last drops the entries whose key reaches the array's length, and the
  last adds its candidates into the array by ``np.add.at``, since entries
  of distinct multisets can share a key.
* count-only -- ``power_sum_squares`` returns sum_v m(v)**2 alone.  Keys whose
  component 0 differs mod q differ, so the sum splits over the classes
  c = v_0 mod q.  The sparse backend folds every copy but the last as above,
  a run's left unmerged, and the last in one *slice* per class: each factor
  entry j paired with the group of residue c - (j's residue) of the table,
  or of the run's entries, merged, summed and dropped.  A slice thus has at
  most n pairs, built only when it is merged.  A run's group keeps its
  entries in order of l, so the entries pairing with j are the group's
  prefix with l <= j, counted off the grouped entries' ranks g * n + l,
  which increase; a merged table pairs whole groups.  Only the table is
  grouped, so a slice's candidate count, the sum of its pairs' prefix
  sizes, is known before any candidate exists; the q search sums them over
  blocks of groups, never every group with every factor entry at once.
  Merged keys are gathered only when a cap needs them.  A step within
  _SLICE_CANDIDATES (a cache-sized working set, so each slice merges in
  cache and reuses the last one's pages; not the budget: price's bytes
  would leave whole steps of gigabytes unsliced), or whose keys admit no
  q > 1, is one merge of all its candidates, as the last step of
  ``power_sum_table``.  Otherwise q is the smallest power b, b**2, ... whose
  largest slice fits, sought from the first with q * _SLICE_CANDIDATES >=
  the step's candidates, else the finest q the keys admit below 2**62,
  where sums of two residues still fit int64.  b is 2, or under a modulus
  its smallest prime factor (p for the moduli p**B of the congruence
  counts), so q divides the modulus and reducing a key mod it keeps its
  class; it is sought by trial division up to the step's candidate count
  only, and a modulus with no factor that small admits no q.  The dense
  backend builds its whole array, which is the table, and widens and
  squares it _DENSE_CHUNK entries at a time (exact masses; float ones
  whole, keeping their summation order).

dtypes follow from a-priori bounds: packed keys and masses are int64 when the
packed range and the mass bound fit, else Python integers (object arrays);
float weights use float64.  The mass bound is the product of the factors'
total |mass|, an exact factor's counted as at least 1, and bounds every
partial sum.  A dense plan with int64 masses and a bound below 2**31 works in
an int32 array; its nonzero masses, its array or its chunks are widened to
int64 as they are handed out, so every table, array and sum of squares is in
the plan's dtype.  Rational weights arrive as integers over one common D
(``WeightAssignment``); callers divide it out once.
"""

from __future__ import annotations

import itertools
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
# Candidates per slice of a count-only last step, sized to the cache: a slice's
# int64 keys, masses and merge temporaries, about 1 MiB each, fit a 2 MiB L2
# and stay below the heap's trim threshold once the allocator has raised it,
# so slice after slice reuses the same pages.  On a 2-core x86 host 2**17 was
# fastest of 2**15 .. 2**18; at 2**18 the k = 2, s = 3, Y = 161 count maps its
# temporaries afresh, about 4,500 page faults a call.  Not the budget either:
# price's bytes would leave whole steps of gigabytes unsliced.
_SLICE_CANDIDATES = 1 << 17
# Bytes of a dense run fold's unmerged entry: its int64 key, mass and reps,
# and the gather index of the step that forms it.
_RUN_ENTRY_BYTES = 32
# Entries per chunk of the dense backend's temporaries: a scatter step or a
# run fold's last copy forms its candidates, and a count widens and squares
# its array, this many at a time, about 0.3 MB of working set.
_DENSE_CHUNK = 1 << 13


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
    folds: tuple

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

    These are the ordered fold's costs.  ``folds`` flags, per factor,
    whether the run fold (see the module docstring) leaves that copy
    unmerged: every folded copy of a run but its last.  A run of c >= 2
    copies of one factor of n entries, entered at factor i by a table of at
    most b_i = min(W_i, M_i) keys, folds its first r copies when there is no
    modulus, keys and masses are int64 and mass_bound * r < 2**63, and each
    copy r' = 2 .. r stays within the charge above.  Sparse, whole runs
    only: the at most b_i * C(n + r' - 1, r') candidates are within the
    b_{i + r' - 1} * n charged the ordered step.  Dense, the leading copies:
    the ordered step at r' scatters (the cheaper kind), the fold's element
    adds n * _SCATTER_CALL + _SCATTER_ELEMENT * b_i * C(n + r' - 1, r') are
    within its scatter price, and the b_i * C(n + r' - 2, r' - 1) entries
    held unmerged before it, at _RUN_ENTRY_BYTES each, within the plan's
    bytes.
    """
    # a float for float weights; an exact factor's total counts as at least 1,
    # so an all-zero factor leaves the bound over every other factor
    mass_bound = math.prod([sh.mass if isinstance(sh.mass, float) else max(sh.mass, 1)
                            for sh in shapes])
    is_float = isinstance(mass_bound, float)
    mass_dtype = np.float64 if is_float else np.int64 if mass_bound < _INT64_LIMIT else object
    mass_item = _OBJECT_ITEM_BYTES if mass_dtype is object else 8
    bounds, spans, largest = _key_bounds(shapes, modulus)
    k = len(spans)
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
    adds, work = 0, 0
    nbytes = 0 if length is None else 2 * length * mass_item
    steps = None if length is None else list(_dense_prices(shapes, bounds, length))
    for i, (sh, keys) in enumerate(zip(shapes, bounds)):
        if length is None:
            work += keys * sh.entries
            nbytes = max(nbytes, keys * sh.entries * step_bytes)
        else:
            adds += min(steps[i])
            work = -(-adds // _ADDS_PER_CANDIDATE)
        if work > budget.max_tuples or nbytes > budget.max_table_bytes:
            raise BudgetError(f"table needs {work} candidates and {nbytes} bytes by factor {i + 1}"
                              f" of {len(shapes)}, allowed {budget.max_tuples} and "
                              f"{budget.max_table_bytes}")
    folds = (False,) * len(shapes)
    if modulus is None and key_dtype is mass_dtype is np.int64:
        folds = _run_folds(shapes, bounds, steps, mass_bound, nbytes)
    return Plan(length, widths, strides, offsets, modulus, key_dtype, mass_dtype, mass_bound,
                work, nbytes, folds)


def _key_bounds(shapes: Sequence[Shape], modulus):
    """``price``'s key bounds: min(W_i, M_i) for the table over the first i
    factors, i = 0 .. n (1 for the empty table), and each key component's
    sum of extents and, under a modulus, largest extent."""
    k = len(shapes[0].ranges)
    spans, largest, bounds, multisets, used = [0] * k, [0] * k, [1], 1, {}
    for sh in shapes:
        if modulus is None:
            spans = [w + hi - lo for w, (lo, hi) in zip(spans, sh.ranges)]
            key_range = math.prod([w + 1 for w in spans])
        else:  # each component's largest residue
            ext = [hi if 0 <= lo <= hi < modulus else modulus - 1 for lo, hi in sh.ranges]
            spans = [w + e for w, e in zip(spans, ext)]
            largest = list(map(max, largest, ext))
            key_range = math.prod([min(w + 1, modulus) for w in spans])
        c = used[id(sh)] = used.get(id(sh), 0) + 1
        multisets = multisets * (sh.entries + c - 1) // c  # M_i
        bounds.append(min(multisets, key_range))
    return bounds, spans, largest


def _run_folds(shapes: Sequence[Shape], bounds: list, prices: list | None, mass_bound: int,
               nbytes: int) -> tuple:
    """``price``'s ``folds`` (see there) of int64 keys and masses and no
    modulus, from its key bounds and, on a dense plan, its step prices."""
    folds, i = [False] * len(shapes), 0

    def fits(i: int, n: int, r: int) -> bool:  # the r-th copy of the run entered at factor i
        formed = bounds[i] * math.comb(n + r - 1, r)
        if prices is None:
            return formed <= bounds[i + r - 1] * n
        shift, scatter = prices[i + r - 1]
        return (scatter < shift and n * _SCATTER_CALL + _SCATTER_ELEMENT * formed <= scatter
                and bounds[i] * math.comb(n + r - 2, r - 1) * _RUN_ENTRY_BYTES <= nbytes)

    for _, same in itertools.groupby(shapes, key=id):
        copies, n = len(list(same)), shapes[i].entries
        folded = 1
        while (folded < copies and mass_bound * (folded + 1) < _INT64_LIMIT
               and fits(i, n, folded + 1)):
            folded += 1
        if prices is None and folded < copies:  # the sparse fold takes whole runs
            folded = 1
        folds[i : i + folded - 1] = [True] * (folded - 1)
        i += copies
    return tuple(folds)


def _dense_prices(shapes: Sequence[Shape], bounds: list, length: int):
    """``price``'s (shift, scatter) prices of each dense step, from the array
    length before it and the key bound b_i as its nonzero rows."""
    cur, top = 1, 0
    for sh, keys in zip(shapes, bounds):
        top += sh.ranges[0][1]
        nxt = min(length, top + 1)
        yield _dense_step(sh.entries, cur, min(cur, keys), min(sh.entries, nxt))
        cur = nxt


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
        nz = np.flatnonzero(dense != 0)  # a boolean scan, several times faster
        keys, masses = nz.reshape(-1, 1), dense[nz].astype(plan.mass_dtype, copy=False)
    else:
        keys, masses = _step(*_sparse(prepared, plan), plan)
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
    return dense.astype(plan.mass_dtype, copy=False)


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
    cap per slice and checks the slices' total mass; the dense one widens its
    array _DENSE_CHUNK entries at a time, or a float one whole.  An int
    for unit and integer weights, else a float, summed slice by slice.
    """
    prepared, plan, mass = _prepare(factors, modulus, cap, budget)
    exact = plan.mass_dtype is not np.float64
    if plan.length is not None:  # the zeros of the dense array add nothing
        dense = _dense(prepared, plan)
        step = _DENSE_CHUNK if exact else max(len(dense), 1)  # floats keep their order
        slices = (dense[lo : lo + step].astype(plan.mass_dtype, copy=False)
                  for lo in range(0, len(dense), step))
    else:
        slices = _last_step(prepared, plan, cap)
    total, squares = 0, 0 if exact else 0.0
    for masses in slices:
        if exact:
            total += int(masses.sum())
        squares += _sum_squares(masses, plan.mass_bound)
        del masses
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
    in_order = [shapes[id(f)] for f in factors]
    plan = price(in_order, modulus=modulus, cap=cap, budget=budget)
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
    """(shift, scatter) prices of a dense step in element adds: a shift per factor
    entry, a ``_scatter_run`` per nonzero row, their NumPy calls counting as
    _SHIFT_CALL or _SCATTER_CALL (timed on per-row loops; see ``_dense``)."""
    return entries * (_SHIFT_CALL + cur_len), nnz * (_SCATTER_CALL + _SCATTER_ELEMENT * distinct)


def _dense(prepared: list, plan: Plan) -> np.ndarray:
    """Convolution of the prepared (values, masses) lists into an array
    indexed by key value below the plan's length, in the work dtype: the
    plan's mass dtype, or int32 for an int64 plan whose mass bound is below
    2**31, which bounds every partial sum as it does the int64 one.

    A run's copies flagged in ``plan.folds``, and the copy after them, are
    folded over multisets (see the module docstring): the flagged ones by
    ``_run_step``, each dropping the entries whose key reaches the length
    (keys are >= 0, so they only grow).  Every other step takes the kind
    ``_dense_step`` prices lower: a *shift*, one shifted add of the current
    array per factor entry, or a *scatter*.  A scatter and the last folded
    copy are ``_scatter_run`` from the array's nonzero indices, its rows,
    with their masses in the plan's mass dtype (a merged table, the run of
    no copies), over the factor's distinct values below the length.

    A table with few nonzeros, such as the squares or their pairwise sums,
    scatters; a dense one shifts.  The constants were timed on a 2-core x86
    host with int64 and float64 masses: a shifted add took 1.3 us plus 0.5 ns
    per element, a scatter row 2.5 us plus 5 ns per value.  Counting element
    operations alone, without the per-call terms, picks scatter for small
    dense tables and made such steps several times slower.  These constants,
    timed on a loop over the rows, are not retuned for ``_scatter_run``,
    int32 arrays or the run fold: new values would move kinds and refusals.
    """
    dtype = plan.mass_dtype
    if dtype is np.int64 and plan.mass_bound < _INT32_LIMIT:
        dtype = np.int32
    cur = np.ones(1, dtype=dtype)
    run, top = None, 0
    for (f_values, f_masses), unmerged in zip(prepared, plan.folds):
        top += max(f_values, default=0)
        length = min(plan.length, top + 1)
        vals = np.array(f_values)  # object past int64, so cut before the cast
        below = vals < length
        masses = np.array(f_masses, dtype=plan.mass_dtype)[below]
        factor = _merge(vals[below].astype(np.int64), masses, plan)
        if run is None and not unmerged:  # an ordered step
            shift, scatter = _dense_step(len(f_values), len(cur), np.count_nonzero(cur),
                                         len(factor[0]))
            if scatter >= shift:
                nxt = np.zeros(length, dtype=dtype)
                for a, w in zip(f_values, f_masses):
                    n = min(len(cur), len(nxt) - a)
                    if n > 0:
                        nxt[a : a + n] += cur[:n] if w == 1 else cur[:n] * w
                cur = nxt
                continue
        if run is None:  # a scatter, or a folded run, starts from the nonzero rows
            rows = np.flatnonzero(cur != 0)
            run = _Run(rows, cur[rows].astype(plan.mass_dtype, copy=False))
        if unmerged:
            run = _cut(_run_step(run, factor), length)
        else:
            cur = np.zeros(length, dtype=dtype)
            _scatter_run(cur, run, factor)
            run = None
    return cur


def _cut(run: _Run, length: int) -> _Run:
    """The run without its entries of key >= length, ``ends`` recounted."""
    keep = run.keys < length
    if keep.all():
        return run
    kept = np.concatenate(([0], np.cumsum(keep)))[run.ends]
    return _Run(run.keys[keep], run.masses[keep], kept, run.reps[keep], run.copies)


def _scatter_run(out: np.ndarray, run: _Run, factor) -> None:
    """Add the run (or merged table) folded with one more copy into ``out``:
    its candidates, as ``_gather`` forms them, for consecutive factor values
    at a time, about _DENSE_CHUNK of them, those of key below len(out) added
    by ``np.add.at``, since keys repeat within a run.  A merged table forms
    only those (see ``_Pairs.whole``).  Each mass lands in ``out``'s dtype,
    being a term of the mass bound."""
    pairs = _Pairs.whole(run, factor[0], len(out))
    chunk = _run_starts((np.cumsum(pairs.counts) - 1) // _DENSE_CHUNK)
    bounds = np.append(chunk, len(pairs.j)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keys, masses = _gather(run, factor, pairs.cut(lo, hi))[:2]
        keep = keys < len(out)
        np.add.at(out, keys[keep], masses[keep].astype(out.dtype, copy=False))


class _Run(NamedTuple):
    """A table on its way through a run of copies of one factor, its
    entries not merged.  After i = ``copies`` copies there is one entry
    per key of the table the run started from and per non-decreasing factor
    indices j_1 <= ... <= j_i, of mass the key's times the multinomial
    i! / (c_0! c_1! ...) times w_{j_1} ... w_{j_i}, c_j counting the j's
    equal to j.  Entries are sorted by l = j_i: those with l <= j are the
    first ``ends[j]``.  ``reps`` holds c_l.  A merged table is the run of no
    copies, ends and reps None."""

    keys: np.ndarray
    masses: np.ndarray
    ends: np.ndarray | None = None
    reps: np.ndarray | None = None
    copies: int = 0


class _Pairs(NamedTuple):
    """Pairs of a run's entries with factor entries: entries [starts[p],
    starts[p] + counts[p]) with factor entry j[p], their l <= j[p], the last
    ties[p] of them with l == j[p] (ties None: a merged table)."""

    starts: np.ndarray
    counts: np.ndarray
    ties: np.ndarray | None
    j: np.ndarray

    @classmethod
    def whole(cls, run: _Run, f_keys: np.ndarray, length: int | None = None) -> "_Pairs":
        """Every entry of the run, in its order, with each factor entry it
        pairs with, j-major: the candidates come sorted by their l = j.  With
        a ``length``, a merged table, whose keys increase, pairs each factor
        entry only with the keys that stay below it when added."""
        n = len(f_keys)
        j, starts = np.arange(n), np.zeros(n, dtype=np.int64)
        if run.ends is None:
            counts = (np.full(n, len(run.keys)) if length is None
                      else np.searchsorted(run.keys, length - f_keys))
            return cls(starts, counts, None, j)
        return cls(starts, run.ends, np.diff(run.ends, prepend=0), j)

    def cut(self, lo: int, hi: int) -> "_Pairs":
        """Pairs lo .. hi - 1."""
        return _Pairs(*(None if x is None else x[lo:hi] for x in self))


def _sparse(prepared: list, plan: Plan):
    """The ``_Run`` over every prepared (packed keys, masses) factor but the
    last, and the last: a copy flagged in ``plan.folds`` folded in by
    ``_run_step``, any other by ``_step``."""
    run = _Run(np.zeros(1, dtype=plan.key_dtype), np.ones(1, dtype=plan.mass_dtype))
    for factor, unmerged in zip(prepared[:-1], plan.folds):
        run = _run_step(run, factor) if unmerged else _Run(*_step(run, factor, plan))
    return run, prepared[-1]


def _step(run: _Run, factor, plan: Plan, keys: bool = True):
    """The run folded with one more copy of the factor and merged as by
    ``_merge``: every candidate at once.  A merged table's candidates are laid
    out table entry by table entry (the order float sums keep), a run's as
    ``_Pairs.whole``."""
    f_keys, f_masses = factor
    if run.ends is None:
        return _merge((run.keys[:, None] + f_keys[None, :]).ravel(),
                      np.outer(run.masses, f_masses).ravel(), plan, keys)
    return _merge(*_gather(run, factor, _Pairs.whole(run, f_keys))[:2], plan, keys)


def _run_step(run: _Run, factor) -> _Run:
    """The run folded with one more copy of the factor, not merged."""
    pairs = _Pairs.whole(run, factor[0])
    keys, masses, tied, reps = _gather(run, factor, pairs)
    new_reps = np.ones(len(keys), dtype=np.int64)
    if tied is not None:
        new_reps[tied] += reps
    return _Run(keys, masses, np.cumsum(pairs.counts), new_reps, run.copies + 1)


def _gather(run: _Run, factor, pairs: _Pairs):
    """The candidates of the pairs, pair by pair: each pair's run entries
    gathered through one index array, its factor entry's key and mass
    repeated over them.  A run of i copies multiplies by (i + 1) w_j, and
    divides a tie's product by its reps + 1, exactly (see the module
    docstring).  Returns the keys, the masses, and for a run the ties'
    positions and reps."""
    f_keys, f_masses = factor
    t = _ranges(pairs.starts, pairs.counts)
    cand, cand_mass = run.keys[t], run.masses[t]
    tied = reps = None
    if pairs.ties is not None:
        tied = _ranges(np.cumsum(pairs.counts) - pairs.ties, pairs.ties)
        reps = run.reps[t[tied]]
    del t
    cand += np.repeat(f_keys[pairs.j], pairs.counts)
    if tied is None:
        cand_mass *= np.repeat(f_masses[pairs.j], pairs.counts)
    else:
        cand_mass *= np.repeat(f_masses[pairs.j] * (run.copies + 1), pairs.counts)
        cand_mass[tied] //= reps + 1
    return cand, cand_mass, tied, reps


def _merge(cand: np.ndarray, cand_mass: np.ndarray, plan: Plan, keys: bool = True):
    """Reduce the candidates' components mod the modulus, if any, then sum the
    masses of equal keys by a sort and np.add.reduceat: the distinct keys,
    increasing (None when ``keys`` is false), and their masses.  Only a
    component wider than the modulus can reach it.  The inputs are reordered
    in place.

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
    return cand[first] if keys else None, np.add.reduceat(cand_mass, first)


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
    """A run's entries, or a merged table's, grouped by the residue of their
    digit 0 mod q: ``order`` sorts them by it stably, so a run's entries keep
    their order by l within a group.  Per residue present, increasing, its
    value and first sorted index.  Each sorted entry's rank is
    g * n + l, g its group's index (l = 0 in a merged table, whose entries
    pair with every j), and increases: ``ranks`` holds each rank present,
    ``bounds`` the index where its entries start, len(order) appended.
    ``tied``: a run, whose pairs carry their ties."""

    order: np.ndarray
    residues: np.ndarray
    starts: np.ndarray
    ranks: np.ndarray
    bounds: np.ndarray
    tied: bool

    @classmethod
    def of(cls, run: _Run, n: int, plan: Plan, q: int) -> "_Groups":
        res = (run.keys // plan.strides[0] % q).astype(np.int64)
        order = np.argsort(res, kind="stable")
        res = res[order]
        starts = _run_starts(res)
        rank = np.repeat(np.arange(len(starts)) * n, np.diff(starts, append=len(res)))
        if run.ends is not None:
            rank += np.repeat(np.arange(n), np.diff(run.ends, prepend=0))[order]
        first = _run_starts(rank)
        return cls(order, res[starts], starts, rank[first], np.append(first, len(rank)),
                   run.ends is not None)


def _slice_sizes(groups: _Groups, f_res: np.ndarray, q: int):
    """Each slice's class c, the sum of its pairs' residues mod q, increasing,
    and its candidate count, for the classes with candidates: pair (group g,
    factor entry j) feeds class (residues[g] + f_res[j]) mod q with group g's
    entries of l <= j.  Summed over blocks of groups whose pairs, groups x n,
    stay within a slice's working set or the run's own entries, so no array
    holds every pair at once."""
    n = len(f_res)
    step = max(1, max(_SLICE_CANDIDATES, len(groups.order)) // n)
    classes = sizes = np.zeros(0, dtype=np.int64)
    for g0 in range(0, len(groups.residues), step):
        res = groups.residues[g0 : g0 + step]
        lo, hi = np.searchsorted(groups.ranks, [g0 * n, (g0 + len(res)) * n])
        # per (group, l) of the block, how many entries have it; then how many at most l
        counts = np.zeros(len(res) * n, dtype=np.int64)
        counts[groups.ranks[lo:hi] - g0 * n] = np.diff(groups.bounds[lo : hi + 1])
        counts = counts.reshape(-1, n).cumsum(axis=1)
        c = (res[:, None] + f_res) % q
        fed = counts > 0
        classes = np.concatenate((classes, c[fed]))
        sizes = np.concatenate((sizes, counts[fed]))
        del c, counts, fed
        order = np.argsort(classes)
        classes, sizes = classes[order], sizes[order]
        first = _run_starts(classes)
        classes, sizes = classes[first], np.add.reduceat(sizes, first)
    return classes, sizes


def _slice_pairs(groups: _Groups, f_res: np.ndarray, q: int, c: int) -> _Pairs:
    """Slice c's pairs, as ``_Pairs`` ordered by group, then by j: each factor
    entry j with the group of residue (c - f_res[j]) mod q, if present, and
    that group's prefix of entries with l <= j, which ends where the first
    rank past g * n + j starts; at most n pairs."""
    n = len(f_res)
    a = (c - f_res) % q
    g = np.minimum(np.searchsorted(groups.residues, a), len(groups.residues) - 1)
    j = np.flatnonzero(groups.residues[g] == a)
    g = g[j]
    by_group = np.argsort(g, kind="stable")
    g, j = g[by_group], j[by_group]
    rank = g * n + j
    past = np.searchsorted(groups.ranks, rank, side="right")
    ends = groups.bounds[past]
    ties = None
    if groups.tied:  # rank g * n + j, if present, is the one before past
        ties = np.where(groups.ranks[past - 1] == rank, ends - groups.bounds[past - 1], 0)
    return _Pairs(groups.starts[g], ends - groups.starts[g], ties, j)


def _last_step(prepared: list, plan: Plan, cap):
    """The masses of the table over the prepared factors, all but the last
    copy folded in by ``_sparse``, the last by ``_slices``, each slice after
    its cap.  Merged keys are gathered only for the cap, and a slice is
    released before the next one is built."""
    for s_keys, s_masses in _slices(*_sparse(prepared, plan), plan, cap is not None):
        if cap is not None:
            s_masses = s_masses[(plan.unpack(s_keys) <= cap).all(axis=1)]
        del s_keys
        yield s_masses
        del s_masses


def _slices(run: _Run, factor, plan: Plan, keys: bool):
    """The merged keys and masses of the run folded with the factor, as by
    ``_merge``: one ``_step`` when its candidates fit _SLICE_CANDIDATES or no
    q > 1 is admissible, else one ``_slice`` per residue class mod the first
    q of ``_moduli`` whose largest slice fits, or its last.  The search
    starts at the first q with q * _SLICE_CANDIDATES >= the candidates: the
    largest of q slices holds at least 1/q of them.  Each q is tried on the
    slices' sizes alone (``_slice_sizes``); a slice's pairs are built only
    when it is merged."""
    f_keys = factor[0]
    n = len(f_keys)
    total = len(run.keys) * n if run.ends is None else int(run.ends.sum())
    qs = [] if total <= _SLICE_CANDIDATES else list(_moduli(plan, total))
    if not qs:
        yield _step(run, factor, plan, keys)
        return
    lower = next((i for i, q in enumerate(qs) if q * _SLICE_CANDIDATES >= total), len(qs) - 1)
    for q in qs[lower:]:
        groups = _Groups.of(run, n, plan, q)
        f_res = (f_keys // plan.strides[0] % q).astype(np.int64)
        classes, sizes = _slice_sizes(groups, f_res, q)
        if sizes.max() <= _SLICE_CANDIDATES:
            break
    order = groups.order
    run = run._replace(keys=run.keys[order], masses=run.masses[order],
                       reps=None if run.reps is None else run.reps[order])
    for c in classes.tolist():
        yield _slice(run, factor, _slice_pairs(groups, f_res, q, c), plan, keys)


def _moduli(plan: Plan, total: int):
    """The admissible q > 1, increasing: the powers of b (see the module
    docstring) that divide the modulus, with two residues adding up within
    int64, up to the first past which every class holds one value of digit 0.
    Under a modulus b is sought up to the step's ``total`` candidates only."""
    modulus, q = plan.modulus, 1
    limit = plan.widths[0] if modulus is None else modulus
    base = 2 if modulus is None else _least_prime_factor(modulus, total)
    if base is None:
        return
    while q < limit and (modulus is None or modulus % (q * base) == 0) and (
            2 * q * base < _INT64_LIMIT):
        q *= base
        yield q


def _slice(run: _Run, factor, pairs: _Pairs, plan: Plan, keys: bool):
    """One slice's merged keys and masses, as by ``_merge``: ``run`` in its
    groups' sorted order, ``factor`` the prepared (keys, masses), the slice's
    ``pairs``."""
    return _merge(*_gather(run, factor, pairs)[:2], plan, keys)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges arange(start, start + count), concatenated."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out


def _least_prime_factor(n: int, bound: int) -> int | None:
    """The smallest prime factor of n >= 2, by trial division up to bound:
    None when n has no factor up to bound and is not known to be prime."""
    top = math.isqrt(n)
    d = next((d for d in range(2, min(top, bound) + 1) if n % d == 0), None)
    return d if d is not None else n if top <= bound else None


def _pack(cols, lo, strides, key_dtype) -> np.ndarray:
    """Each entry's key components, offset by lo, packed into one mixed-radix integer."""
    return np.array(
        [sum((c - low) * st for c, low, st in zip(entry, lo, strides)) for entry in zip(*cols)],
        dtype=key_dtype,
    )
