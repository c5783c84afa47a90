"""The dense backend of the power-sum kernel against a dict convolution, its
pricing, and the merge of candidates against a Counter."""

import contextlib
import itertools
import math
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import (
    BudgetError,
    DigitSet,
    DigitSource,
    MemberSet,
    SpacedSystem,
    ValidationError,
    _tables,
    iter_members,
    mitm_count,
    multiplicity_table,
    rep_profile,
)
from ellipsephic._tables import (
    DEFAULT_BUDGET,
    Budget,
    power_sum_dense,
    power_sum_squares,
    power_sum_table,
)

BUDGET = Budget(max_table_bytes=1 << 27)


def dict_convolution(factors, cap):
    """Ordered s-fold sums by a literal double loop over the partial sums."""
    table = {0: 1}
    for values, weights in factors:
        weights = [1] * len(values) if weights is None else weights
        nxt = {}
        for v, m in table.items():
            for x, w in zip(values, weights):
                if cap is None or v + x <= cap:
                    nxt[v + x] = nxt.get(v + x, 0) + m * w
        table = nxt
    return {v: m for v, m in table.items() if m != 0}


def kernel_table(factors, cap, same=False):
    """power_sum_table on the dense backend (the sparse one may not run),
    each factor a new object, or with ``same`` one object for all of them."""
    args = [([values], weights) for values, weights in factors]
    if same:
        args = [args[0]] * len(args)
    with mock.patch.object(_tables, "_sparse", side_effect=AssertionError("sparse")):
        table = power_sum_table(args, cap=cap, budget=BUDGET)
    return dict(zip(table.keys[:, 0].tolist(), table.masses.tolist()))


# few far-apart values (the squares) leave sparse tables; short runs of small
# values with repeats fill them
sparse_values = st.lists(st.integers(0, 150), min_size=1, max_size=10).map(
    lambda xs: sorted(x * x for x in xs)
)
dense_values = st.lists(st.integers(0, 30), min_size=1, max_size=40)
weight_kinds = st.sampled_from(["unit", "int", "numerators", "float", "near 2**62"])


def draw_weights(data, kind, n):
    if kind == "unit":
        return None
    if kind == "int":
        return data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    if kind == "numerators":  # a/b scaled by lcm(1..6), as WeightAssignment does
        pairs = st.tuples(st.integers(1, 9), st.integers(1, 6))
        drawn = data.draw(st.lists(pairs, min_size=n, max_size=n))
        return [a * (60 // b) for a, b in drawn]
    if kind == "float":
        return data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    offsets = data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    return [(1 << 62) - j for j in offsets]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dense_table_matches_dict_convolution(data):
    """Distinct factors on the dense backend: power_sum_table,
    power_sum_dense and power_sum_squares against the double loop, with
    scatters in chunks of _DENSE_CHUNK or of 7 candidates."""
    kind = data.draw(weight_kinds)
    factors = []
    for _ in range(data.draw(st.integers(1, 3))):
        values = data.draw(st.one_of(sparse_values, dense_values))
        factors.append((values, draw_weights(data, kind, len(values))))
    top = sum(max(values) for values, _ in factors)
    cap = data.draw(st.one_of(st.none(), st.integers(0, top)))
    chunk = data.draw(st.sampled_from([_tables._DENSE_CHUNK, 7]))
    args = [([values], weights) for values, weights in factors]
    with mock.patch.object(_tables, "_DENSE_CHUNK", chunk):
        got = kernel_table(factors, cap)
        dense = power_sum_dense(args, cap=top if cap is None else cap, budget=BUDGET)
        squares = power_sum_squares(args, cap=cap, budget=BUDGET)
    want = dict_convolution(factors, cap)
    want_dense = [want.get(v, 0) for v in range(len(dense))]
    want_squares = sum(m * m for m in want.values())
    assert sorted(got) == sorted(want)
    assert len(dense) == (top if cap is None else cap) + 1
    if kind == "float":
        for v, m in want.items():
            assert math.isclose(got[v], m, rel_tol=1e-12)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(dense.tolist(), want_dense))
        assert math.isclose(squares, want_squares, rel_tol=1e-12)
    else:
        assert got == want and dense.tolist() == want_dense and squares == want_squares


def test_dense_array_is_the_table_up_to_the_cap():
    squares = [x * x for x in range(12)]
    big = [(1 << 62) - x for x in range(12)]
    for factors, cap in (
        ([(squares, None)] * 2, 100),  # cut at the cap
        ([(squares, None)] * 3, 500),  # every sum below the cap: zero-padded
        ([(squares, big)] * 2, 300),  # masses past int64 stay Python integers
        ([([5], None)] * 2, 3),  # every value past the cap: each step cuts them all
    ):
        args = [([values], weights) for values, weights in factors]
        dense = power_sum_dense(args, cap=cap, budget=BUDGET)
        table = power_sum_table(args, cap=cap, budget=BUDGET)
        assert len(dense) == cap + 1 and dense.dtype == table.masses.dtype
        want = dict_convolution(factors, cap)
        assert dense.tolist() == [want.get(v, 0) for v in range(cap + 1)]
    # three sparse keys fit 1000 bytes, the array of 2001 does not
    with pytest.raises(BudgetError, match="no dense table"):
        power_sum_dense([([[0, 1000]], None)] * 2, cap=10**6, budget=Budget(max_table_bytes=1000))
    # the sums stop at 2000, but the array returned has cap + 1 entries
    with pytest.raises(BudgetError, match="no dense table"):
        power_sum_dense([([[0, 1000]], None)] * 2, cap=10**6, budget=Budget(max_table_bytes=10**5))


class _NumpySpy:
    """numpy for _tables, recording the dtype of each work array ``_dense``
    itself makes by np.zeros (not the index arrays of the helpers it calls),
    one per step but a folded run's unmerged copies, each labelled a step
    "shift" until ``numpy_spy`` relabels it."""

    def __init__(self):
        self.dtypes, self.steps = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        out = np.zeros(*args, **kwargs)
        if sys._getframe(1).f_code is _tables._dense.__code__:
            self.dtypes.append(out.dtype)
            self.steps.append("shift")
        return out


@contextlib.contextmanager
def numpy_spy():
    """The spy as _tables' numpy, its ``steps`` the kind of each dense step:
    "shift"; "scatter", an ordered step by ``_scatter_run`` of the merged
    table; or "fold", a copy of a folded run by ``_run_step`` or, the last,
    by ``_scatter_run``."""
    spy = _NumpySpy()
    real_run_step, real_scatter = _tables._run_step, _tables._scatter_run

    def run_step(*args):
        spy.steps.append("fold")
        return real_run_step(*args)

    def scatter(out, run, factor):
        spy.steps[-1] = "fold" if run.copies else "scatter"  # out is the last array made
        return real_scatter(out, run, factor)

    with mock.patch.object(_tables, "np", spy), \
            mock.patch.object(_tables, "_run_step", run_step), \
            mock.patch.object(_tables, "_scatter_run", scatter):
        yield spy


SQUARES_625 = [0] + [m * m for m in iter_members(DigitSet(5, (0, 1, 4)), 625)]


def recorded_folds():
    """mock.patch of ``price`` that records each plan's fold flags as a list."""
    seen, real = [], _tables.price

    def priced(*args, **kwargs):
        plan = real(*args, **kwargs)
        seen.append(list(plan.folds))
        return plan

    return seen, mock.patch.object(_tables, "price", priced)


def test_dense_steps_take_both_kinds():
    """[factor] * s as one object: the int64 cases fold the copies flagged
    (see ``price``) over multisets; every other step shifts, or scatters
    through ``_scatter_run`` as the last folded copy does.  Float and object
    masses never fold."""
    squares = [x * x for x in range(120)]
    runs = list(range(40)) * 2
    cases = [
        # pairs of squares stay sparse, so the first two copies fold; their
        # 2,750 distinct sums below the cap fill the table enough for a
        # third step to shift
        (squares, None, 2, 10**4, [True, False], ["fold"] * 2),
        (squares, None, 3, 10**4, [True, False, False], ["fold", "fold", "shift"]),
        # the first step scatters a single row; the dense table then shifts
        (runs, None, 3, None, [False] * 3, ["scatter", "shift", "shift"]),
        # exact masses near 2**62 are held as Python integers
        (squares, [(1 << 62) - x for x in range(120)], 2, None, [False] * 2, ["scatter"] * 2),
    ]
    # the squares of the 82 base-5 {0, 1, 4} members up to 625 and 0: the
    # third step scatters the 1,401 sums of two below the cap over the 82
    # values; unit masses fold the first two
    n = len(SQUARES_625)
    for weights, folds, steps in (
            (None, [True, False, False], ["fold", "fold", "scatter"]),
            ([0.5 + x / 7 for x in range(n)], [False] * 3, ["scatter"] * 3),
            ([(1 << 62) - x for x in range(n)], [False] * 3, ["scatter"] * 3)):
        cases.append((SQUARES_625, weights, 3, 10**5, folds, steps))
    for values, weights, s, cap, folds, steps in cases:
        seen, patched = recorded_folds()
        with numpy_spy() as spy, patched:
            got = kernel_table([(values, weights)] * s, cap, same=True)
        assert seen == [folds]
        assert spy.steps == steps
        want = dict_convolution([(values, weights)] * s, cap)
        assert sorted(got) == sorted(want)
        for v, m in want.items():  # exact for integers, last bits for floats
            assert got[v] == m if type(m) is int else math.isclose(got[v], m, rel_tol=1e-12)


INT32_BOUND = 1 << 31


def test_dense_masses_widen_past_int32():
    """Twenty copies of {0, 1} bound the masses by 2**20, so the dense steps
    work in int32; the masses come back int64, and sum m**2 = C(40, 20) is
    past 2**31.  A bound of 2**31 - 1 still works in int32, one of 2**31 not."""
    factors = [([[0, 1]], None)] * 20
    binomials = [math.comb(20, n) for n in range(21)]
    with numpy_spy() as spy:
        assert power_sum_squares(factors, budget=BUDGET) == math.comb(40, 20)
        table = power_sum_table(factors, budget=BUDGET)
        counts = rep_profile(DigitSource.explicit([0, 1]), 20, 20).counts
    assert set(spy.dtypes) == {np.dtype(np.int32)}
    assert table.masses.dtype == counts.dtype == np.int64
    assert table.masses.tolist() == counts.tolist() == binomials
    for factors, mass, dtype in (
        ([([[0]], [INT32_BOUND - 1])], INT32_BOUND - 1, np.int32),
        ([([[0]], [-(INT32_BOUND - 1)]), ([[3]], [-1])], INT32_BOUND - 1, np.int32),
        ([([[0]], [1 << 16]), ([[0]], [1 << 15])], INT32_BOUND, np.int64),
        ([([[2]], [INT32_BOUND])], INT32_BOUND, np.int64),
    ):
        with numpy_spy() as spy:
            table = power_sum_table(factors, budget=BUDGET)
        assert set(spy.dtypes) == {np.dtype(dtype)}
        assert table.masses.dtype == np.int64 and table.masses.tolist() == [mass]


def signed_split(data, total, n):
    """n signed weights whose absolute values add up to total."""
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [-w if negative else w for w, negative in zip(parts, signs)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dense_masses_at_the_int32_bound(data):
    """Signed masses whose bound, the product of the factors' total |mass|,
    is 2**31 - 1 (int32 steps) or 2**31 (int64 steps)."""
    bound = data.draw(st.sampled_from([INT32_BOUND - 1, INT32_BOUND]))
    n = data.draw(st.integers(1, 3))
    if bound == INT32_BOUND:  # 2**31 as a product of n powers of 2
        cuts = sorted(data.draw(st.lists(st.integers(0, 31), min_size=n - 1, max_size=n - 1)))
        totals = [1 << (hi - lo) for lo, hi in zip([0] + cuts, cuts + [31])]
    else:  # 2**31 - 1 is prime: one factor carries it, the others 1
        totals = data.draw(st.permutations([bound] + [1] * (n - 1)))
    factors = []
    for total in totals:
        values = data.draw(st.one_of(sparse_values, dense_values))
        factors.append((values, signed_split(data, total, len(values))))
    assert math.prod(sum(map(abs, ws)) for _, ws in factors) == bound
    with numpy_spy() as spy:
        got = kernel_table(factors, None)
    assert set(spy.dtypes) == {np.dtype(np.int32 if bound < INT32_BOUND else np.int64)}
    assert got == dict_convolution(factors, None)


def test_zero_mass_factor_keeps_the_mass_bound():
    """An all-zero factor counts as mass 1 in the bound, so the other
    factors' masses still pick the dtype: Python integers past int64, int64
    past int32.  Every sum then has mass 0."""
    for big, dtype in ((1 << 70, object), (1 << 40, np.int64)):
        table = power_sum_table([([[1, 2]], [big, 1]), ([[1]], [0])], budget=DEFAULT_BUDGET)
        assert table.masses.dtype == dtype and table.mass_bound == big + 1
        assert len(table.keys) == 0 and table.sum_squares() == 0


def test_repeated_factor_is_reduced_and_packed_once(monkeypatch):
    cols = [[x * x for x in range(1, 30)], [x * x * x for x in range(1, 30)]]
    weights = list(range(1, 30))
    packs = []
    real_pack = _tables._pack

    def counting_pack(*args):
        packs.append(args[0])
        return real_pack(*args)

    monkeypatch.setattr(_tables, "_pack", counting_pack)
    # under a modulus the three copies are packed once only if they were also
    # reduced once, into one shared factor
    for modulus in (None, 125):
        for ws in (None, weights):
            packs.clear()
            factor = (cols, ws)
            shared = power_sum_table([factor] * 3, modulus=modulus, budget=BUDGET)
            assert len(packs) == 1
            copies = [([list(c) for c in cols], ws) for _ in range(3)]
            packs.clear()
            apart = power_sum_table(copies, modulus=modulus, budget=BUDGET)
            assert len(packs) == 3
            assert np.array_equal(shared.keys, apart.keys)
            assert np.array_equal(shared.masses, apart.masses)
            assert shared.keys.dtype == apart.keys.dtype
            assert shared.masses.dtype == apart.masses.dtype


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_modular_keys_match_reduced_convolution(data):
    """Under a modulus each component is packed at its own width: one whose
    residues never reach the modulus is not reduced, a wider one wraps."""
    modulus = data.draw(st.sampled_from([7, 25, 27]))
    k = data.draw(st.integers(1, 3))
    spans = st.sampled_from([(0, 0), (0, 3), (0, modulus - 1), (-50, 200)])
    distinct = []
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, 6))
        cols = [data.draw(st.lists(st.integers(*data.draw(spans)), min_size=n, max_size=n))
                for _ in range(k)]
        distinct.append((cols, draw_weights(data, data.draw(st.sampled_from(["unit", "int"])), n)))
    factors = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
    want = {(0,) * k: 1}
    for cols, weights in factors:
        nxt = {}
        for key, m in want.items():
            for entry, w in zip(zip(*cols), weights or [1] * len(cols[0])):
                total = tuple((a + b) % modulus for a, b in zip(key, entry))
                nxt[total] = nxt.get(total, 0) + m * w
        want = nxt
    table = power_sum_table(factors, modulus=modulus, budget=BUDGET)
    assert dict(zip(map(tuple, table.keys.tolist()), table.masses.tolist())) == want
    squares = _tables.power_sum_squares(factors, modulus=modulus, budget=BUDGET)
    assert squares == sum(m * m for m in want.values())


# --- pricing: predicted work and bytes bound the kernel's own ---------------

UNBOUNDED = Budget(max_tuples=1 << 200, max_table_bytes=1 << 200)


def item_bytes(dtype):
    return 40 if dtype == object else 8


def actual_costs(factors, plan, modulus, cap, mass_dtype):
    """Work and peak bytes of the kernel's steps, recomputed from its prefix
    tables: a sparse step forms |prefix keys| * #entries candidates; a dense
    step costs the cheaper _dense_step price at the prefix's nonzero count."""
    work = adds = nbytes = top = 0
    cur_len = nnz = 1
    step_bytes = 2 * (item_bytes(plan.key_dtype) + item_bytes(mass_dtype)) + 8
    for i, (cols, _) in enumerate(factors):
        if i:
            prefix_cap = None if plan.length is None else plan.length - 1
            prefix = power_sum_table(factors[:i], modulus=modulus, cap=prefix_cap,
                                     budget=UNBOUNDED)
            nnz = int(np.count_nonzero(prefix.masses))
        entries = len(cols[0])
        if plan.length is None:
            work += nnz * entries
            nbytes = max(nbytes, nnz * entries * step_bytes)
        else:
            top += max(cols[0], default=0)
            nxt = min(plan.length, top + 1)
            distinct = len({v for v in cols[0] if v < nxt})
            adds += min(_tables._dense_step(entries, cur_len, nnz, distinct))
            nbytes = max(nbytes, (cur_len + nxt) * item_bytes(mass_dtype))
            cur_len = nxt
    if plan.length is not None:
        work = -(-adds // _tables._ADDS_PER_CANDIDATE)
    return work, nbytes


def draw_factor(data, k, low, high, kind):
    n = data.draw(st.integers(0, 12))
    cols = [data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
            for _ in range(k)]
    if kind == "object":  # masses near 2**62: the mass bound passes 2**63
        return cols, [(1 << 62) + j for j in range(n)]
    return cols, draw_weights(data, kind, n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_predicted_costs_bound_actual(data):
    k = data.draw(st.integers(1, 2))
    low = data.draw(st.sampled_from([0, -40]))  # < 0: keys of a perturbed system
    high = data.draw(st.sampled_from([30, 2000]))
    kind = data.draw(st.sampled_from(["unit", "int", "float", "object"]))
    distinct = [draw_factor(data, k, low, high, kind)
                for _ in range(data.draw(st.integers(1, 3)))]
    # repeats pass the same object, as [factor] * s does
    factors = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
    modulus = data.draw(st.sampled_from([None, None, 7, 25]))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 4 * high)))
    by_id = {id(f): _tables.Shape.of(*f) for f in factors}
    plan = _tables.price([by_id[id(f)] for f in factors], modulus=modulus, cap=cap,
                         budget=BUDGET)
    nonnegative = all(v >= 0 for cols, _ in factors for v in cols[0])
    assert (plan.length is not None) == (k == 1 and modulus is None and nonnegative)
    table = power_sum_table(factors, modulus=modulus, cap=cap, budget=BUDGET)
    work, nbytes = actual_costs(factors, plan, modulus, cap, table.masses.dtype)
    assert plan.work >= work
    assert plan.nbytes >= nbytes


def test_refusal_names_predicted_and_allowed():
    factor = ([list(range(1, 101)), [x * x for x in range(1, 101)]], None)
    plan = _tables.price([_tables.Shape.of(*factor)] * 3, budget=BUDGET)
    # 1, 100 and C(101, 2) = 5050 keys (multisets, below the key range) by 100 entries
    assert plan.work == 100 + 100 * 100 + 5050 * 100
    with pytest.raises(BudgetError, match=f"needs {plan.work} candidates .* allowed 515099"):
        power_sum_table([factor] * 3, budget=Budget(max_tuples=plan.work - 1))
    assert power_sum_table([factor] * 3, budget=Budget(max_tuples=plan.work)).keys.shape[1] == 2


@pytest.mark.parametrize("limits", [{"max_tuples": 0}, {"max_tuples": -5},
                                    {"max_table_bytes": 0}])
def test_budget_rejects_nonsense_limits(limits):
    with pytest.raises(ValidationError):
        Budget(**limits)


# --- the merge: one fused int64 sort, else a stable argsort ------------------

INT64_MAX = (1 << 63) - 1


def merge_plan(modulus=None, width=None):
    """A plan of one key component, all that _merge reads of it."""
    return _tables.Plan(None, [width or 1], [1], [0], modulus, np.int64, np.int64, 0, 0, 0, ())


@contextlib.contextmanager
def recorded_mass_bits():
    """A list of what _mass_bits returns, one entry per merge, while open."""
    seen = []
    real = _tables._mass_bits

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(_tables, "_mass_bits", spy):
        yield seen


def recorded_merge(cand, cand_mass, plan):
    """_merge of the candidates and what _mass_bits returned on each call."""
    with recorded_mass_bits() as seen:
        keys, masses = _tables._merge(cand, cand_mass, plan)
    return keys, masses, seen


def stable_merge(cand, cand_mass):
    """The reference merge: a stable argsort, then np.add.reduceat."""
    order = np.argsort(cand, kind="stable")
    cand, cand_mass = cand[order], cand_mass[order]
    first = _tables._run_starts(cand)
    return cand[first], np.add.reduceat(cand_mass, first)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_merge_matches_a_counter(data):
    """Keys whose largest has key_bits bits and masses whose largest has
    mass_bits, both int64 and >= 0, fuse exactly when key_bits + mass_bits <= 63.
    Under a modulus m = 2**key_bits the keys reach 2m - 2 before the
    reduction, so they fit beside their masses only once reduced."""
    total = data.draw(st.sampled_from([None, 62, 63, 64]))
    modulus = data.draw(st.booleans())
    low = 1 if modulus else 0
    high = 62 if modulus else 63
    if total is None:
        key_bits, mass_bits = data.draw(st.integers(low, 40)), data.draw(st.integers(0, 20))
    else:
        key_bits = data.draw(st.integers(max(low, total - 62), min(high, total)))
        mass_bits = total - key_bits
    top_key = (1 << key_bits) - 1
    raw_top = [top_key, 2 * top_key] if modulus else [top_key]  # m - 1 and 2m - 2
    pool = data.draw(st.lists(st.integers(0, raw_top[-1]), min_size=1, max_size=6)) + raw_top
    n = data.draw(st.integers(0, 40))
    top_mass = (1 << mass_bits) - 1
    small = st.integers(0, min(top_mass, (INT64_MAX - top_mass) // (n + 2)))
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) + raw_top
    masses = data.draw(st.lists(small, min_size=n, max_size=n)) + [top_mass]
    masses += [0] * (len(raw_top) - 1)
    order = data.draw(st.permutations(range(len(keys))))
    keys, masses = [keys[i] for i in order], [masses[i] for i in order]
    plan = merge_plan(1 << key_bits, 2 * top_key + 1) if modulus else merge_plan()
    got_keys, got_masses, seen = recorded_merge(np.array(keys, dtype=np.int64),
                                                np.array(masses, dtype=np.int64), plan)
    assert seen == [mass_bits if key_bits + mass_bits <= 63 else None]
    want = Counter()
    for key, mass in zip(keys, masses):
        want[key % plan.modulus if modulus else key] += mass
    assert got_keys.dtype == got_masses.dtype == np.int64
    assert list(zip(got_keys.tolist(), got_masses.tolist())) == sorted(want.items())


def test_merge_of_no_candidates():
    empty = np.zeros(0, dtype=np.int64)
    for plan in (merge_plan(), merge_plan(7, 13)):
        keys, masses, seen = recorded_merge(empty.copy(), empty.copy(), plan)
        assert seen == [None]
        assert keys.dtype == masses.dtype == np.int64 and len(keys) == len(masses) == 0


def test_merge_fallbacks_keep_the_stable_order():
    """Object keys, object masses near 2**62, float masses and negative
    masses take the stable argsort: the same keys and the same masses, floats
    bit for bit, as the reference."""
    rng = np.random.default_rng(23)
    keys = rng.integers(0, 50, 3000)
    cases = {
        "object keys": (keys.astype(object) + (1 << 70), rng.integers(1, 9, 3000)),
        "near 2**62": (keys, np.array([(1 << 62) - int(j) for j in keys], dtype=object)),
        "float": (keys, rng.random(3000) * 10.0**rng.integers(-8, 8, 3000)),
        "negative": (keys, rng.integers(-5, 9, 3000)),
    }
    for name, (cand, cand_mass) in cases.items():
        want_keys, want_masses = stable_merge(cand.copy(), cand_mass.copy())
        got_keys, got_masses, seen = recorded_merge(cand.copy(), cand_mass.copy(), merge_plan())
        assert seen == [None], name
        assert got_keys.dtype == want_keys.dtype and got_masses.dtype == want_masses.dtype
        assert got_keys.tolist() == want_keys.tolist(), name
        assert got_masses.tolist() == want_masses.tolist(), name
        if name == "float":
            assert got_masses.tobytes() == want_masses.tobytes()


SQUARES_1875 = list(iter_members(DigitSet(5, (0, 1, 4)), 1875))


def test_sliced_count_takes_the_fused_sort():
    """k = 2, s = 3 over the 161 base-5 squares members up to 1875: every
    slice of the last copy, and each sparse step before it, merges int64
    keys with their masses packed below them.  ``mitm_count``'s [factor] * 3
    folds the first two copies as a run, merged by no step; three distinct
    copies take two ordered steps."""
    cols = [SQUARES_1875, [x * x for x in SQUARES_1875]]
    copies = [(list(cols), None) for _ in range(3)]
    real_slice = _tables._slice
    for steps, counted_by in (
            (0, lambda: mitm_count(SpacedSystem.pure_powers(2, 5), 3, SQUARES_1875).count),
            (2, lambda: power_sum_squares(copies, budget=DEFAULT_BUDGET))):
        slices = []

        def counted(*args, slices=slices):
            slices.append(1)
            return real_slice(*args)

        with recorded_mass_bits() as seen, mock.patch.object(_tables, "_slice", counted):
            count = counted_by()
        assert count == 25_384_553
        assert len(slices) > 1 and len(seen) == steps + len(slices)
        assert None not in seen


# --- the run fold: [factor] * s over non-decreasing index tuples ------------

LAYOUTS = ["A", "AA", "AAA", "AAAA", "AAB", "ABA"]


def laid_out(layout, a, b):
    """Factors by layout letter: repeats of one letter are the same object."""
    return [{"A": a, "B": b}[c] for c in layout]


def equal_copies(factors):
    """The factors as equal-valued distinct objects, which take the ordered fold."""
    return [([list(c) for c in cols], None if ws is None else list(ws)) for cols, ws in factors]


@contextlib.contextmanager
def counted_candidates():
    """The candidates each merge and each unmerged run copy forms, while open."""
    seen = []
    real_merge, real_run_step = _tables._merge, _tables._run_step

    def merge(cand, *args):
        seen.append(len(cand))
        return real_merge(cand, *args)

    def run_step(*args):
        run = real_run_step(*args)
        seen.append(len(run.keys))
        return run

    with mock.patch.object(_tables, "_merge", merge), \
            mock.patch.object(_tables, "_run_step", run_step):
        yield seen


def run_fold_factor(data, kind):
    """Keys of one component in -15 .. 40 with repeats, at least one < 0 so
    the table is sparse; weights of the kind, "signed" holding zeros and
    negatives."""
    n = data.draw(st.integers(1, 7))
    values = data.draw(st.lists(st.integers(-15, 40), min_size=n, max_size=n))
    values[0] = -abs(values[0]) - 1
    weights = {
        "unit": st.none(),
        "int": st.lists(st.integers(1, 9), min_size=n, max_size=n),
        "signed": st.lists(st.integers(-3, 4), min_size=n, max_size=n),
        "float": st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n),
    }[kind]
    return [values], data.draw(weights)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_run_fold_matches_dict_convolution(data):
    """power_sum_table and power_sum_squares over [A] * s, s = 1 .. 4, and
    [A, A, B], [A, B, A], sliced or not, against the ordered double loop;
    the same over equal-valued distinct copies, which take the ordered fold:
    exactly equal for integers, bit for bit for floats.  Merges and run
    copies form no more candidates than ``price`` charges."""
    kind = data.draw(st.sampled_from(["unit", "int", "signed", "float"]))
    factors = laid_out(data.draw(st.sampled_from(LAYOUTS)),
                       run_fold_factor(data, kind), run_fold_factor(data, kind))
    cap = data.draw(st.one_of(st.none(), st.integers(-20, 100)))
    forced = data.draw(st.booleans())
    plan = _tables.price([_tables.Shape.of(*f) for f in factors], cap=cap, budget=BUDGET)
    limit = 1 if forced else _tables._SLICE_CANDIDATES
    with mock.patch.object(_tables, "_SLICE_CANDIDATES", limit):
        with counted_candidates() as formed:
            table = power_sum_table(factors, cap=cap, budget=BUDGET)
        assert sum(formed) <= plan.work
        squares = power_sum_squares(factors, cap=cap, budget=BUDGET)
        apart = power_sum_table(equal_copies(factors), cap=cap, budget=BUDGET)
        apart_squares = power_sum_squares(equal_copies(factors), cap=cap, budget=BUDGET)
    full = dict_convolution([(cols[0], ws) for cols, ws in factors], None)
    want = {v: m for v, m in full.items() if cap is None or v <= cap}
    got = {v: m for v, m in zip(table.keys[:, 0].tolist(), table.masses.tolist()) if m != 0}
    assert np.array_equal(table.keys, apart.keys)
    if kind == "float":
        assert table.masses.tobytes() == apart.masses.tobytes()
        assert squares.hex() == apart_squares.hex()
        assert got.keys() == want.keys()
        assert all(math.isclose(got[v], want[v], rel_tol=1e-12) for v in want)
    else:
        assert table.masses.tolist() == apart.masses.tolist()
        assert got == want
        assert squares == apart_squares == sum(m * m for m in want.values())


def largest_below(limit, power, factor):
    """The largest w with factor * w**power < limit."""
    w = 1
    while factor * (2 * w) ** power < limit:
        w *= 2
    lo, hi = w, 2 * w  # factor * lo**power < limit <= factor * hi**power
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if factor * mid**power < limit else (lo, mid)
    return lo


@pytest.mark.parametrize("above", [False, True])
def test_run_fold_at_the_mass_bound(above):
    """[F] * 3 with total mass w: folded as a run while 3 * w**3 < 2**63,
    where its products mass * w_j * 3 stay int64 before the exact division;
    past it, with masses still int64, by the ordered fold.  Both give the
    ordered tables of equal-valued copies and of the double loop."""
    w = largest_below(1 << 63, 3, 3) + above
    factor = ([[-2, 0, 3]], [w - 2, 1, 1])
    plan = _tables.price([_tables.Shape.of(*factor)] * 3, budget=BUDGET)
    assert plan.mass_dtype is np.int64 and (plan.mass_bound * 3 >= 1 << 63) == above
    runs = []
    real_run_step = _tables._run_step
    with mock.patch.object(_tables, "_run_step", lambda *a: runs.append(1) or real_run_step(*a)):
        table = power_sum_table([factor] * 3, budget=BUDGET)
        squares = power_sum_squares([factor] * 3, budget=BUDGET)
    assert len(runs) == (0 if above else 4)  # two copies unmerged per call
    apart = power_sum_table(equal_copies([factor] * 3), budget=BUDGET)
    assert table.masses.tolist() == apart.masses.tolist()
    want = dict_convolution([([-2, 0, 3], [w - 2, 1, 1])] * 3, None)
    assert dict(zip(table.keys[:, 0].tolist(), table.masses.tolist())) == want
    assert squares == sum(m * m for m in want.values())


def test_multiplicity_table_keys_are_int64(table_dict):
    system = SpacedSystem.pure_powers(2, 5)
    members = MemberSet(DigitSet(5, (0, 1, 4)), 400)
    table = multiplicity_table(system, 2, members)
    want = Counter(system.key(pair) for pair in itertools.product(list(members), repeat=2))
    got = table_dict(table)
    assert got == want and list(got) == sorted(want)
    assert table.keys.dtype == np.int64 and table.keys.shape == (len(want), 2)
    # len is the row count, which the CLI writes and the benchmark counts as entries
    assert table.masses.dtype == np.int64 and len(table) == len(table.masses) == len(want)


# --- the dense run fold: [factor] * s over multisets on the dense array -----

@contextlib.contextmanager
def dense_fold_candidates():
    """(copy r of the run, candidates formed) for each copy that
    ``_run_step`` or ``_scatter_run`` takes: the entries each ``_run_step``
    forms, and the candidates each ``_scatter_run`` gathers, for an ordered
    scatter (a merged table, the run of no copies: r = 1) its pairs of a
    row and a factor value, of which none may reach the array's end."""
    seen = []
    real_run_step, real_scatter, real_gather = (_tables._run_step, _tables._scatter_run,
                                                _tables._gather)

    def run_step(run, factor):
        out = real_run_step(run, factor)
        seen.append((out.copies, len(out.keys)))
        return out

    def scatter(out, run, factor):
        gathered = []

        def gather(*args):
            cand = real_gather(*args)
            gathered.append(len(cand[0]))
            assert run.ends is not None or (cand[0] < len(out)).all()
            return cand

        with mock.patch.object(_tables, "_gather", gather):
            real_scatter(out, run, factor)
        seen.append((run.copies + 1, sum(gathered)))

    with mock.patch.object(_tables, "_run_step", run_step), \
            mock.patch.object(_tables, "_scatter_run", scatter):
        yield seen


def dense_scatter_prices(shapes, plan):
    """``price``'s scatter price of each dense step."""
    bounds = _tables._key_bounds(shapes, None)[0]
    return [scatter for _, scatter in _tables._dense_prices(shapes, bounds, plan.length)]


def check_dense_run(factor, s, cap):
    """power_sum_table, power_sum_dense and power_sum_squares over
    [factor] * s, passed as one object, against the ordered double loop, the
    last also in small chunks.  Returns the fold flags and the (copy,
    candidates) the fold formed: a copy r >= 2 adds, at n * _SCATTER_CALL
    plus _SCATTER_ELEMENT per candidate, no more than price's scatter price
    of the ordered step it replaces."""
    (values,), weights = factor
    shapes = [_tables.Shape.of(*factor)] * s
    plan = _tables.price(shapes, cap=cap, budget=BUDGET)
    seen, patched = recorded_folds()
    with dense_fold_candidates() as formed, patched, \
            mock.patch.object(_tables, "_sparse", side_effect=AssertionError("sparse")):
        table = power_sum_table([factor] * s, cap=cap, budget=BUDGET)
    dense = power_sum_dense([factor] * s, cap=cap, budget=BUDGET)
    squares = power_sum_squares([factor] * s, cap=cap, budget=BUDGET)
    # the last copy's scatter and the sum of squares in chunks of about 50
    with mock.patch.object(_tables, "_DENSE_CHUNK", 50):
        assert power_sum_squares([factor] * s, cap=cap, budget=BUDGET) == squares
    want = dict_convolution([(values, weights)] * s, cap)
    got = dict(zip(table.keys[:, 0].tolist(), table.masses.tolist()))
    assert {v: m for v, m in got.items() if m != 0} == want
    assert dense.dtype == table.masses.dtype == plan.mass_dtype
    assert dense.tolist() == [want.get(v, 0) for v in range(cap + 1)]
    assert squares == sum(m * m for m in want.values())
    folds = seen[0]
    folded = sum(folds) + 1 if any(folds) else 0
    # the fold's copies, then one merged table's copy per ordered scatter
    assert [r for r, _ in formed] == list(range(1, folded + 1)) + [1] * (len(formed) - folded)
    formed = formed[:folded]
    prices, n = dense_scatter_prices(shapes, plan), len(values)
    for r, candidates in formed[1:]:
        assert n * _tables._SCATTER_CALL + _tables._SCATTER_ELEMENT * candidates <= prices[r - 1]
    return folds, formed


def test_ordered_scatter_forms_only_kept_candidates():
    """The squares up to 625 and 0, three times, cap 10**5, unit masses: the
    first two copies fold, and the third scatters the rows (the sums of two
    below the cap) over the factor values, pairing each value only with the
    rows that it keeps below the cap."""
    cap = 10**5
    rows = {a + b for a in SQUARES_625 for b in SQUARES_625 if a + b <= cap}
    values = {v for v in SQUARES_625 if v <= cap}
    kept = sum(r + v <= cap for r in rows for v in values)
    assert (len(rows), len(values), kept) == (1401, 54, 69_965)  # 75,654 pairs in all
    with dense_fold_candidates() as formed:
        kernel_table([(SQUARES_625, None)] * 3, cap, same=True)
    assert formed[-1] == (1, kept)


# squares spread far apart, unsorted and with repeats: their steps scatter
# and fold
spread_values = st.lists(st.integers(0, 40), min_size=2, max_size=8).map(
    lambda xs: [50 * x * x for x in xs]
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dense_run_fold_matches_dict_convolution(data):
    """[factor] * s, s = 1 .. 5, on the dense backend: repeated values, zero
    and negative masses, caps that cut mid-run, int32 work arrays and, for
    "wide" masses (total |mass| T with T**s >= 2**31), int64 ones."""
    s = data.draw(st.integers(1, 5))
    values = data.draw(st.one_of(spread_values, spread_values, spread_values, dense_values))
    n = len(values)
    kind = data.draw(st.sampled_from(["unit", "int", "signed", "wide"]))
    lo = 1 << (32 // s + 1)
    weights = data.draw({
        "unit": st.none(),
        "int": st.lists(st.integers(1, 9), min_size=n, max_size=n),
        "signed": st.lists(st.integers(-3, 4), min_size=n, max_size=n),
        "wide": st.lists(st.integers(lo, 2 * lo).flatmap(lambda w: st.sampled_from([w, -w])),
                         min_size=n, max_size=n),
    }[kind])
    top = s * max(values)
    cap = data.draw(st.one_of(st.just(top), st.integers(max(values), top), st.integers(0, top)))
    check_dense_run(([values], weights), s, cap)


def test_dense_run_fold_adds_colliding_multisets():
    """{0, 1, 2, 3} spread by 10**4, so that price's steps scatter, three
    times: all three copies fold, and after two the run holds equal keys of
    distinct multisets ({0, 2} and {1, 1}), which the last copy must add up,
    not overwrite.  Unit and signed masses work in int32, the wide ones in
    int64; a cap cuts the last copy."""
    values = [0, 10**4, 2 * 10**4, 3 * 10**4]
    real_scatter, collided = _tables._scatter_run, []

    def scatter(out, run, factor):
        collided.append(len(np.unique(run.keys)) < len(run.keys))
        return real_scatter(out, run, factor)

    for weights in (None, [1, -2, 0, 3], [1000, -700, 0, 300]):
        for cap in (9 * 10**4, 5 * 10**4):
            collided.clear()
            with mock.patch.object(_tables, "_scatter_run", scatter):
                folds, formed = check_dense_run(([values], weights), 3, cap)
            assert folds == [True, True, False]
            assert collided == [True] * 4  # the table, the array, both sums of squares
            # C(6, 3) candidates; under the lower cap the run drops {3, 3},
            # which only value 3 pairs with
            assert formed == [(1, 4), (2, 10), (3, 20 if cap == 9 * 10**4 else 19)]


@pytest.mark.parametrize("above", [False, True])
def test_dense_run_fold_at_the_mass_bound(above):
    """[F] * 3 with total mass w on the dense backend: all three copies
    fold while 3 * w**3 < 2**63; past it, with 2 * w**3 still below, the
    first two fold and the third takes an ordered step."""
    w = largest_below(1 << 63, 3, 3) + above
    factor = ([[0, 10**4, 3 * 10**4]], [w - 2, 1, 1])
    folds, _ = check_dense_run(factor, 3, 9 * 10**4)
    assert folds == [True, not above, False]


def test_price_lists_the_folded_copies():
    """``price``'s fold flags, True where the run fold leaves a copy
    unmerged.  Sparse runs fold whole or not at all: [A] * 3 all but its
    last copy, the run of two in [A, A, B] its first, and [A, B, A], runs
    of one, none.  Float masses, a modulus, or a mass bound w**3 with
    3 * w**3 >= 2**63 fold nothing sparse; a dense plan then still folds
    the run's leading copies.  The squares up to 625 fold their first two
    copies of three at cap 10**5; the third scatters."""
    a = _tables.Shape.of([[0, 1, 2, 3], [0, 5, 7, 9]], None)
    b = _tables.Shape.of([[0, 4], [1, 2]], None)
    floats = _tables.Shape.of([[0, 1, 2, 3], [0, 5, 7, 9]], [0.5, 1.5, 2.0, 1.0])
    cases = [
        ([a] * 3, {}, (True, True, False)),
        ([a, a, b], {}, (True, False, False)),
        ([a, b, a], {}, (False,) * 3),
        ([floats] * 3, {}, (False,) * 3),
        ([a] * 3, {"modulus": 7}, (False,) * 3),
        ([_tables.Shape.of([SQUARES_625], None)] * 3, {"cap": 10**5}, (True, False, False)),
    ]
    for above in (False, True):
        w = largest_below(1 << 63, 3, 3) + above
        sparse = _tables.Shape.of([[-2, 0, 3]], [w - 2, 1, 1])
        dense = _tables.Shape.of([[0, 10**4, 3 * 10**4]], [w - 2, 1, 1])
        cases.append(([sparse] * 3, {}, (not above, not above, False)))
        cases.append(([dense] * 3, {"cap": 9 * 10**4}, (True, not above, False)))
    for shapes, options, folds in cases:
        assert _tables.price(shapes, budget=BUDGET, **options).folds == folds
