"""The dense backend of the power-sum kernel against a dict convolution."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsephic import BudgetError, ValidationError, _tables
from ellipsephic._tables import Budget, power_sum_dense, power_sum_table

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


def kernel_table(factors, cap):
    """power_sum_table on the dense backend (the sparse one may not run)."""
    with mock.patch.object(_tables, "_sparse", side_effect=AssertionError("sparse")):
        table = power_sum_table(
            [([values], weights) for values, weights in factors],
            cap=cap,
            budget=BUDGET,
        )
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
    kind = data.draw(weight_kinds)
    factors = []
    for _ in range(data.draw(st.integers(1, 3))):
        values = data.draw(st.one_of(sparse_values, dense_values))
        factors.append((values, draw_weights(data, kind, len(values))))
    top = sum(max(values) for values, _ in factors)
    cap = data.draw(st.one_of(st.none(), st.integers(0, top)))
    got, want = kernel_table(factors, cap), dict_convolution(factors, cap)
    assert sorted(got) == sorted(want)
    if kind == "float":
        for v, m in want.items():
            assert math.isclose(got[v], m, rel_tol=1e-12)
    else:
        assert got == want


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


class _SearchsortedSpy:
    """numpy for _tables, counting the one searchsorted call of a scatter step."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, *args, **kwargs):
        self.calls += 1
        return np.searchsorted(*args, **kwargs)


def test_dense_steps_take_both_kinds(monkeypatch):
    squares = [x * x for x in range(120)]
    runs = list(range(40)) * 2
    cases = [
        # pairs of squares stay sparse and scatter; their 2,750 distinct sums
        # below the cap fill the table enough for the third step to shift
        ([(squares, None)] * 2, 10**4, 2),
        ([(squares, None)] * 3, 10**4, 2),
        # the first step scatters a single row; the dense table then shifts
        ([(runs, None)] * 3, None, 1),
        # exact masses near 2**62 are held as Python integers
        ([(squares, [(1 << 62) - x for x in range(120)])] * 2, None, 2),
    ]
    for factors, cap, scatter_steps in cases:
        spy = _SearchsortedSpy()
        monkeypatch.setattr(_tables, "np", spy)
        got = kernel_table(factors, cap)
        monkeypatch.undo()
        assert spy.calls == scatter_steps
        assert got == dict_convolution(factors, cap)


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
