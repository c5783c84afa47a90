"""CLI subcommands: outputs, determinism, exit codes, config handling."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellipsephic import (
    BudgetError,
    DigitSet,
    SpacedSystem,
    brute_force_count,
    iter_members,
    key_hex,
    lifting_chain,
    mitm_count,
    multiplicity_table,
    representation_table,
)
from ellipsephic import _tables, cli
from ellipsephic.cli import (
    _fmt,
    _write_columns,
    _write_lines,
    canonical_config,
    main,
    parse_canonical,
    parse_config_text,
)


def run_cli(tmp_path, subcommand, config_text, extra=(), name="cfg"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / f"out_{name}"
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_parse_config():
    cfg = parse_config_text("# comment\n\ns=2\ndigitset=p=3;digits=0,1\n")
    assert cfg == {"s": "2", "digitset": "p=3;digits=0,1"}
    with pytest.raises(Exception):
        parse_config_text("s=1\ns=2\n")


def test_canonical_round_trip():
    cfg = parse_config_text("s=2\nk=1\ndigitset=p=3;digits=0,1\n")
    canon = canonical_config("count", cfg)
    # the digit-set value contains ';', which must be escaped to stay unambiguous
    assert canon == "count;digitset=p=3%3Bdigits=0,1;k=1;s=2"
    sub, reparsed = parse_canonical(canon)
    assert sub == "count" and reparsed == cfg
    assert canonical_config(sub, reparsed) == canon
    # values containing a literal '%' survive as well
    tricky = {"input": "a%3B;b", "s": "1"}
    sub2, back = parse_canonical(canonical_config("fit", tricky))
    assert back == tricky


# small alphabets, so escapes such as "%3B" and "%25" occur as literal text
_KEYS = st.text(alphabet="a;%3B25#", min_size=1).filter(lambda k: k[0] != "#")
_VALUES = st.text(alphabet="a;%3B25#= ")


@given(st.dictionaries(_KEYS, _VALUES.map(str.strip), max_size=5))
def test_canonical_round_trip_property(cfg):
    text = "".join(f"{key}={value}\n" for key, value in cfg.items())
    parsed = parse_config_text(text)
    assert parsed == cfg
    assert parse_canonical(canonical_config("count", parsed)) == ("count", parsed)


def test_enumerate_output(tmp_path):
    code, out = run_cli(
        tmp_path, "enumerate", "digitset=p=3;digits=0,1\nX=10\n"
    )
    assert code == 0
    lines = (out / "enumerate.txt").read_text().splitlines()
    assert lines[0].startswith("# config: enumerate;")
    assert lines[1:] == ["1", "3", "4", "9", "10"]


def test_enumerate_invalid_base(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "enumerate", "digitset=p=4;digits=0,1\nX=10\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=validation")
    assert "base not an odd prime" in err


def test_count_golden_row(tmp_path):
    config = "digitset=p=3;digits=0,1\ns=2\nk=1\nX=9\nmethod=brute\n"
    code, out = run_cli(tmp_path, "count", config)
    assert code == 0
    lines = (out / "count.csv").read_text().splitlines()
    assert lines[1] == "X,Y,s,k,count,method,seconds"
    assert lines[2] == "9,4,2,1,28,brute,NA"


def test_count_deterministic_bytes(tmp_path):
    config = "digitset=p=5;digits=0,1,4\ns=2\nk=2\nX=60,125\nmethod=mitm\n"
    _, out1 = run_cli(tmp_path, "count", config, name="a")
    _, out2 = run_cli(tmp_path, "count", config, name="b")
    assert (out1 / "count.csv").read_bytes() == (out2 / "count.csv").read_bytes()


def test_count_workers_deterministic(tmp_path):
    config = "digitset=p=3;digits=0,1\ns=2\nk=2\nX=81\nmethod=mitm\n"
    _, out1 = run_cli(tmp_path, "count", config, name="w1")
    _, out2 = run_cli(tmp_path, "count", config, extra=["--workers", "2"], name="w2")
    assert (out1 / "count.csv").read_bytes() == (out2 / "count.csv").read_bytes()


def test_count_budget_exit_code(tmp_path, capsys):
    config = "digitset=p=3;digits=0,1\ns=3\nk=1\nX=300\nmethod=brute\n"
    code, _ = run_cli(tmp_path, "count", config, extra=["--budget-tuples", "1000"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error kind=budget")


def test_count_histogram(tmp_path):
    config = "digitset=p=3;digits=0,1\ns=2\nk=1\nX=9\nmethod=mitm\nhistogram=on\n"
    code, out = run_cli(tmp_path, "count", config)
    assert code == 0
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[1] == "key_hex,multiplicity"
    # multiplicities over pair sums of {1,3,4,9} sum to 16 and square-sum to 28
    mults = [int(line.split(",")[1]) for line in lines[2:]]
    assert sum(mults) == 16
    assert sum(m * m for m in mults) == 28


D5 = "digitset=p=5;digits=0,1,4\n"


def count_cells(out):
    """The data rows of count.csv, split into cells."""
    return [line.split(",") for line in (out / "count.csv").read_text().splitlines()[2:]]


def histogram_lines(out):
    """histogram.csv without its config line."""
    return (out / "histogram.csv").read_text().splitlines()[1:]


def test_histogram_builds_one_table(tmp_path, monkeypatch):
    from ellipsephic import meanvalue

    calls = []
    build = meanvalue.power_sum_table

    def spy(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(meanvalue, "power_sum_table", spy)
    code, _ = run_cli(tmp_path, "count", D5 + "s=2\nk=2\nX=125\nhistogram=on\n")
    assert code == 0
    assert len(calls) == 1


def expected_histogram(system, members):
    """histogram.csv's rows spelled cell by cell from a Counter of the keys of
    every ordered pair, and the sum of its squared multiplicities."""
    counts = Counter(system.key(pair) for pair in itertools.product(members, repeat=2))
    rows = [",".join([key_hex(key), _fmt(m)]) for key, m in sorted(counts.items())]
    return ["key_hex,multiplicity"] + rows, sum(m * m for m in counts.values())


def test_histogram_rows_render_as_fmt(tmp_path):
    code, out = run_cli(tmp_path, "count", D5 + "s=2\nk=2\nX=625\nhistogram=on\n")
    assert code == 0
    system = SpacedSystem.pure_powers(2, 5)
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 625))
    assert len(members) == 81
    lines, squares = expected_histogram(system, members)
    assert len(lines) > 1000
    assert histogram_lines(out) == lines
    assert count_cells(out)[0][4] == str(squares) == str(mitm_count(system, 2, members).count)


@pytest.mark.parametrize(
    "p, digits, x, n_rows",
    [(101, (0, 1), 101**5, 528), (5, (0, 4), 3, 0)],
    ids=["object-keys", "empty"],
)
def test_histogram_edge_cases(tmp_path, p, digits, x, n_rows):
    config = f"digitset=p={p};digits={','.join(map(str, digits))}\ns=2\nk=2\nX={x}\nhistogram=on\n"
    code, out = run_cli(tmp_path, "count", config)
    assert code == 0
    system = SpacedSystem.pure_powers(2, p)
    members = list(iter_members(DigitSet(p, digits), x))
    lines, _ = expected_histogram(system, members)
    assert len(lines) == 1 + n_rows
    assert histogram_lines(out) == lines
    assert count_cells(out)[0][4] == str(brute_force_count(system, 2, members).count)
    if n_rows:  # squares past 2**63: the kernel's key columns are object arrays
        assert multiplicity_table(system, 2, members).keys.dtype == object


def test_histogram_brute_matches_mitm(tmp_path):
    config = D5 + "s=2\nk=2\nX=125\nhistogram=on\n"
    _, brute = run_cli(tmp_path, "count", config + "method=brute\n", name="brute")
    _, mitm = run_cli(tmp_path, "count", config + "method=mitm\n", name="mitm")
    assert len(histogram_lines(brute)) > 100
    assert histogram_lines(brute) == histogram_lines(mitm)
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 125))
    expected = brute_force_count(SpacedSystem.pure_powers(2, 5), 2, members).count
    assert count_cells(brute)[0][4] == count_cells(mitm)[0][4] == str(expected)


@pytest.mark.parametrize(
    "config",
    [
        "s=2\nk=1\nX=25,125\nmethod=brute\n",
        "s=2\nk=2\nX=25,125,625\nmethod=mitm\n",
        "s=2\nk=2\nX=625\nhistogram=on\n",
    ],
    ids=["brute", "mitm", "histogram"],
)
def test_timing_fills_only_seconds(tmp_path, config):
    _, plain = run_cli(tmp_path, "count", D5 + config, name="off")
    _, timed = run_cli(tmp_path, "count", D5 + config + "timing=on\n", name="on")
    off, on = count_cells(plain), count_cells(timed)
    assert len(on) == len(off) > 0
    for row_on, row_off in zip(on, off):
        assert row_off[6] == "NA" and float(row_on[6]) >= 0
        assert row_on[:6] == row_off[:6]
    assert sorted(p.name for p in timed.iterdir()) == sorted(p.name for p in plain.iterdir())
    if "histogram" in config:
        assert histogram_lines(timed) == histogram_lines(plain)


@pytest.mark.parametrize(
    "subcommand, config",
    [
        ("count", "digitset=p=3;digits=0,1\ns=2\nk=1\nX=9,27\nhistogram=on\n"),
        ("enumerate", "digitset=p=3;digits=0,1\nX=0\n"),
        # the budget rules read s before the engines validate it
        ("count", "digitset=p=5;digits=0,4\ns=-1\nk=1\nX=125\n"),
        ("count", "digitset=p=5;digits=0,4\ns=0\nk=1\nX=3\n"),  # no members
        # every value the pricing reads is validated before any member is counted
        ("count", "digitset=p=5;digits=0,4\ns=2\nk=0\nX=125\n"),
        ("lift", D5 + "task=decompose\nt=2\nd=0\nX=3125\n"),
        ("congruence", D5 + "task=lambda\ns=2\nk=2\nB=2,0\n"),
        *(("congruence", D5 + "task=K\ns=2\nk=2\nX=125\n" + params) for params in (
            "t=1\nB=2\na=1\nb=1\nr=1\nnu=1\n",
            "t=2\nB=2\na=1\nb=1\nr=3\nnu=1\n",  # r > k
            "t=2\nB=2\na=1\nb=1\nr=1\nnu=-1\n",
            "t=3\nB=2\na=1\nb=1\nr=1\nnu=1\n",  # R = 3 > s
            "t=2\nB=2\na=-1\nb=1\nr=1\nnu=1\n",
            "t=2\nB=0\na=1\nb=1\nr=1\nnu=1\n",
            "t=2\nB=2\na=1\nb=1\nr=1\nnu=1\ndelta=-3,0\n",
        )),
    ],
    ids=[
        "count-histogram-several-X",
        "enumerate-X0",
        "count-negative-s",
        "count-s0-empty",
        "count-k0",
        "lift-decompose-d0",
        "congruence-lambda-B0",
        "congruence-K-t1",
        "congruence-K-r-over-k",
        "congruence-K-nu-negative",
        "congruence-K-R-over-s",
        "congruence-K-a-negative",
        "congruence-K-B0",
        "congruence-K-delta-negative",
    ],
)
def test_validation_error_leaves_no_output(tmp_path, capsys, monkeypatch, subcommand, config):
    from ellipsephic import digits, lifting, meanvalue, waring

    def unpriced(*args, **kwargs):
        raise AssertionError("priced before the config was validated")

    for module in (digits, lifting, meanvalue, waring, _tables):
        monkeypatch.setattr(module, "price", unpriced)
    code, out = run_cli(tmp_path, subcommand, config)
    assert code == 2
    assert capsys.readouterr().err.startswith("error kind=validation")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonsense_budget_is_validation_error(tmp_path, capsys, budget):
    config = "digitset=p=3;digits=0,1\ns=2\nk=1\nX=9\n"
    code, out = run_cli(tmp_path, "count", config, extra=["--budget-tuples", budget])
    assert code == 2
    assert capsys.readouterr().err.startswith("error kind=validation")
    assert list(out.iterdir()) == []


def test_count_refused_by_the_multiset_proxy(tmp_path):
    # C(Y+5, 6) = 304,027,892,532 multisets for Y = 243; the kernel's dense
    # steps are predicted at about 10**5 candidates
    code, out = run_cli(tmp_path, "count", D5 + "s=6\nk=1\nX=3125\n")
    assert code == 0
    members = list(iter_members(DigitSet(5, (0, 1, 4)), 3125))
    # Kronecker substitution: the coefficients of (sum_x z**x)**6 are below
    # 243**6 < 2**64, so z = 2**64 packs them into one Python integer
    packed = sum(1 << (64 * x) for x in members) ** 6
    coeffs = np.frombuffer(packed.to_bytes(8 * (6 * 3125 + 1), "little"), dtype="<u8")
    expected = sum(int(c) ** 2 for c in coeffs)
    assert expected == 4481269930914580087036089
    assert count_cells(out)[0][:5] == ["3125", "243", "6", "1", str(expected)]


def test_lift_chain_refused_by_the_tuple_proxy(tmp_path):
    # 729**2 tuples, so 531441**2 pairs for the old rule; a step's table is
    # predicted at 729 + 729 * 729 candidates
    config = D5 + "task=chain\nt=2\nc=1\nB=3\npsi=0,0,1\nX=15625\n"
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 0
    assert (out / "lift_chain.csv").read_text().splitlines()[2:] == ["1,1,1", "2,2,1", "3,3,1"]


def test_lift_chain_priced_per_factor(tmp_path, monkeypatch):
    # slot i of factor i holds x mod a power of 3 below 3**9, at most X = 728, and
    # the other slots 0; priced as five (0, 3**9 - 1) columns the keys were objects
    from ellipsephic import lifting

    plans, real = [], lifting.price

    def priced(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        raise BudgetError("stop before enumerating")

    monkeypatch.setattr(lifting, "price", priced)
    config = "task=chain\ndigitset=p=3;digits=0,1\nt=3\nc=1\nB=9\npsi=0,0,1\nX=728\n"
    code, _ = run_cli(tmp_path, "lift", config)
    assert code == 3
    [plan] = plans
    assert plan.key_dtype is np.int64
    assert plan.widths == [2 * 3**9 - 1, 729, 729, 729, 2 * 3**9 - 1]


def random_priced_job(rng):
    """A small random count or lift chain config: (kind, subcommand, text)."""
    p = rng.choice((3, 5, 7))
    digits = sorted(rng.sample(range(p), rng.randint(2, p - 1)))
    text = f"digitset=p={p};digits={','.join(map(str, digits))}\nstrict=off\n"
    x = rng.randint(1, 400)
    kind = rng.choice(("count", "chain"))
    if kind == "count":
        xs = ",".join(str(rng.randint(1, 400)) for _ in range(rng.randint(1, 2)))
        histogram = rng.choice(("on", "off"))
        return kind, "count", text + (f"s={rng.randint(1, 3)}\nk={rng.randint(1, 3)}\n"
                                      f"X={x if histogram == 'on' else xs}\n"
                                      f"histogram={histogram}\n")
    return kind, "lift", text + (f"task=chain\nt={rng.randint(1, 3)}\nc={rng.randint(1, 2)}\n"
                                 f"B={rng.randint(1, 3)}\npsi=0,0,1\nX={x}\n")


def test_pre_price_bounds_the_kernel_price(tmp_path, monkeypatch):
    """The engines given a MemberSet price its shapes before a member is
    enumerated, so that a job is refused before memory is allocated; no plan
    the kernel then prices from the real factors may need more work or bytes
    than the largest of the job's pre-prices.  Congruence jobs have no
    pre-price: the kernel prices each class table from its residues."""
    from ellipsephic import lifting, meanvalue

    real = _tables.price

    def recording(plans):
        def priced(*args, **kwargs):
            plans.append(real(*args, **kwargs))
            return plans[-1]

        return priced

    pre, engine = [], []
    for module in (meanvalue, lifting):
        monkeypatch.setattr(module, "price", recording(pre))
    monkeypatch.setattr(_tables, "price", recording(engine))
    rng = random.Random(19)
    ran = []
    for i in range(120):
        kind, subcommand, config = random_priced_job(rng)
        pre.clear()
        engine.clear()
        code, _ = run_cli(tmp_path, subcommand, config, name=f"job{i}")
        if code != 0 or not engine:  # refused (e.g. r too large for s), or no members
            continue
        ran.append(kind)
        for field in ("work", "nbytes"):
            most = max(getattr(plan, field) for plan in pre)
            assert max(getattr(plan, field) for plan in engine) <= most, (field, config)
    assert all(ran.count(kind) >= 10 for kind in ("count", "chain")), ran


def test_etstar_output(tmp_path):
    config = "source=explicit:0,1\nt=2\nN=100\n"
    code, out = run_cli(tmp_path, "etstar", config)
    assert code == 0
    payload = json.loads((out / "etstar.json").read_text())
    assert payload["max_count"] == 2
    assert payload["max_at"] == 1
    windows = (out / "etstar_windows.csv").read_text().splitlines()
    assert windows[1] == "window_start,window_max"


@pytest.mark.parametrize(
    "config, extra",
    [
        # the table of two squares up to 10^6 is priced at 94,001 candidates
        ("source=squares\nt=2\nN=1000000\n", ["--budget-tuples", "1"]),
        # 10^7 + 1 values: refused from the integer root, before any is listed
        ("source=powers:1\nt=2\nN=10000000\n", []),
    ],
    ids=["squares-budget-tuples", "powers-unlisted"],
)
def test_etstar_refused_before_listing(tmp_path, capsys, monkeypatch, config, extra):
    from ellipsephic import digits

    def unlisted(*args):
        raise AssertionError("source values listed before the budget refused")

    monkeypatch.setattr(digits.DigitSource, "up_to", unlisted)
    code, out = run_cli(tmp_path, "etstar", config, extra=extra)
    assert code == 3
    assert capsys.readouterr().err.startswith("error kind=budget")
    assert list(out.iterdir()) == []


def test_congruence_lambda_output(tmp_path):
    config = "task=lambda\ndigitset=p=3;digits=0,1\ns=2\nk=1\nB=2,3\n"
    code, out = run_cli(tmp_path, "congruence", config)
    assert code == 0
    lines = (out / "congruence_lambda.csv").read_text().splitlines()
    assert lines[1] == "B,H,h,s,k,U_B,U_BH,ratio,normalizer"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["2", "2", "3", "3"]
    assert rows[0][-1] == "q^H" and rows[1][-1] == "classes"
    assert float(rows[0][5]) == pytest.approx(2.25)  # U^2 = (3/2)^2


def test_congruence_k_output(tmp_path):
    config = (
        "task=K\ndigitset=p=3;digits=0,1\ns=2\nk=1\nt=2\nB=2\n"
        "a=1\nb=1\nr=1\nnu=1\nX=9\n"
    )
    code, out = run_cli(tmp_path, "congruence", config)
    assert code == 0
    lines = (out / "congruence_k.csv").read_text().splitlines()
    assert lines[1] == "a,b,r,nu,K,K_tilde,delta"
    cells = lines[2].split(",")
    assert float(cells[4]) == pytest.approx(0.75)
    assert cells[5] == "NA"  # k = 1 has no normalised form


def test_congruence_lambda_priced_on_residues(tmp_path):
    # Y = 19683 members, but U^B's factor holds at most p^B distinct residues; priced
    # per member, B = 2 would need 307,566,558 candidates and 12.3 GB, and be refused
    config = D5 + "task=lambda\ns=3\nk=2\nB=2,3\nX=1953125\n"
    code, out = run_cli(tmp_path, "congruence", config)
    assert code == 0
    lines = (out / "congruence_lambda.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    # U_B and U_BH of the per-member kernel with the budget lifted
    want = {"2": (70897949487, 59275334817), "3": (4924155159, 2195382771)}
    for row in rows:
        assert (float(row[5]), float(row[6])) == want[row[0]]


def test_congruence_k_priced_on_residues(tmp_path):
    # each level-1 class holds 81 members but 3 residues mod 25; priced per member, the
    # first class table would need 6642 candidates, and be refused at 1000
    config = D5 + "task=K\ns=3\nk=2\nB=2\nX=3125\nt=2\na=1\nb=1\nr=1\nnu=1\n"
    code, out = run_cli(tmp_path, "congruence", config, extra=["--budget-tuples", "1000"])
    assert code == 0
    budgeted = (out / "congruence_k.csv").read_bytes()
    code, out = run_cli(tmp_path, "congruence", config, name="free")
    assert code == 0
    assert budgeted == (out / "congruence_k.csv").read_bytes()
    assert budgeted.decode().splitlines()[2] == "1,1,1,1,27702.0,0.24836601307189543,0"


def test_congruence_lambda_weighs_each_x_once(tmp_path, monkeypatch):
    """No member is listed: each level reads the residue counts of its MemberSet."""
    from ellipsephic import digits

    def unlisted(*args):
        raise AssertionError("members listed")

    monkeypatch.setattr(digits, "iter_members", unlisted)
    config = D5 + "task=lambda\ns=2\nk=2\nB=2,3,4\nX=3125\n"
    code, out = run_cli(tmp_path, "congruence", config)
    assert code == 0
    rows = (out / "congruence_lambda.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["2", "2", "3", "3", "4", "4"]


def test_congruence_unit_weights_priced_before_listing(tmp_path, monkeypatch):
    """3**20 unit weights, once refused at 130 bytes a member, are read as
    residue counts mod 5: the job runs with no member listed, as does task=K
    on the 531,441 members up to 5^12."""
    from ellipsephic import digits

    def unlisted(*args):
        raise AssertionError("members listed")

    monkeypatch.setattr(digits, "iter_members", unlisted)
    config = D5 + f"task=lambda\ns=1\nk=1\nB=1\nX={5**20}\n"
    code, out = run_cli(tmp_path, "congruence", config)
    assert code == 0
    # the members of [1, 5^20] are the nonzero strings of 20 digits from
    # {0, 1, 4} and 5^20 itself: 3^19 strings end in each digit, less the zero
    # string and plus 5^20 on residue 0.  U^1 = sum N_d^2 / Y over the residues
    # d mod 5, and U^{1,1} equals it, since each class mod 5 is one residue
    per_residue = [3**19 - 1 + 1, 3**19, 3**19]
    u_b = Fraction(sum(n * n for n in per_residue), sum(per_residue))
    rows = [line.split(",") for line in (out / "congruence_lambda.csv").read_text().splitlines()]
    assert rows[2][:7] == ["1", "1", "0", "1", "1", repr(float(u_b)), repr(float(u_b))]
    config = D5 + f"task=K\ns=3\nk=2\nB=2\nX={5**12}\nt=2\na=1\nb=1\nr=1\nnu=1\n"
    assert run_cli(tmp_path, "congruence", config, name="K")[0] == 0


def test_lift_decompose_output(tmp_path):
    config = "task=decompose\ndigitset=p=3;digits=0,1\nt=2\nd=2\nX=9\n"
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 0
    lines = (out / "lift_decomposition.csv").read_text().splitlines()
    assert lines[1] == "lambda_tuple,contribution"
    assert lines[2].startswith("0:0,")


def test_lift_decompose_refuses_before_weights(tmp_path, capsys, monkeypatch):
    from ellipsephic import lifting

    def unbuilt(*args, **kwargs):
        raise AssertionError("tuple weights built before the pair budget refused")

    monkeypatch.setattr(lifting, "unit_tuple_weights", unbuilt)
    config = "task=decompose\ndigitset=p=3;digits=0,1,2\nstrict=off\nt=2\nd=1\nX=27\n"
    code, _ = run_cli(tmp_path, "lift", config, extra=["--budget-tuples", "1000"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error kind=budget")


@pytest.mark.parametrize(
    "subcommand, config, extra",
    [
        # the last X alone is over the budget; no X is counted before it refuses
        ("count", "s=3\nk=2\nX=125,625,9765625\n", []),
        ("count", "s=3\nk=1\nX=5,25,125\nmethod=brute\n", ["--budget-tuples", "10000"]),
        ("count", "s=2\nk=1\nX=125\nhistogram=on\n", ["--budget-tuples", "10"]),
        ("lift", "task=decompose\nt=2\nd=1\nX=15625\n", []),
        # a step's table is predicted at Y**2 = 3**28 candidates (Y = 3**14)
        ("lift", f"task=chain\nt=2\nc=1\nB=3\npsi=0,0,1\nX={5**14}\n", []),
        # level 2 alone is admitted; level 10 (X = 5^10) is refused before it
        ("congruence", "task=lambda\ns=3\nk=2\nB=2,10\n", []),
        # a level-1 class mod 5^10 holds up to min(Y, 5^9) = 59049 residues
        ("congruence", "task=K\ns=3\nk=2\nB=10\nt=2\na=1\nb=1\nr=1\nnu=1\n", []),
        ("enumerate", "X=125\n", ["--budget-tuples", "10"]),
    ],
    ids=[
        "count-mitm",
        "count-brute",
        "count-histogram",
        "lift-decompose",
        "lift-chain",
        "congruence-lambda",
        "congruence-K",
        "enumerate",
    ],
)
def test_refusal_from_member_count(tmp_path, capsys, monkeypatch, subcommand, config, extra):
    from ellipsephic import digits

    def unenumerated(*args):
        raise AssertionError("members enumerated before the budget refused")

    monkeypatch.setattr(digits, "iter_members", unenumerated)
    config = "digitset=p=5;digits=0,1,4\n" + config
    code, out = run_cli(tmp_path, subcommand, config, extra=extra)
    assert code == 3
    assert capsys.readouterr().err.startswith("error kind=budget")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, config",
    [
        ("count", "s=2\nk=1\nX=9\n"),
        ("lift", "task=decompose\nt=2\nd=1\nX=9\n"),
        ("lift", "task=chain\nt=2\nc=1\nB=3\npsi=0,0,1\nX=9\n"),
        ("congruence", "task=lambda\ns=2\nk=1\nB=2\n"),
        ("congruence", "task=K\ns=2\nk=1\nt=2\nB=2\na=1\nb=1\nr=1\nnu=1\nX=9\n"),
        ("enumerate", "X=9\n"),
    ],
    ids=[
        "count",
        "lift-decompose",
        "lift-chain",
        "congruence-lambda",
        "congruence-K",
        "enumerate",
    ],
)
def test_member_count_mismatch_is_invariant_error(
    tmp_path, capsys, monkeypatch, subcommand, config
):
    from ellipsephic import digits

    monkeypatch.setattr(digits, "count_members", lambda ds, bound: 0)
    code, out = run_cli(tmp_path, subcommand, "digitset=p=3;digits=0,1\n" + config)
    assert code == 4
    assert capsys.readouterr().err.startswith("error kind=invariant")
    # enumerate streams its members: the mismatch shows only after the last
    # line, and the temporary file goes with it
    assert list(out.iterdir()) == []


def test_waring_huge_bound_refused_at_once(tmp_path, capsys):
    config = f"digitset=p=5;digits=0,1,4\ns=3\nk=3\nX={10**100}\n"
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "waring", config)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert capsys.readouterr().err.startswith("error kind=budget")
    assert list(out.iterdir()) == []


def test_lift_chain_output(tmp_path):
    config = (
        "task=chain\ndigitset=p=3;digits=0,1\nt=2\nc=1\nB=3\npsi=0,0,1\nX=27\n"
    )
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 0
    lines = (out / "lift_chain.csv").read_text().splitlines()
    assert lines[1] == "j,c_j,verified"
    assert lines[2:] == ["1,1,1", "2,2,1", "3,3,1"]


def test_lift_chain_beyond_pair_list(tmp_path):
    # Y = 128 members; listing the 100,663,296 solution pairs would take 6.4 GB
    config = "task=chain\ndigitset=p=3;digits=0,1\nt=2\nc=1\nB=1\npsi=0,0,1\nX=2187\n"
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 0
    assert (out / "lift_chain.csv").read_text().splitlines()[2:] == ["1,1,1"]
    # oracle: pairs with equal phi sums mod 3 are sum_r n_r**2 over the t = 2
    # fold convolution n of the members' phi residues
    system = SpacedSystem.perturbed(3, 1, [[0, 0, 1]])
    members = list(iter_members(DigitSet(3, (0, 1)), 2187))
    single = [sum(1 for x in members if system.phi(1, x) % 3 == r) for r in range(3)]
    pair = [sum(single[a] * single[(r - a) % 3] for a in range(3)) for r in range(3)]
    assert sum(n * n for n in pair) == 100_663_296
    chain = lifting_chain(system, 2, members, 1)
    assert [(st.j, st.c_j, st.pairs_checked) for st in chain.steps] == [(1, 1, 100_663_296)]


@pytest.mark.parametrize(
    "config",
    [
        "task=decompose\nt=-1\nd=1\nX=27\n",
        "task=decompose\nt=0\nd=1\nX=27\n",
        "task=chain\nt=-1\nc=1\nB=3\npsi=0,0,1\nX=27\n",
        "task=chain\nt=0\nc=1\nB=3\npsi=0,0,1\nX=27\n",
        "task=chain\nt=2\nc=1\nB=0\npsi=0,0,1\nX=27\n",
        "task=chain\nt=2\nc=1\nB=-1\npsi=0,0,1\nX=27\n",
    ],
    ids=["decompose-t-1", "decompose-t0", "chain-t-1", "chain-t0", "chain-B0", "chain-B-1"],
)
def test_lift_refuses_bad_t_and_b(tmp_path, capsys, config):
    code, out = run_cli(tmp_path, "lift", "digitset=p=3;digits=0,1\n" + config)
    assert code == 2
    assert capsys.readouterr().err.startswith("error kind=validation")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("task", ["decompose", "chain"])
def test_lift_accepts_t_one(tmp_path, task):
    extra = "d=2\n" if task == "decompose" else "c=1\nB=2\npsi=0,0,1\n"
    config = f"task={task}\ndigitset=p=3;digits=0,1\nt=1\nX=27\n" + extra
    code, out = run_cli(tmp_path, "lift", config)
    assert code == 0
    assert len(list(out.iterdir())) == 1


def test_write_lines_streams_and_leaves_nothing_on_failure(tmp_path):
    lines = [f"{n},{n * n}" for n in range(3 * (1 << 16) + 5)]  # spans 4 chunks
    _write_lines(tmp_path / "a.csv", "hdr", iter(lines))
    assert (tmp_path / "a.csv").read_text() == "\n".join(["# config: hdr", *lines]) + "\n"
    _write_lines(tmp_path / "b.csv", "hdr", iter([]))
    assert (tmp_path / "b.csv").read_text() == "# config: hdr\n"

    def failing():
        yield from lines
        raise BudgetError("source failed after every line")

    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(BudgetError):
        _write_lines(out / "c.csv", "hdr", failing())
    assert list(out.iterdir()) == []


class _FailingFile:
    """A file whose every write stores its first bytes, then fails."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:4])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def test_write_json_leaves_nothing_when_a_write_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "open", _FailingFile, raising=False)
    with pytest.raises(OSError):
        cli._write_json(tmp_path / "fit.json", "hdr", {"slope": 2.0})
    assert list(tmp_path.iterdir()) == []


CHUNK = 64  # _CHUNK_LINES in the bulk-row test, so chunk edges stay cheap to spell per row

# key columns beside the k base ones, each cycling its values over the rows so
# that every chunk reaches its largest magnitude: the renderer's dtype edges
# (uint32 below 2**32, uint64 below 2**64, object above), int64 extremes,
# zeros only (slot width 1), hex digits a..f and a negative object value
EDGE_COLUMNS = [
    (np.int64, [-(1 << 63), (1 << 63) - 1, 0, -1]),
    (np.int64, [(1 << 32) - 1, 5, 0]),
    (np.int64, [1 << 32, -3, 0]),
    (object, [(1 << 64) - 1, 0, -7]),
    (object, [1 << 64, 1, 0]),
    (np.int64, [0]),
    (np.int64, [0xABCDEF, 0xF, 10, 9]),
    (object, [-(1 << 64) - 5, 3, -1]),
]


@pytest.mark.parametrize("rows", [0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_bulk_rows_match_per_row_spelling(tmp_path, monkeypatch, rows, k):
    """The bulk writer's bytes equal the per-row key_hex and _fmt spelling:
    negative components, int64 beside object columns past 2**63, the
    EDGE_COLUMNS in both %x and %d, and row counts around chunk edges; the
    *_rows_render_as_fmt tests run the real chunk size."""
    monkeypatch.setattr(cli, "_CHUNK_LINES", CHUNK)
    i = np.arange(rows, dtype=np.int64)
    key_cols = [i - 16, np.array([(-1) ** n * (n << 58) for n in range(rows)], dtype=object),
                i % 7][:k]
    key_cols += [np.array([vals[n % len(vals)] for n in range(rows)], dtype=dtype)
                 for dtype, vals in EDGE_COLUMNS]
    masses = np.array([(1 << 64) + n for n in range(rows)], dtype=object)
    keys = [tuple(key) for key in zip(*(col.tolist() for col in key_cols))]
    assert rows == 0 or key_hex(keys[0][:k]) == "-10" + ":0" * (k - 1)
    width = len(key_cols)
    hex_fmt, dec_fmt = ":".join(["%x"] * width) + ",%d", ",".join(["%d"] * (width + 1))
    _write_columns(tmp_path / "hex.csv", "hdr", "key,m", hex_fmt, [*key_cols, masses])
    _write_columns(tmp_path / "dec.csv", "hdr", "cells", dec_fmt, [*key_cols, masses])
    hex_rows = (f"{key_hex(key)},{_fmt(m)}" for key, m in zip(keys, masses.tolist()))
    dec_rows = (",".join(map(_fmt, (*key, m))) for key, m in zip(keys, masses.tolist()))
    _write_lines(tmp_path / "hex_want.csv", "hdr", ["key,m"], hex_rows)
    _write_lines(tmp_path / "dec_want.csv", "hdr", ["cells"], dec_rows)
    for name in ("hex", "dec"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_want.csv").read_bytes()
        assert got.count(b"\n") == rows + 2


def test_waring_output(tmp_path):
    config = "digitset=p=5;digits=0,1,4\ns=2\nk=2\nX=625\n"
    code, out = run_cli(tmp_path, "waring", config)
    assert code == 0
    payload = json.loads((out / "waring.json").read_text())
    assert payload["Y"] == 9
    assert payload["N"] == 29
    assert payload["sumR"] == 53
    assert payload["sumR2"] == 101
    rows = (out / "waring.csv").read_text().splitlines()
    assert rows[1] == "n,R"
    assert sum(int(r.split(",")[1]) for r in rows[2:]) == 53


def test_waring_rows_render_as_fmt(tmp_path):
    """Rows at the real chunk size, for an int64 R column and for an object one
    (Y**s >= 2**63 at s = 8, k = 1, while every R(n) fits uint64)."""
    for s, k, bound, r_dtype in [(3, 2, 20000, np.int64), (8, 1, 3125, object)]:
        config = f"digitset=p=5;digits=0,1,4\ns={s}\nk={k}\nX={bound}\n"
        code, out = run_cli(tmp_path, "waring", config, name=f"s{s}")
        assert code == 0
        table = representation_table(DigitSet(5, (0, 1, 4)), s, k, bound)
        assert table.r.dtype == r_dtype
        rows = [[n, table.counts[n]] for n in sorted(table.counts)]
        lines = (out / "waring.csv").read_text().splitlines()
        assert len(rows) > 1000
        assert lines[1:] == ["n,R"] + [",".join(_fmt(cell) for cell in row) for row in rows]


def test_fit_synthetic_square_law(tmp_path):
    series = tmp_path / "series.csv"
    rows = ["X,Y,s,k,count,method,seconds"]
    rows += [f"{10 * y},{y},2,1,{y * y},mitm,NA" for y in (2, 4, 8, 16)]
    series.write_text("\n".join(rows) + "\n")
    code, out = run_cli(tmp_path, "fit", f"input={series}\n", name="sq")
    assert code == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["slope"] == pytest.approx(2.0, abs=1e-9)


def test_fit_on_count_series(tmp_path):
    config = "digitset=p=5;digits=0,1,4\ns=1\nk=1\nX=25,125,625,3125\nmethod=mitm\n"
    code, out = run_cli(tmp_path, "count", config, name="series")
    assert code == 0
    fit_cfg = f"input={out / 'count.csv'}\n"
    code2, out2 = run_cli(tmp_path, "fit", fit_cfg, name="fit")
    assert code2 == 0
    payload = json.loads((out2 / "fit.json").read_text())
    assert payload["slope"] == pytest.approx(1.0, abs=1e-9)  # s=1 counts equal Y


@pytest.mark.parametrize("row", ["4,5", "4,5,6,7"])
def test_fit_refuses_a_row_of_the_wrong_length(tmp_path, capsys, row):
    series = tmp_path / "series.csv"
    series.write_text(f"X,Y,count\n1,2,3\n{row}\n")
    code, out = run_cli(tmp_path, "fit", f"input={series}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=validation") and repr(row) in err
    assert not (out / "fit.json").exists()


def test_config_and_outputs_ignore_the_locale(tmp_path, capsys):
    """Under an ASCII locale, with neither locale coercion nor UTF-8 mode, a
    UTF-8 config gives the bytes it gives in process, and bytes that are not
    UTF-8, in a config or a fit input, are a validation error."""
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    base = "digitset=p=5;digits=0,1,4\ns=2\nk=2\nX=625\nnote="
    for name, note, code in [("utf8", "é".encode(), 0), ("ff", b"\xff", 2)]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(base.encode() + note + b"\n")
        out = tmp_path / f"ascii_{name}"
        argv = ["waring", "--config", str(cfg), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "ellipsephic.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert main([*argv[:3], "--out", str(tmp_path / f"here_{name}")]) == code
        if code:
            assert proc.stderr.startswith(b"error kind=validation")
            assert not out.exists() or list(out.iterdir()) == []
            continue
        for fname in ("waring.csv", "waring.json"):
            assert (out / fname).read_bytes() == (tmp_path / f"here_{name}" / fname).read_bytes()
        assert "note=é".encode() in (out / "waring.csv").read_bytes()  # JSON escapes it
    series = tmp_path / "series.csv"
    series.write_bytes(b"X,Y,count\n1,2,3\n# \xff\n")
    assert run_cli(tmp_path, "fit", f"input={series}\n")[0] == 2
    assert capsys.readouterr().err.count("error kind=validation") == 2


def test_missing_config_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "count", "digitset=p=3;digits=0,1\n")
    assert code == 2
    assert "missing required" in capsys.readouterr().err


def test_unknown_task(tmp_path):
    code, _ = run_cli(tmp_path, "congruence", "task=nope\ndigitset=p=3;digits=0,1\ns=1\nk=1\n")
    assert code == 2
