"""Command-line experiment runner.

Subcommands wrap the library modules one-to-one; every run reads a line
oriented ``key=value`` config file and writes CSV/JSON outputs that start
with (or embed) a canonical reproducibility header.  Identical configs
produce byte-identical outputs; timing information is only emitted when
explicitly requested since it would break that guarantee.  Config and fit
input files are read as UTF-8 and outputs written as UTF-8, whatever the
locale, so the bytes do not depend on it; a file that is not UTF-8 is a
validation error.

Runners hand the engines a ``MemberSet``, which each budgets from its count,
or congruence from its residue counts, before a member is listed.  Exit
codes: 0 ok, 2 validation error, 3 budget refusal, 4 invariant breach.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._tables import check_pairs
from .errors import BudgetError, InvariantError, ValidationError
from . import congruence as cg
from . import digits as dg
from . import lifting as lf
from . import meanvalue as mv
from . import waring as wr

# --- config handling --------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse line-oriented key=value config; '#' starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"config line {lineno} has an empty key")
        if key in out:
            raise ValidationError(f"config key repeated: {key!r}")
        out[key] = value
    return out


def _escape(text: str) -> str:
    # ';' separates pairs in the canonical line, so keys and values escape it
    return text.replace("%", "%25").replace(";", "%3B")


def _unescape(text: str) -> str:
    return text.replace("%3B", ";").replace("%25", "%")


def canonical_config(subcommand: str, cfg: dict[str, str]) -> str:
    """One-line canonical form used in reproducibility headers; lossless."""
    body = ";".join(f"{_escape(k)}={_escape(cfg[k])}" for k in sorted(cfg))
    return f"{subcommand};{body}" if body else subcommand


def parse_canonical(text: str) -> tuple[str, dict[str, str]]:
    """Invert canonical_config; round-trips every config exactly."""
    subcommand, _, body = text.partition(";")
    cfg: dict[str, str] = {}
    if body:
        for part in body.split(";"):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValidationError(f"malformed canonical fragment: {part!r}")
            cfg[_unescape(key)] = _unescape(value)
    return subcommand, cfg


def _require(cfg: dict[str, str], *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValidationError(f"config is missing required keys: {', '.join(missing)}")


def _get_int(cfg: dict[str, str], key: str, default: int | None = None, least=None) -> int:
    if key not in cfg:
        if default is None:
            raise ValidationError(f"config is missing required key: {key}")
        return default
    value = _parse_int(cfg[key], f"config key {key}")
    if least is not None and value < least:
        raise ValidationError(f"config key {key} must be >= {least}, got {value}")
    return value


def _get_int_list(cfg: dict[str, str], key: str) -> list[int]:
    _require(cfg, key)
    try:
        return [int(v) for v in cfg[key].split(",")]
    except ValueError as exc:
        raise ValidationError(f"config key {key} is not an integer list: {cfg[key]!r}") from exc


def _get_flag(cfg: dict[str, str], key: str, default: bool = False) -> bool:
    value = cfg.get(key)
    if value is None:
        return default
    if value in ("on", "1", "true"):
        return True
    if value in ("off", "0", "false"):
        return False
    raise ValidationError(f"config key {key} must be on/off, got {value!r}")


def _digit_set(cfg: dict[str, str]) -> dg.DigitSet:
    _require(cfg, "digitset")
    return dg.parse_digit_set(cfg["digitset"], strict=_get_flag(cfg, "strict", True))


def _source(cfg: dict[str, str]) -> dg.DigitSource:
    _require(cfg, "source")
    text = cfg["source"]
    if text == "squares":
        return dg.DigitSource.squares()
    if text.startswith("powers:"):
        return dg.DigitSource.powers(_parse_int(text.partition(":")[2], "source exponent"))
    if text.startswith("explicit:"):
        vals = text.partition(":")[2]
        return dg.DigitSource.explicit(
            [_parse_int(v, "source value") for v in vals.split(",")]
        )
    raise ValidationError(f"unknown source spec: {text!r}")


def _read_utf8(path: Path, what: str) -> str:
    """The text of ``path`` decoded as UTF-8, whatever the locale."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} is not UTF-8 at byte {exc.start}: {path}") from exc


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"{what} is not an integer: {text!r}") from exc


# --- output helpers ---------------------------------------------------------

_CHUNK_LINES = 1 << 16  # lines joined per write: one join per chunk, flat memory


def _fmt(value) -> str:
    """Deterministic CSV cell rendering; exact for ints, shortest repr for reals."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (Fraction, float)):
        return repr(float(value))
    return str(value)


def _write_text(path: Path, blocks) -> None:
    """Stream ``blocks`` to a temporary file beside ``path``, a str block as
    UTF-8 ended by a newline and a bytes block (rows already rendered, newlines
    included) as it is, and rename the file onto ``path`` when all are written:
    a lazy source that raises leaves neither file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for block in blocks:
                fh.write(block if isinstance(block, bytes) else f"{block}\n".encode())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, header: str, *sources) -> None:
    """The header and the lines of ``sources``, _CHUNK_LINES lines per write."""
    lines = itertools.chain([f"# config: {header}"], *sources)

    def chunks():
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            yield "\n".join(chunk)

    _write_text(path, chunks())


def _write_csv(path: Path, header: str, columns: list[str], rows) -> None:
    rendered = (",".join(_fmt(cell) for cell in row) for row in rows)
    _write_lines(path, header, [",".join(columns)], rendered)


def _write_columns(path: Path, header: str, names: str, fmt: str, columns) -> None:
    """The header, the column line ``names``, then one row of ``fmt`` (a ``%d``
    or ``%x`` per column, each followed by its separator) per index of the
    equal-length integer ``columns``, in the bytes of ``_fmt`` (``%d``) or
    ``key_hex`` (``%x``) cell by cell.

    Each chunk of _CHUNK_LINES rows is one ``uint8`` matrix with a slot per
    column as wide as the digits of the chunk's largest magnitude, plus a sign
    slot if the column holds a negative value.  Digits fill each slot right to
    left; every byte left of the leading digit stays NUL but the ``-`` just
    before a negative value's, and digits, signs and separators are never NUL,
    so dropping the NULs leaves exactly the row bytes.  Magnitudes are
    ``uint32`` below 2**32, ``uint64`` below 2**64 and Python ints above,
    through one digit loop."""
    cells = fmt.split("%")[1:]  # each a conversion, d or x, then its separator
    specs = [cell[0] for cell in cells]
    seps = [cell[1:].encode() for cell in cells]
    seps[-1] += b"\n"

    def blocks():
        for lo in range(0, len(columns[0]), _CHUNK_LINES):
            yield _render_rows([col[lo : lo + _CHUNK_LINES] for col in columns], specs, seps)

    _write_text(path, itertools.chain([f"# config: {header}", names], blocks()))


def _magnitudes(col: np.ndarray, spec: str) -> tuple[np.ndarray, np.ndarray, int]:
    """|col| in the narrowest of uint32, uint64 and object, ``col < 0``, and
    the digits of the largest magnitude in ``spec``."""
    neg = col < 0
    if col.dtype == object:
        mag = np.abs(col)
    else:  # an unsigned wrap, so -2**63 has magnitude 2**63
        mag = col.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
    top = int(mag.max())
    if top < 1 << 32:
        mag = mag.astype(np.uint32)
    elif top < 1 << 64:
        mag = mag.astype(np.uint64, copy=False)
    return mag, neg, len(format(top, spec))


def _render_rows(columns, specs, seps) -> bytes:
    """The rows of ``columns`` as ``_write_columns`` spells them."""
    parts = [_magnitudes(np.asarray(col), spec) for col, spec in zip(columns, specs)]
    slots = [width + bool(neg.any()) for _, neg, width in parts]
    template = b"".join(b"\0" * slot + sep for slot, sep in zip(slots, seps))
    out = np.empty((len(columns[0]), len(template)), np.uint8)
    out[:] = np.frombuffer(template, np.uint8)
    end = 0
    for (v, neg, width), spec, slot, sep in zip(parts, specs, slots, seps):
        base = 16 if spec == "x" else 10
        end += slot
        for j in range(1, width + 1):
            q = v // base
            digit = (v - q * base).astype(np.uint8)
            digit += 48
            digit += (digit > 57) * np.uint8(39)  # 10..15 to a..f
            if j > 1:
                digit *= v != 0  # left of the leading digit stays NUL
            out[:, end - j] = digit
            v = q
        if slot > width:
            rows = np.flatnonzero(neg)
            lead = end - np.count_nonzero(out[rows, end - width : end], axis=1)
            out[rows, lead - 1] = ord("-")
        end += len(sep)
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def _write_json(path: Path, header: str, payload: dict) -> None:
    text = json.dumps({**payload, "config": header}, sort_keys=True, separators=(",", ":"))
    _write_text(path, [text])


# --- subcommands -------------------------------------------------------------

def _run_enumerate(cfg, out: Path, header: str, budget) -> None:
    members = dg.MemberSet(_digit_set(cfg), _get_int(cfg, "X"))
    if members.y > budget.max_tuples:
        raise BudgetError(f"{members.y} members exceed the tuple budget {budget.max_tuples}")
    _write_lines(out / "enumerate.txt", header, map(str, members))


def _run_etstar(cfg, out: Path, header: str, budget) -> None:
    source = _source(cfg)
    t = _get_int(cfg, "t")
    horizon = _get_int(cfg, "N")
    profile = dg.rep_profile(source, t, horizon, budget=budget)
    report = dg.et_star_report(profile)
    _write_csv(
        out / "etstar_windows.csv",
        header,
        ["window_start", "window_max"],
        report.windows,
    )
    _write_json(
        out / "etstar.json",
        header,
        {
            "t": t,
            "N": horizon,
            "max_count": report.max_count,
            "max_at": report.max_at,
            "slope": report.slope,
            "intercept": report.intercept,
        },
    )


def _run_count(cfg, out: Path, header: str, budget) -> None:
    """count.csv, and for a single X with ``histogram=on`` its table m(v) in
    the kernel's increasing key order; with method=mitm the count is read off
    that table.  ``seconds`` times the engine call that gave the count, its
    listing included.  Engines refuse before they list, and the largest X (so
    the most members) runs first, so it is refused before any count runs."""
    ds = _digit_set(cfg)
    s = _get_int(cfg, "s", least=1)
    k = _get_int(cfg, "k", least=1)
    bounds = _get_int_list(cfg, "X")
    method = cfg.get("method", "mitm")
    if method not in ("brute", "mitm"):
        raise ValidationError(f"method must be brute or mitm, got {method!r}")
    timing = _get_flag(cfg, "timing", False)
    histogram = _get_flag(cfg, "histogram", False)
    if histogram and len(bounds) != 1:
        raise ValidationError("histogram output needs a single X")
    system = mv.SpacedSystem.pure_powers(k, ds.base)
    sets = [dg.MemberSet(ds, bound) for bound in bounds]
    rows = [None] * len(sets)
    for i, members in sorted(enumerate(sets), key=lambda item: item[1].bound, reverse=True):
        start = time.perf_counter()
        if method == "brute":
            count = mv.brute_force_count(system, s, members, budget=budget).count
        elif histogram:
            table = mv.multiplicity_table(system, s, members, budget=budget)
            count = table.sum_squares()
        else:
            count = mv.mitm_count(system, s, members, budget=budget).count
        seconds = repr(round(time.perf_counter() - start, 6)) if timing else "NA"
        rows[i] = [members.bound, members.y, s, k, count, method, seconds]
    if histogram and method == "brute":  # a single X: the loop left its members
        table = mv.multiplicity_table(system, s, members, budget=budget)
    _write_csv(
        out / "count.csv", header, ["X", "Y", "s", "k", "count", "method", "seconds"], rows
    )
    if histogram:  # the kernel's int64 columns, or object ones past int64
        columns = [*table.keys.T, table.masses]
        fmt = ":".join(["%x"] * k) + ",%d"
        _write_columns(out / "histogram.csv", header, "key_hex,multiplicity", fmt, columns)


def _run_congruence(cfg, out: Path, header: str, budget) -> None:
    task = cfg.get("task")
    ds = _digit_set(cfg)
    s = _get_int(cfg, "s", least=1)
    k = _get_int(cfg, "k", least=1)
    system = mv.SpacedSystem.pure_powers(k, ds.base)
    if task == "lambda":
        levels = _get_int_list(cfg, "B")
        if min(levels) < 1:
            raise ValidationError(f"config key B needs levels >= 1, got {levels}")
        bounds = [_get_int(cfg, "X", ds.base**b_level) for b_level in levels]
        rows = [None] * len(levels)  # levels run largest first, rows kept in config order
        for i, b_level in sorted(enumerate(levels), key=lambda item: item[1], reverse=True):
            spec = cg.MeanValueSpec(system, dg.MemberSet(ds, bounds[i]), s, b_level, 0)
            rr = cg.restriction_ratio(spec, ds, budget=budget)
            row = [b_level, rr.level, 0, s, k, rr.u_b, rr.u_bh]
            by_classes = "NA" if rr.ratio_by_classes is None else rr.ratio_by_classes
            rows[i] = [row + [rr.ratio, "q^H"], row + [by_classes, "classes"]]
        columns = ["B", "H", "h", "s", "k", "U_B", "U_BH", "ratio", "normalizer"]
        _write_csv(out / "congruence_lambda.csv", header, columns, itertools.chain(*rows))
        return
    if task == "K":
        b_level = _get_int(cfg, "B", least=1)
        t = _get_int(cfg, "t")
        a = _get_int(cfg, "a", least=0)
        b = _get_int(cfg, "b", least=0)
        r = _get_int(cfg, "r")
        nu = _get_int(cfg, "nu")
        deltas = _get_int_list(cfg, "delta") if "delta" in cfg else [0]
        bound = _get_int(cfg, "X", ds.base**b_level)
        if min(deltas) < 0:
            raise ValidationError(f"config key delta needs values >= 0, got {deltas}")
        level = -(-b_level // k)
        members = dg.MemberSet(ds, bound)
        spec = cg.MeanValueSpec(system, members, s, b_level, 0)
        k_value = cg.two_class_mean_value(spec, t, r, a, b, nu, budget=budget)
        spec_h = cg.MeanValueSpec(system, members, s, b_level, level)
        u_bh = cg.congruence_mean_value(spec_h, budget=budget)
        n_classes = len(cg.class_norms(members, ds.base, level).table)
        normal = k >= 2 and 1 <= r <= k - 1 and u_bh > 0  # else K has no normalised form
        rows = [[a, b, r, nu, k_value,
                 cg.normalized_two_class(k_value, delta, r, k, u_bh, n_classes) if normal else "NA",
                 delta] for delta in deltas]
        columns = ["a", "b", "r", "nu", "K", "K_tilde", "delta"]
        _write_csv(out / "congruence_k.csv", header, columns, rows)
        return
    raise ValidationError("congruence task must be lambda or K")


def _run_lift(cfg, out: Path, header: str, budget) -> None:
    task = cfg.get("task")
    ds = _digit_set(cfg)
    t = _get_int(cfg, "t", least=1)
    if task == "decompose":
        depth = _get_int(cfg, "d", least=1)
        members = dg.MemberSet(ds, _get_int(cfg, "X"))
        check_pairs(members.y**t, budget.max_tuples)
        weights = lf.unit_tuple_weights(list(members), t)
        dec = lf.carry_decomposition(ds.base, t, depth, weights, budget=budget)
        rows = [
            [":".join(str(v) for v in lam), dec.table[lam]]
            for lam in sorted(dec.table.keys())
        ]
        _write_csv(
            out / "lift_decomposition.csv", header, ["lambda_tuple", "contribution"], rows
        )
        return
    if task == "chain":
        spacing = _get_int(cfg, "c")
        b_level = _get_int(cfg, "B", least=1)
        psi = _get_int_list(cfg, "psi")
        bound = _get_int(cfg, "X")
        system = mv.SpacedSystem.perturbed(ds.base, spacing, [psi])
        members = dg.MemberSet(ds, bound)
        chain = lf.lifting_chain(system, t, members, b_level, budget=budget)
        rows = [[st.j, st.c_j, st.verified] for st in chain.steps]
        _write_csv(out / "lift_chain.csv", header, ["j", "c_j", "verified"], rows)
        return
    raise ValidationError("lift task must be decompose or chain")


def _run_waring(cfg, out: Path, header: str, budget) -> None:
    """waring.csv, one row per n in the table's increasing order, and waring.json."""
    ds = _digit_set(cfg)
    s = _get_int(cfg, "s")
    k = _get_int(cfg, "k")
    bound = _get_int(cfg, "X")
    table = wr.representation_table(ds, s, k, bound, budget=budget)
    check = wr.cauchy_bound_check(table)
    _write_columns(out / "waring.csv", header, "n,R", "%d,%d", [table.n, table.r])
    _write_json(
        out / "waring.json",
        header,
        {
            "s": s,
            "k": k,
            "X": bound,
            "Y": table.y,
            "N": wr.represented_count(table),
            "sumR": table.total(),
            "sumR2": table.sum_squares(),
            "cauchy_lower_bound": float(check.lower_bound),
        },
    )


def _run_fit(cfg, out: Path, header: str, budget) -> None:
    _require(cfg, "input")
    path = Path(cfg["input"])
    if not path.exists():
        raise ValidationError(f"fit input not found: {path}")
    points = []
    columns: list[str] | None = None
    for line in map(str.strip, _read_utf8(path, "fit input").split("\n")):
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            for needed in ("X", "Y", "count"):
                if needed not in columns:
                    raise ValidationError(f"fit input lacks column {needed!r}")
        else:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValidationError(f"fit input line {line!r} has {len(cells)} cells")
            row = dict(zip(columns, cells))
            points.append(tuple(_parse_int(row[c], c) for c in ("X", "Y", "count")))
    fit = mv.fit_exponent(points)
    _write_json(
        out / "fit.json",
        header,
        {
            "n_points": len(points),
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
        },
    )


_RUNNERS = {
    "enumerate": _run_enumerate,
    "etstar": _run_etstar,
    "count": _run_count,
    "congruence": _run_congruence,
    "lift": _run_lift,
    "waring": _run_waring,
    "fit": _run_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellipsephic",
        description="Exact counting experiments over digit-restricted integer sets.",
    )
    parser.add_argument("subcommand", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored (one process)"
    )
    parser.add_argument("--budget-tuples", type=int, default=mv.DEFAULT_BUDGET.max_tuples)
    args = parser.parse_args(argv)

    try:
        config_path = Path(args.config)
        if not config_path.exists():
            raise ValidationError(f"config file not found: {config_path}")
        cfg = parse_config_text(_read_utf8(config_path, "config file"))
        header = canonical_config(args.subcommand, cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        budget = mv.Budget(max_tuples=args.budget_tuples)
        _RUNNERS[args.subcommand](cfg, out, header, budget)
    except ValidationError as exc:
        print(f'error kind=validation msg="{exc}"', file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f'error kind=budget msg="{exc}"', file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f'error kind=invariant msg="{exc}"', file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
