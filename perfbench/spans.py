"""Outside-in span recorder for the traced benchmark run.

Every public function of each package module is replaced, in every module
namespace that binds it by name, with a wrapper that records a span.  Patching
only the defining module would miss call sites such as
``congruence.multiplicity_table`` or ``waring.iter_members``, which were bound
at import time.  Generator functions (``iter_members``) are timed while they
are consumed, not when they are called.

Spans are aggregated in memory into a call tree: one node per (parent node,
function, argument signature), holding calls, total and self seconds, first
start and last end, and exact work counters computed from the arguments and
return values.  Self time is a span's duration minus the time covered by its
child spans.  Hot leaf functions (``base_digits``, ``carry_tuple_for_pair``,
``key_hex``) have no signature, so their calls collapse into one node per
parent instead of one record per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
import types

LAYERS = ("cli", "digits", "meanvalue", "congruence", "lifting", "waring")

# name -> (unit, better, span, field); field is "self_s", "calls", a counter
# name, or a (numerator, denominator) pair of counters.  README.md lists the
# end-to-end metric and workload each one should move.
PER_LAYER = {
    "cli.main.self_s": ("s", "lower", "cli.main", "self_s"),
    "cli.out_bytes": ("bytes", "lower", "cli.main", "out_bytes"),
    "digits.iter_members.self_s": ("s", "lower", "digits.iter_members", "self_s"),
    "digits.iter_members.members": ("count", "lower", "digits.iter_members", "members"),
    "digits.rep_profile.self_s": ("s", "lower", "digits.rep_profile", "self_s"),
    "digits.et_star_report.self_s": ("s", "lower", "digits.et_star_report", "self_s"),
    "meanvalue.mitm_count.self_s": ("s", "lower", "meanvalue.mitm_count", "self_s"),
    "meanvalue.multiplicity_table.self_s":
        ("s", "lower", "meanvalue.multiplicity_table", "self_s"),
    "meanvalue.multiplicity_table.calls":
        ("count", "lower", "meanvalue.multiplicity_table", "calls"),
    "meanvalue.multiplicity_table.multisets":
        ("count", "lower", "meanvalue.multiplicity_table", "multisets"),
    "meanvalue.multiplicity_table.entries":
        ("count", "lower", "meanvalue.multiplicity_table", "entries"),
    "meanvalue.multiplicity_table.entries_per_multiset":
        ("ratio", "lower", "meanvalue.multiplicity_table", ("entries", "multisets")),
    "congruence.restriction_ratio.self_s":
        ("s", "lower", "congruence.restriction_ratio", "self_s"),
    "congruence.congruence_mean_value.self_s":
        ("s", "lower", "congruence.congruence_mean_value", "self_s"),
    "congruence.two_class_mean_value.self_s":
        ("s", "lower", "congruence.two_class_mean_value", "self_s"),
    "congruence.class_norms.self_s": ("s", "lower", "congruence.class_norms", "self_s"),
    "congruence.discrete_integral.count.self_s":
        ("s", "lower", "congruence.discrete_integral.count", "self_s"),
    "congruence.discrete_integral.grid.self_s":
        ("s", "lower", "congruence.discrete_integral.grid", "self_s"),
    "congruence.grid_points":
        ("count", "lower", "congruence.discrete_integral.grid", "grid_points"),
    "lifting.unit_tuple_weights.self_s":
        ("s", "lower", "lifting.unit_tuple_weights", "self_s"),
    "lifting.unit_tuple_weights.tuples":
        ("count", "lower", "lifting.unit_tuple_weights", "tuples"),
    "lifting.carry_decomposition.self_s":
        ("s", "lower", "lifting.carry_decomposition", "self_s"),
    "lifting.carry_decomposition.pairs":
        ("count", "lower", "lifting.carry_decomposition", "pairs"),
    "lifting.carry_decomposition.useful_frac":
        ("ratio", "higher", "lifting.carry_decomposition", ("solution_pairs", "pairs")),
    "lifting.congruence_solution_pairs.self_s":
        ("s", "lower", "lifting.congruence_solution_pairs", "self_s"),
    "lifting.lifting_chain.self_s": ("s", "lower", "lifting.lifting_chain", "self_s"),
    "waring.representation_table.self_s":
        ("s", "lower", "waring.representation_table", "self_s"),
    "waring.representation_table.multisets":
        ("count", "lower", "waring.representation_table", "multisets"),
    "waring.representation_table.in_range_frac":
        ("ratio", "higher", "waring.representation_table", ("in_range", "ordered_tuples")),
    "waring.cauchy_bound_check.self_s":
        ("s", "lower", "waring.cauchy_bound_check", "self_s"),
}


def _y(members, weights=None) -> int:
    """Distinct members with nonzero weight, as the table engines count them."""
    mem = set(members)
    if weights is not None:
        mem = {m for m in mem if weights.get(m, 0) != 0}
    return len(mem)


def _multisets(y: int, s: int) -> int:
    return math.comb(y + s - 1, s) if y and s > 0 else 0


def _system_sig(a) -> dict:
    return {"k": a["system"].k, "modulus": a.get("modulus"), "workers": a.get("workers")}


def _spec_sig(a) -> dict:
    spec = a["spec"]
    return {"Y": len(spec.weights.entries), "s": spec.s, "k": spec.system.k,
            "modulus": spec.modulus, "h": spec.class_level, "mode": a.get("mode")}


def _residue_sums(weights, modulus: int) -> int:
    """Tuple pairs whose sums agree modulo ``modulus``: the pairs a scan keeps."""
    sizes: dict[int, int] = {}
    for tup in weights:
        res = sum(tup) % modulus
        sizes[res] = sizes.get(res, 0) + 1
    return sum(n * n for n in sizes.values())


# name -> (signature(bound args) -> dict, counters(bound args, result) -> dict).
# A signature splits one function's spans by size, so a trace gives the
# per-job and per-size breakdown; the counters are exact work counts.
_HOOKS = {
    "cli.main": (
        lambda a: {"subcommand": a["argv"][0]},
        lambda a, r: {"out_bytes": _dir_bytes(a["argv"])},
    ),
    "meanvalue.multiplicity_table": (
        lambda a: {"Y": _y(a["members"], a["weights"]), "s": a["s"], **_system_sig(a)},
        lambda a, r: {"multisets": _multisets(_y(a["members"], a["weights"]), a["s"]),
                      "entries": len(r)},
    ),
    "meanvalue.mitm_count": (
        lambda a: {"Y": _y(a["members"], a["weights"]), "s": a["s"], **_system_sig(a)},
        None,
    ),
    "congruence.discrete_integral": (_spec_sig, lambda a, r: {
        "grid_points": a["spec"].modulus ** a["spec"].system.k if a["mode"] == "grid" else 0}),
    "congruence.congruence_mean_value": (_spec_sig, None),
    "congruence.restriction_ratio": (_spec_sig, None),
    "congruence.two_class_mean_value": (_spec_sig, None),
    "lifting.unit_tuple_weights": (
        lambda a: {"Y": len(a["members"]), "t": a["t"]},
        lambda a, r: {"tuples": len(r)},
    ),
    "lifting.carry_decomposition": (
        lambda a: {"n": len(a["weights"]), "t": a["t"], "depth": a["depth"]},
        lambda a, r: {"pairs": len(a["weights"]) ** 2,
                      "solution_pairs": _residue_sums(a["weights"], a["base"] ** a["depth"])},
    ),
    "lifting.congruence_solution_pairs": (
        lambda a: {"Y": len(set(a["members"])), "t": a["t"], "B": a["modulus_level"]},
        None,
    ),
    "waring.representation_table": (
        lambda a: {"s": a["s"], "k": a["k"], "bound": a["bound"]},
        lambda a, r: {"multisets": _multisets(r.y, r.s), "in_range": r.total(),
                      "ordered_tuples": r.y ** r.s},
    ),
    "digits.rep_profile": (lambda a: {"t": a["t"], "horizon": a["horizon"]}, None),
}

# Generator functions whose yielded items are counted under this name.
_ITEM_COUNTERS = {"digits.iter_members": "members"}


def _dir_bytes(argv) -> int:
    """Bytes written into the --out directory of one CLI call."""
    out = argv[argv.index("--out") + 1] if "--out" in argv else "."
    if not os.path.isdir(out):
        return 0
    with os.scandir(out) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


class Node:
    __slots__ = ("name", "sig", "children", "calls", "errors", "total", "self_s",
                 "first", "last", "counters")

    def __init__(self, name: str, sig: dict | None):
        self.name, self.sig = name, sig
        self.children: dict = {}
        self.calls = self.errors = 0
        self.total = self.self_s = 0.0
        self.first = self.last = None
        self.counters: dict[str, int] = {}

    def child(self, name: str, sig: dict | None) -> "Node":
        key = (name, None if sig is None else tuple(sorted(sig.items())))
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = Node(name, sig)
        return node

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class Tracer:
    """Installs span wrappers into the package and records one pass at a time."""

    def __init__(self, package):
        self.package = package
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.root = Node("pass", None)
        self._t0 = time.perf_counter()
        # frames are [node, seconds covered by child spans]
        self._stack: list[list] = [[self.root, 0.0]]

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{self.package.__name__}.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in [self.package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    # --- recording ------------------------------------------------------

    @contextlib.contextmanager
    def job(self, name: str):
        """Group the spans of one job under a node named after it."""
        frame, start = self._open(self._stack[-1][0].child("job", {"job": name}))
        try:
            yield
        finally:
            self._close(frame, start)

    def _open(self, node: Node):
        frame = [node, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        node, covered = frame
        dur = end - start
        node.calls += 1
        node.total += dur
        node.self_s += dur - covered
        if node.first is None:
            node.first = start - self._t0
        node.last = end - self._t0
        self._stack[-1][1] += dur

    def _wrap(self, fn, name: str):
        tracer = self
        sig_fn, count_fn = _HOOKS.get(name, (None, None))

        if inspect.isgeneratorfunction(fn):
            item_counter = _ITEM_COUNTERS.get(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                node = tracer._stack[-1][0].child(name, None)
                node.calls += 1
                return _TimedIterator(fn(*args, **kwargs), node, tracer, item_counter)
            return gen_wrapper

        if sig_fn is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame, start = tracer._open(tracer._stack[-1][0].child(name, None))
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    frame[0].errors += 1
                    raise
                finally:
                    tracer._close(frame, start)
            return wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span_name = f"{name}.{a['mode']}" if name == "congruence.discrete_integral" else name
            node = tracer._stack[-1][0].child(span_name, sig_fn(a))
            frame, start = tracer._open(node)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                node.errors += 1
                raise
            finally:
                tracer._close(frame, start)
            if count_fn is not None:
                for key, value in count_fn(a, result).items():
                    node.counters[key] = node.counters.get(key, 0) + value
            return result
        return hooked

    # --- results --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and summed counters over the pass."""
        out: dict[str, dict] = {}
        for node in self.root.walk():
            agg = out.setdefault(node.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += node.calls
            agg["self_s"] += node.self_s
            for key, value in node.counters.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        values = {}
        for metric, (_, _, span, fld) in PER_LAYER.items():
            agg = totals.get(span, {})
            if isinstance(fld, tuple):
                num, den = (agg.get(f, 0) for f in fld)
                values[metric] = num / den if den else 0.0
            else:
                values[metric] = agg.get(fld, 0.0 if fld == "self_s" else 0)
        return values

    def find(self, name: str, **sig) -> list[Node]:
        """Nodes of one function whose signature contains the given items."""
        return [n for n in self.root.walk() if n.name == name and n.sig is not None
                and all(n.sig.get(k) == v for k, v in sig.items())]

    def records(self) -> list[dict]:
        """The call tree as flat records, parents before children."""
        out = []

        def visit(node: Node, parent: int | None):
            idx = len(out)
            out.append({"id": idx, "parent": parent, "name": node.name, "args": node.sig,
                        "calls": node.calls, "errors": node.errors,
                        "total_s": node.total, "self_s": node.self_s,
                        "first_start_s": node.first, "last_end_s": node.last,
                        "counters": node.counters})
            for child in node.children.values():
                visit(child, idx)
        visit(self.root, None)
        return out


class _TimedIterator:
    """Times a generator's consumption and charges it to the consuming span."""

    __slots__ = ("_gen", "_node", "_tracer", "_counter")

    def __init__(self, gen, node: Node, tracer: Tracer, counter: str | None):
        self._gen, self._node, self._tracer, self._counter = gen, node, tracer, counter

    def __iter__(self):
        return self

    def __next__(self):
        clock = time.perf_counter
        start = clock()
        try:
            value = next(self._gen)
        finally:
            end = clock()
            node = self._node
            dur = end - start
            node.total += dur
            node.self_s += dur
            if node.first is None:
                node.first = start - self._tracer._t0
            node.last = end - self._tracer._t0
            self._tracer._stack[-1][1] += dur
        if self._counter is not None:
            node.counters[self._counter] = node.counters.get(self._counter, 0) + 1
        return value
