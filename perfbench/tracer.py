"""Span tracing around the public functions of each a6k3 module.

Only traced runs import this module.  `Tracer.install()` replaces each
function listed in SPANS by a wrapper that records a span (name, start, end,
parent, operation id) and rebinds the wrapper in every a6k3 module that had
bound the original, since `cli`, `extbuild`, `k3verify` and `chartab` import
names with `from .x import f`.  The hot methods in HOT are too frequent for
one span per call; their wrappers add a count and a time to the innermost
open span instead.  `uninstall()` puts every original back.

A span's self time is its duration minus the part of it that its child spans
cover, minus the time of the hot calls made directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (defining module, attribute, span name).  Several functions may share one
# span name; their self times add up under it.
SPANS = (
    ("a6k3.permgrp", "closure", "permgrp.closure"),
    ("a6k3.permgrp", "derived_subgroup", "permgrp.derived_subgroup"),
    ("a6k3.permgrp", "conjugacy_classes", "permgrp.conjugacy_classes"),
    ("a6k3.permgrp", "centralizer_of_subgroup", "permgrp.centralizer_of_subgroup"),
    ("a6k3.permgrp", "center", "permgrp.center"),
    ("a6k3.permgrp", "fingerprint", "permgrp.fingerprint"),
    ("a6k3.permgrp", "conjugation_image", "permgrp.conjugation_image"),
    ("a6k3.permgrp", "conjugate_group", "permgrp.conjugate_group"),
    ("a6k3.pgl9", "build_pgl29", "pgl9.build_tower"),
    ("a6k3.pgl9", "build_pgammal29", "pgl9.build_tower"),
    ("a6k3.pgl9", "build_psl29", "pgl9.build_tower"),
    ("a6k3.pgl9", "classify_overgroups", "pgl9.classify_overgroups"),
    ("a6k3.pgl9", "m10_order4_class_check", "pgl9.m10_order4_class_check"),
    ("a6k3.extbuild", "build_candidate", "extbuild.build_candidate"),
    ("a6k3.extbuild", "identify", "extbuild.identify"),
    ("a6k3.extbuild", "verify_extension_structure", "extbuild.verify_extension_structure"),
    ("a6k3.chartab", "structure_constants", "chartab.structure_constants"),
    ("a6k3.chartab", "character_table", "chartab.character_table"),
    ("a6k3.chartab", "match_reference_table", "chartab.match_reference_table"),
    ("a6k3.k3verify", "run_exclusion", "k3verify.run_exclusion"),
    ("a6k3.k3verify", "solve_decomposition", "k3verify.solve_decomposition"),
    ("a6k3.k3verify", "lefschetz_invariant_rank", "k3verify.lefschetz_invariant_rank"),
    ("a6k3.k3verify", "lattice_checks", "k3verify.lattice_checks"),
    ("a6k3.cli", "stage_groups", "cli.stage_groups"),
    ("a6k3.cli", "stage_chartab", "cli.stage_chartab"),
    ("a6k3.cli", "stage_decompose", "cli.stage_decompose"),
    ("a6k3.cli", "stage_exclude", "cli.stage_exclude"),
    ("a6k3.cli", "stage_lattice", "cli.stage_lattice"),
    ("a6k3.cli", "render_json", "cli.render_json"),
)

# (defining module, class, methods, aggregate name)
HOT = (
    ("a6k3.permgrp", "Perm", ("__mul__",), "permgrp.perm_mul"),
    ("a6k3.exact", "CycloNum", ("__mul__", "__rmul__"), "exact.cyclo_mul"),
    ("a6k3.exact", "CycloNum", ("__add__", "__radd__"), "exact.cyclo_add"),
)

# The permgrp functions whose functools caches feed permgrp.cache_hit_ratio.
CACHED = (
    "conjugacy_classes",
    "center",
    "derived_subgroup",
    "centralizer_of_subgroup",
    "conjugation_image",
    "fingerprint",
)

# Root span names the benchmark opens around one operation.
OP_SPANS = ("op", "cli.main")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "hot")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.hot = {}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "hot": {k: list(v) for k, v in self.hot.items()},
        }


class Tracer:
    """Records spans in memory; `install()` wires it into the a6k3 modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._op = None

    # -- recording ----------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, op=None):
        """Open a span; with `op` given, it is the root span of that operation."""
        if op is not None:
            self._op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _hot_wrapper(self, fn, name):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            elapsed = perf_counter() - t0
            if stack:
                tally = spans[stack[-1]].hot.setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += elapsed
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [
            m for name, m in sorted(sys.modules.items())
            if (name == "a6k3" or name.startswith("a6k3.")) and m is not None
        ]
        for modname, attr, name in SPANS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._span_wrapper(original, name)
            for module in package:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for modname, clsname, methods, name in HOT:
            cls = getattr(importlib.import_module(modname), clsname)
            wrappers = {}
            for method in methods:
                original = cls.__dict__[method]
                if original not in wrappers:
                    wrappers[original] = self._hot_wrapper(original, name)
                self._restore.append((cls, method, original))
                setattr(cls, method, wrappers[original])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


def run_traced(root: str, op, fn):
    """Call fn() under a fresh, installed tracer, inside a root span.

    Returns the spans, the (hits, calls) of the permgrp caches during the
    call, and fn's result."""
    tr = Tracer()
    h0, c0 = cache_counts()
    tr.install()
    try:
        with tr.span(root, op=op):
            result = fn()
    finally:
        tr.uninstall()
    h1, c1 = cache_counts()
    return tr.to_json(), (h1 - h0, c1 - c0), result


def cache_counts() -> tuple[int, int]:
    """(hits, calls) summed over the permgrp functions that carry a cache.

    Functions without `cache_info` (a cache moved elsewhere) contribute
    nothing."""
    permgrp = importlib.import_module("a6k3.permgrp")
    hits = calls = 0
    for attr in CACHED:
        fn = getattr(permgrp, attr)
        while not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__  # look through a tracing wrapper
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            calls += ci.hits + ci.misses
    return hits, calls


# -- analysis -----------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the time covered by its
    direct children, minus the hot calls recorded directly in it."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        hot = sum(t for _, t in s["hot"].values())
        out.append(s["end"] - s["start"] - covered(s["start"], s["end"], kids) - hot)
    return out


def layer_totals(spans: list[dict]) -> dict:
    """Per span or hot name: calls, summed self time and summed duration."""
    totals: dict[str, dict] = {}

    def add(name, calls, self_s, dur_s):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "dur_s": 0.0})
        t["calls"] += calls
        t["self_s"] += self_s
        t["dur_s"] += dur_s

    for s, self_s in zip(spans, self_times(spans)):
        add(s["name"], 1, self_s, s["end"] - s["start"])
        for name, (count, seconds) in s["hot"].items():
            add(name, count, seconds, seconds)
    return totals


def merge_totals(parts) -> dict:
    out: dict[str, dict] = {}
    for part in parts:
        for name, t in part.items():
            o = out.setdefault(name, {"calls": 0, "self_s": 0.0, "dur_s": 0.0})
            for key in o:
                o[key] += t[key]
    return out


def layer_metrics(totals: dict, ops: int, traced_op_s: float, untraced_op_s: float,
                  cache_hits: int, cache_calls: int) -> dict:
    """The per-layer metrics, per traced operation, from merged layer totals.

    `cli.*` entries are whole durations, so that the stages attribute the
    time of main() among them; every other `_s` entry is a self time.
    `traced_op_s` and `untraced_op_s` are operation times measured the same
    way with and without the tracer; their difference is the overhead.
    """

    def per_op(name, key):
        return totals.get(name, {}).get(key, 0) / ops

    m = {}
    for name in sorted({name for _, _, name in SPANS}):
        m[name + "_s"] = per_op(name, "dur_s" if name.startswith("cli.") else "self_s")
    m["permgrp.closure.calls"] = per_op("permgrp.closure", "calls")
    m["permgrp.derived_subgroup.calls"] = per_op("permgrp.derived_subgroup", "calls")
    m["permgrp.perm_mul.count"] = per_op("permgrp.perm_mul", "calls")
    m["permgrp.perm_mul_s"] = per_op("permgrp.perm_mul", "self_s")
    m["permgrp.cache_hit_ratio"] = cache_hits / cache_calls if cache_calls else 0.0
    m["exact.cyclo_mul.count"] = per_op("exact.cyclo_mul", "calls")
    m["exact.cyclo_add.count"] = per_op("exact.cyclo_add", "calls")
    m["exact.cyclo_arith_s"] = per_op("exact.cyclo_mul", "self_s") + per_op("exact.cyclo_add", "self_s")

    attributed = sum(v for k, v in m.items() if k.startswith("cli.stage_")) + m["cli.render_json_s"]
    main_s = per_op("cli.main", "dur_s")
    m["cli.uncovered_s"] = main_s - attributed if main_s else 0.0

    root_s = sum(per_op(name, "dur_s") for name in OP_SPANS)
    layer_self = {"permgrp": 0.0, "chartab": 0.0, "exact": 0.0}
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t["self_s"] / ops
    m["share.permgrp"] = layer_self["permgrp"] / root_s if root_s else 0.0
    m["share.chartab_exact"] = (layer_self["chartab"] + layer_self["exact"]) / root_s if root_s else 0.0
    m["trace.op_s"] = traced_op_s
    m["trace.overhead_s"] = traced_op_s - untraced_op_s
    return m
