"""Spans and counters around cubeharm's module boundaries, installed from outside.

`install` replaces every public function of each cubeharm module with a
wrapper, in every module namespace that holds it (so names imported with
`from x import f` are covered too) and in `coefficients.ROUTES`, and wraps
the multiplication and elimination methods named in `METHODS`.  The
program's files are not touched.

A span has a name, a start, an end and a parent.  A module's self time is
the time of its spans minus the time their child spans cover.  Calls that
happen millions of times (the methods, the bernoulli lookups and each step
of an enumerating generator) are "hot": they take part in the self-time
accounting but are summed per name instead of being stored one by one.
Everything stays in memory until `dump`.
"""

import functools
import importlib
import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "bernoulli", "cli", "coefficients", "combinat", "generating", "harmonics",
    "invariants", "linalg", "multipoly", "series", "unipoly",
)
METHODS = (
    ("unipoly", "UniPoly", "__mul__"),
    ("multipoly", "MultiPoly", "__mul__"),
    ("multipoly", "MultiPoly", "partial"),
    ("series", "TruncatedSeries", "__mul__"),
    ("linalg", "RowBasis", "add"),
    ("linalg", "RowBasis", "contains"),
)
HOT_FUNCTIONS = {
    "bernoulli.bernoulli", "bernoulli.scaled_bernoulli", "multipoly.grlex_key",
    "combinat.compositions", "combinat.count_compositions", "combinat.young_diagrams",
    "combinat.quad_matrices_with_colsums", "combinat.quad_matrices_even",
    "harmonics.cube_faces",
}
CACHED = {
    "coefficients.young_poly": ("coefficients", "young_generating_poly"),
    "coefficients.recursion_table": ("coefficients", "recursion_table"),
    "generating.generating_poly": ("generating", "generating_poly"),
}
UNSTORED = -2


class Tracer:
    """Span stack, per-name sums, stored spans and counters for one round."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []  # outermost calls only, so recursion is not counted twice
        self.self_time = []
        self._depth = []
        self.stack = []
        self.spans = []  # [name id, parent span index, start, end]
        self.current = -1  # innermost stored span
        self.items = Counter()
        self.items_by_caller = defaultdict(Counter)
        self.work = Counter()
        self.peak_terms = 0
        self.caches = {}
        self.origin = perf_counter()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self._depth.append(0)
        return nid

    def enter(self, nid, store=True):
        now = perf_counter()
        if store:
            frame = [nid, now, 0.0, self.current]
            self.current = len(self.spans)
            self.spans.append([nid, frame[3], now, None])
        else:
            frame = [nid, now, 0.0, UNSTORED]
        self.stack.append(frame)
        self._depth[nid] += 1
        return frame

    def exit(self, frame):
        now = perf_counter()
        self.stack.pop()
        nid, start, child, parent = frame
        elapsed = now - start
        self.calls[nid] += 1
        self.self_time[nid] += elapsed - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total[nid] += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed
        if parent != UNSTORED:
            self.spans[self.current][3] = now
            self.current = parent

    def counted(self, gen, name):
        """Wrap a generator so each step is a hot span and its items are counted."""
        step = self.name_id(name + ".next")
        caller = self.names[self.spans[self.current][0]] if self.current >= 0 else "-"
        produced = 0
        try:
            while True:
                frame = self.enter(step, False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                produced += 1
                yield item
        finally:
            self.items[name] += produced
            self.items_by_caller[name][caller] += produced

    def wrap(self, name, func, hot, measure=None):
        nid = self.name_id(name)
        store = not hot

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if measure is not None:
                self.work[name] += measure(*args, **kwargs)
            frame = self.enter(nid, store)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit(frame)
            if type(result) is types.GeneratorType:
                return self.counted(result, name)
            return result

        return wrapper

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(t for name, t in zip(self.names, self.self_time) if name.startswith(prefix))

    def total_of(self, name):
        nid = self._ids.get(name)
        return self.total[nid] if nid is not None else 0.0

    def calls_of(self, name):
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def dump(self, path, header):
        data = dict(header)
        data["names"] = self.names
        data["spans"] = [[n, p, s - self.origin, e - self.origin] for n, p, s, e in self.spans]
        data["by_name"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, c, t, s in zip(self.names, self.calls, self.total, self.self_time)
        }
        data["items"] = dict(self.items)
        data["items_by_caller"] = {k: dict(v) for k, v in self.items_by_caller.items()}
        data["work"] = dict(self.work)
        data["peak_terms"] = self.peak_terms
        with open(path, "w") as handle:
            json.dump(data, handle)


def _unipoly_products(a, b):
    if type(b) is type(a):
        return sum(1 for c in a.coeffs if c) * len(b.coeffs)
    return len(a.coeffs)


def _multipoly_products(a, b):
    if type(b) is type(a):
        return len(a.terms) * len(b.terms)
    return len(a.terms)


def _solve_cells(matrix, rhs=None):
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


MEASURES = {
    "unipoly.UniPoly.__mul__": _unipoly_products,
    "multipoly.MultiPoly.__mul__": _multipoly_products,
    "linalg.solve_or_rank": _solve_cells,
}


def install(tracer):
    """Wrap cubeharm's public functions and the METHODS; returns the tracer."""
    modules = {name: importlib.import_module("cubeharm." + name) for name in MODULES}
    wrappers = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            func = getattr(module, attr)
            if inspect.isfunction(func) or hasattr(func, "cache_info"):
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(name, func, name in HOT_FUNCTIONS, MEASURES.get(name))
                wrappers[id(func)] = (func, wrapper)
    namespaces = [vars(m) for m in modules.values()] + [vars(sys.modules["cubeharm"])]
    namespaces.append(modules["coefficients"].ROUTES)
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[method]
        name = f"{layer}.{cls_name}.{method}"
        wrapper = tracer.wrap(name, original, True, MEASURES.get(name))
        for attr, value in list(cls.__dict__.items()):
            if value is original:
                setattr(cls, attr, wrapper)
    invariants = modules["invariants"]
    check_budget = invariants._check_budget

    def budget_probe(terms):
        tracer.peak_terms = max(tracer.peak_terms, terms)
        return check_budget(terms)

    invariants._check_budget = budget_probe
    for metric, (layer, attr) in CACHED.items():
        tracer.caches[metric] = getattr(modules[layer], attr).__wrapped__
    return tracer


def _hit_ratio(cached):
    info = cached.cache_info()
    looked_up = info.hits + info.misses
    return info.hits / looked_up if looked_up else 0.0


def per_layer(tracer):
    """The per-layer metrics of one traced round, by BENCHMARK.json name."""
    t = tracer
    values = {
        "coefficients.matrix.s": t.total_of("coefficients.coeff_by_matrix_sum"),
        "coefficients.partition.s": t.total_of("coefficients.coeff_by_partition_sum"),
        "coefficients.young.s": t.total_of("coefficients.coeff_by_young_sum"),
        "coefficients.generating.s": t.total_of("coefficients.coeff_by_generating"),
        "coefficients.recursion.s": t.total_of("coefficients.coeff_by_recursion"),
        "coefficients.oracle.s": t.total_of("coefficients.coeff_by_expansion"),
        "combinat.staircase.count": t.items["combinat.quad_matrices_with_colsums"],
        "combinat.compositions.count": t.items["combinat.compositions"],
        "combinat.young_diagrams.count": t.items["combinat.young_diagrams"],
        "unipoly.mul.calls": t.calls_of("unipoly.UniPoly.__mul__"),
        "unipoly.mul.coeff_products": t.work["unipoly.UniPoly.__mul__"],
        "generating.identity_report.s": t.total_of("generating.identity_report"),
        "series.mul.calls": t.calls_of("series.TruncatedSeries.__mul__"),
        "series.series_log.calls": t.calls_of("series.series_log"),
        "bernoulli.calls": t.calls_of("bernoulli.bernoulli"),
        "multipoly.mul.calls": t.calls_of("multipoly.MultiPoly.__mul__"),
        "multipoly.mul.term_products": t.work["multipoly.MultiPoly.__mul__"],
        "multipoly.partial.calls": t.calls_of("multipoly.MultiPoly.partial"),
        "linalg.rowbasis_add.calls": t.calls_of("linalg.RowBasis.add"),
        "linalg.solve.calls": t.calls_of("linalg.solve_or_rank"),
        "linalg.solve.cells": t.work["linalg.solve_or_rank"],
        "invariants.skeleton_invariant.s": t.total_of("invariants.skeleton_invariant"),
        "invariants.expand.s": t.total_of("invariants.expand_in_elementary_basis"),
        "invariants.peak_terms": t.peak_terms,
        "harmonics.skeleton_average.calls": t.calls_of("harmonics.skeleton_average"),
        "harmonics.skeleton_average.s": t.total_of("harmonics.skeleton_average"),
        "harmonics.cube_faces.count": t.items["harmonics.cube_faces"],
        "harmonics.basis.s": t.total_of("harmonics.harmonic_basis"),
        "cli.calls": t.calls_of("cli.main"),
    }
    for metric, cached in t.caches.items():
        values[metric + ".hit_ratio"] = _hit_ratio(cached)
    for layer in MODULES:
        values[layer + ".self_s"] = t.layer_self(layer)
    return values
