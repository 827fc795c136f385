"""Spans around the program's layers, kept in memory, and their arithmetic.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (or None) and ``request`` the id of the benchmark request
that caused it.  Self time is a span's duration minus the part of it that
its child spans cover.  ``total`` counts only the outermost span of a name,
so a function that re-enters itself is not counted twice.

``instrument`` wraps public functions and methods of ``cliffordefb`` without
editing the source: methods are replaced on their class, module-level
functions are rebound in every ``cliffordefb`` module that imported them,
and the entries of ``harness.CHECKS`` are replaced in place.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, function, span name): module-level functions, rebound wherever imported.
FUNCTIONS = [
    ("spinors", "annihilator", "spinors.annihilator"),
    ("spinors", "annihilated_subspace", "spinors.annihilated_subspace"),
    ("spinors", "vector_act", "spinors.vector_act"),
    ("spinors", "vector_act_coords", "spinors.vector_act_coords"),
    ("spinors", "act", "spinors.act"),
    ("spinors", "complete_tnp", "spinors.complete_tnp"),
    ("spinors", "generic_spinor_sample", "spinors.generic_spinor_sample"),
    ("vectors", "is_tnp", "vectors.is_tnp"),
    ("vectors", "embed", "vectors.embed"),
    ("vectors", "normalize_tnp", "vectors.normalize_tnp"),
    ("bilinear", "build_b", "bilinear.build_b"),
    ("bilinear", "expand_gamma", "bilinear.expand_gamma"),
    ("bilinear", "reconstruct_gamma", "bilinear.reconstruct_gamma"),
    ("bilinear", "expand_witt", "bilinear.expand_witt"),
    ("bilinear", "reconstruct_witt", "bilinear.reconstruct_witt"),
    ("bilinear", "trace_of_product", "bilinear.trace_of_product"),
    ("bilinear", "element_of_vectors", "bilinear.element_of_vectors"),
    ("simplicity", "report", "simplicity.report"),
    ("simplicity", "is_simple_direct", "simplicity.is_simple_direct"),
    ("simplicity", "cartan_chevalley_test", "simplicity.cartan_chevalley_test"),
    ("simplicity", "theorem2_test", "simplicity.theorem2_test"),
    ("simplicity", "evaluate_constraints", "simplicity.evaluate_constraints"),
    ("simplicity", "tnp_intersection_dim", "simplicity.tnp_intersection_dim"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name): replaced on the class.
METHODS = [
    ("linalg", "Matrix", "rref", "linalg.rref"),
    ("linalg", "Matrix", "det", "linalg.det"),
    ("algebra", "Algebra", "mul", "algebra.mul"),
    ("matrixrep", "RepContext", "__init__", "matrixrep.build"),
    ("matrixrep", "RepContext", "to_matrix", "matrixrep.to_matrix"),
    ("matrixrep", "RepContext", "from_matrix", "matrixrep.from_matrix"),
    ("bilinear", "BForm", "inner", "bilinear.inner"),
    ("bilinear", "BForm", "endo_from_pair", "bilinear.endo_from_pair"),
    ("vectors", "TNPBasis", "product_element", "vectors.product_element"),
    ("spinors", "SpinorSubspace", "from_spinors", "spinors.from_spinors"),
]

# every public function of these modules gets a span named "<module>.<function>"
WHOLE_MODULES = ["serialize"]


def _count_rref(counters, args, kwargs, result):
    matrix = args[0]
    counters["linalg.rref.cells"] += matrix.nrows * matrix.ncols
    counters["linalg.rref.nonzero"] += sum(1 for row in matrix.rows for x in row if x)


def _count_mul(counters, args, kwargs, result):
    _algebra, x, y = args[:3]
    rows: dict[int, int] = defaultdict(int)
    for c, _d in y.terms:
        rows[c] += 1
    counters["algebra.mul.term_pairs"] += sum(rows.get(b, 0) for _a, b in x.terms)


def _witt_words(m: int, max_grade=None) -> int:
    """Words over the per-site states {absent, p, q, qp, pq} of grade <= max_grade."""
    if max_grade is None:
        return 5**m
    by_grade = [1]
    for _ in range(m):  # multiply by 1 + 2x + 2x^2
        nxt = [0] * (len(by_grade) + 2)
        for g, n in enumerate(by_grade):
            nxt[g] += n
            nxt[g + 1] += 2 * n
            nxt[g + 2] += 2 * n
        by_grade = nxt
    return sum(by_grade[: max_grade + 1])


def _count_expand_witt(counters, args, kwargs, result):
    max_grade = kwargs.get("max_grade", args[2] if len(args) > 2 else None)
    counters["bilinear.expand_witt.words"] += _witt_words(result.m, max_grade)
    counters["bilinear.expand_witt.nonzero"] += len(result.coefficients)


COUNTERS = {
    "linalg.rref": _count_rref,
    "algebra.mul": _count_mul,
    "bilinear.expand_witt": _count_expand_witt,
}


class Tracer:
    """Records spans while enabled; a disabled wrapper only forwards the call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.request = None
        self._stack: list[int] = []

    def clear(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def run_request(self, request_id, fn, *args):
        """Call fn under a root span named "request"."""
        self.request = request_id
        try:
            return self.wrap("request", fn)(*args)
        finally:
            self.request = None


def _package_modules(package: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def instrument(tracer: Tracer, package: str = "cliffordefb"):
    """Wrap the layer boundaries of an imported package in tracer spans."""
    modules = {module.__name__.rsplit(".", 1)[-1]: module for module in _package_modules(package)}
    everywhere = list(modules.values())
    targets = [(modules[mod], fn, name) for mod, fn, name in FUNCTIONS]
    for mod in WHOLE_MODULES:
        module = modules[mod]
        for fn_name, value in vars(module).items():
            if (
                callable(value)
                and not fn_name.startswith("_")
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                targets.append((module, fn_name, f"{mod}.{fn_name}"))
    for module, fn_name, name in targets:
        original = getattr(module, fn_name)
        wrapped = tracer.wrap(name, original)
        for other in everywhere:
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)
    for mod, cls_name, method, name in METHODS:
        cls = getattr(modules[mod], cls_name)
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method]))
    checks = modules["harness"].CHECKS
    for i, check in enumerate(checks):
        checks[i] = tracer.wrap("harness." + check.__name__.removeprefix("check_"), check)


# -- span arithmetic -------------------------------------------------------------


def write_jsonl(spans, path):
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for name, start, end, parent, request in spans:
            record = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
            handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _request in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent, _request) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def outermost(spans, group=lambda name: name) -> list[bool]:
    """Whether no ancestor of the span falls in the same group (by default,
    has the same name)."""
    flags = []
    for name, _start, _end, parent, _request in spans:
        key = group(name)
        while parent is not None and group(spans[parent][0]) != key:
            parent = spans[parent][3]
        flags.append(parent is None)
    return flags


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (outermost spans) and self seconds."""
    selfs = self_times(spans)
    outer = outermost(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, self_s, is_outer in zip(spans, selfs, outer):
        entry = stats[span[0]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        if is_outer:
            entry["total_s"] += span[2] - span[1]
    return dict(stats)


def request_self_sums(spans) -> dict[object, float]:
    """Per request id: summed self time of the layer spans (the root excluded)."""
    sums: dict[object, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        if span[4] is not None and span[0] != "request":
            sums[span[4]] += self_s
    return dict(sums)
