"""Span tracing around the public functions of each zetagraph layer.

Tracing is done from outside the program: every binding of a traced
function is replaced by a timing wrapper for the duration of the traced
pass and restored afterwards.  The package binds functions at import time
(``from .operators import transfer_matrix`` in ``routes``, ``cli`` and
others, and ``cli.ROUTE_BUILDERS`` holds route functions), so each module
attribute and each module-level dict entry that refers to a traced function
is patched, and ``MatrixSeries`` methods are patched on the class.
:meth:`Tracer.install` refuses to proceed if any reference is left
unpatched.

Each span records its name, start, end, parent span and job id.  Spans are
kept in memory and written out by the caller when the benchmark ends.
Work counters are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# span name -> (module, attribute path)
SPANS = {
    "cli.main": ("cli", "main"),
    "graph.parse_graph": ("graph", "parse_graph"),
    "graph.graph_stats": ("graph", "graph_stats"),
    "operators.transfer_matrix": ("operators", "transfer_matrix"),
    "operators.incidence_maps": ("operators", "incidence_maps"),
    "operators.adjacency_matrix": ("operators", "adjacency_matrix"),
    "operators.zigzag_matrix": ("operators", "zigzag_matrix"),
    "operators.excess_matrix": ("operators", "excess_matrix"),
    "twist.validate_local_system": ("twist", "validate_local_system"),
    "twist.twisted_operators": ("twist", "twisted_operators"),
    "twist.lfunction": ("twist", "lfunction"),
    "series.fredholm_det": ("series", "fredholm_det"),
    "series.MatrixSeries.det": ("series", "MatrixSeries.det"),
    "series.MatrixSeries.det_minors": ("series", "MatrixSeries.det_minors"),
    "cycles.prime_cycles": ("cycles", "prime_cycles"),
    "cycles.euler_product": ("cycles", "euler_product"),
    "routes.zeta_fredholm": ("routes", "zeta_fredholm"),
    "routes.zeta_sunada": ("routes", "zeta_sunada"),
    "routes.zeta_bass": ("routes", "zeta_bass"),
    "routes.zeta_classical": ("routes", "zeta_classical"),
    "routes.zeta_partial_formula": ("routes", "zeta_partial_formula"),
    "routes.cross_validate": ("routes", "cross_validate"),
    "routes.spectrum_poles": ("routes", "spectrum_poles"),
    "families.convergence_study": ("families", "convergence_study"),
}

# Spans each workload must exercise; the traced pass fails if one of them
# exists in the program but records no call.
EXPECTED = {
    "check-small": (
        "cli.main", "graph.parse_graph", "operators.transfer_matrix",
        "operators.incidence_maps", "operators.adjacency_matrix", "operators.zigzag_matrix",
        "operators.excess_matrix", "series.fredholm_det", "series.MatrixSeries.det",
        "series.MatrixSeries.det_minors", "cycles.prime_cycles", "cycles.euler_product",
        "routes.zeta_fredholm", "routes.zeta_sunada", "routes.zeta_bass",
        "routes.zeta_classical", "routes.zeta_partial_formula", "routes.cross_validate",
        "families.convergence_study",
    ),
    "routes-medium": (
        "cli.main", "graph.parse_graph", "operators.transfer_matrix",
        "operators.incidence_maps", "operators.adjacency_matrix", "operators.zigzag_matrix",
        "operators.excess_matrix", "twist.validate_local_system", "twist.twisted_operators",
        "twist.lfunction", "series.fredholm_det", "series.MatrixSeries.det",
        "routes.zeta_fredholm", "routes.zeta_sunada", "routes.zeta_bass",
        "routes.zeta_classical",
    ),
    "fredholm-large": (
        "cli.main", "graph.parse_graph", "graph.graph_stats", "operators.transfer_matrix",
        "series.fredholm_det", "routes.zeta_fredholm", "routes.spectrum_poles",
    ),
}

ROUTE_NAMES = ("fredholm", "sunada", "bass", "classical", "partial")

COUNTERS = (
    "graph.input_bytes",
    "operators.transfer_matrix.nnz",
    "operators.transfer_matrix.sparse_calls",
    "series.fredholm_det.dim_sum",
    "series.MatrixSeries.det.d3M",
    "twist.fiber_dim_sum",
    "cycles.prime_cycles.classes",
    "cycles.prime_cycles.primes",
    "routes.max_dev_over_tol",
    "routes.skipped",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    job: int


def _count(counters: dict, name: str, args: tuple, result) -> None:
    """Work counts measured at the span boundary."""
    if name == "graph.parse_graph":
        counters["graph.input_bytes"] += len(args[0].encode())
    elif name == "operators.transfer_matrix":
        mat = result.mat
        sparse = sp.issparse(mat)
        counters["operators.transfer_matrix.nnz"] += mat.nnz if sparse else np.count_nonzero(mat)
        counters["operators.transfer_matrix.sparse_calls"] += int(sparse)
    elif name == "series.fredholm_det":
        mat = getattr(args[0], "mat", args[0])
        counters["series.fredholm_det.dim_sum"] += mat.shape[0]
    elif name == "series.MatrixSeries.det":
        self = args[0]
        counters["series.MatrixSeries.det.d3M"] += self.dim ** 3 * self.order
    elif name == "twist.twisted_operators":
        g, system = args[0], args[1]
        counters["twist.fiber_dim_sum"] += len(g.vertices) * system.dim
    elif name == "cycles.prime_cycles":
        counters["cycles.prime_cycles.classes"] += len(result)
        counters["cycles.prime_cycles.primes"] += sum(1 for r in result if r.is_prime)
    elif name == "routes.cross_validate":
        for pair in result.pairs:
            ratio = pair.max_dev / result.tolerance
            counters["routes.max_dev_over_tol"] = max(counters["routes.max_dev_over_tol"], ratio)
        ran = {r for p in result.pairs for r in (p.route_a, p.route_b)}
        counters["routes.skipped"] += sum(1 for r in ROUTE_NAMES if r not in ran)


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.job)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _count(tracer.counters, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zetagraph" or n.startswith("zetagraph."))]
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, (module, path) in SPANS.items():
            try:
                owner = importlib.import_module(f"zetagraph.{module}")
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                self._patch(original, lambda v, o=owner, a=attr: setattr(o, a, v), wrapper)

        def lookup(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        def bindings():
            for module in modules:
                for key, value in list(vars(module).items()):
                    if isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            yield f"{module.__name__}.{key}[{dkey!r}]", dvalue, (
                                lambda v, d=value, k=dkey: d.__setitem__(k, v))
                    else:
                        yield f"{module.__name__}.{key}", value, (
                            lambda v, m=module, k=key: setattr(m, k, v))

        for _, value, setter in bindings():
            wrapper = lookup(value)
            if wrapper is not None:
                self._patch(value, setter, wrapper)
        left = [where for where, value, _ in bindings() if lookup(value) is not None]
        if left:
            self.uninstall()
            raise RuntimeError(f"untraced references remain: {', '.join(left)}")

    def _patch(self, original, setter, wrapper) -> None:
        """Bind the wrapper through ``setter``; uninstall binds ``original`` back."""
        self._restore.append((setter, original))
        setter(wrapper)

    def uninstall(self) -> None:
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name, zero rows included.

    busy_s counts a span only when no enclosing span has the same name, so
    recursion is not counted twice; self_s is a span's duration minus the
    durations of its direct children.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPANS}
    for i, s in enumerate(spans):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - child_time[i]
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:
            row["busy_s"] += s.end - s.start
    return out
