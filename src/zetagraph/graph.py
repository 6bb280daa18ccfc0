"""Weighted graph model, validation, file format, and canonical bases.

A graph here is simple (no loops, no parallel edges), connected, and
undirected, but every edge carries one positive weight per orientation.
Oriented edges are plain ``(origin, target)`` string pairs; each undirected
edge {u, v} yields the two oriented edges (u, v) and (v, u).  A subset of
oriented edges may be flagged as backtrack-permitted; the flag set is stored
on the graph so that a single file fully specifies an instance, and an empty
flag set recovers the plain non-backtracking theory.

All operator modules index their matrices by the canonical order returned
from :func:`canonical_order`: vertices sorted lexicographically, oriented
edges sorted lexicographically by (origin, target).  A graph sorts its bases
once, and builds the NumPy arrays over them (:attr:`WeightedGraph.edge_arrays`)
once, the way it builds its leafless core once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import GraphFormatError, GraphValidationError

OrientedEdge = tuple[str, str]


def reverse(e: OrientedEdge) -> OrientedEdge:
    return (e[1], e[0])


class EdgeArrays(NamedTuple):
    """Canonical bases and, per oriented edge in canonical order, read-only
    arrays of origin and target vertex indices, the index of the reversal,
    the weight and whether the edge is unflagged."""

    verts: tuple[str, ...]
    edges: tuple[OrientedEdge, ...]
    origin: np.ndarray
    target: np.ndarray
    reversal: np.ndarray
    weight: np.ndarray
    unflagged: np.ndarray


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph with per-orientation weights.

    vertices: vertex identifiers in input order (canonical order sorts them).
    edges: unordered pairs, stored as (u, v) in input order.
    weight: map oriented edge -> positive weight, both orientations present.
    backtrack: set of oriented edges where an immediate reversal is allowed.
    """

    vertices: tuple[str, ...]
    edges: tuple[OrientedEdge, ...]
    weight: Mapping[OrientedEdge, float] = field(default_factory=dict)
    backtrack: frozenset[OrientedEdge] = frozenset()

    def oriented_edges(self) -> list[OrientedEdge]:
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return out

    @cached_property
    def out_edges(self) -> dict[str, tuple[OrientedEdge, ...]]:
        """Each vertex's outgoing oriented edges in canonical order, built once."""
        out: dict[str, list[OrientedEdge]] = {x: [] for x in self.vertices}
        for u, v in self.edges:
            out.setdefault(u, []).append((u, v))
            out.setdefault(v, []).append((v, u))
        return {x: tuple(sorted(es)) for x, es in out.items()}

    @cached_property
    def _canonical(self) -> tuple[tuple[str, ...], tuple[OrientedEdge, ...]]:
        """Sorted vertices and sorted oriented edges, built once."""
        return tuple(sorted(self.vertices)), tuple(sorted(self.oriented_edges()))

    @cached_property
    def edge_arrays(self) -> EdgeArrays:
        """The arrays over the canonical oriented edges that the operators
        are assembled from, built once and read-only."""
        verts, edges = self._canonical
        vi = {x: i for i, x in enumerate(verts)}
        origin = np.array([vi[x] for x, _ in edges], dtype=np.int64)
        target = np.array([vi[y] for _, y in edges], dtype=np.int64)
        # canonical order sorts edges by (origin, target), so this key increases
        key = origin * len(verts) + target
        reversal = np.searchsorted(key, target * len(verts) + origin)
        weight = np.array([self.weight[e] for e in edges], dtype=np.float64)
        unflagged = np.array([e not in self.backtrack for e in edges], dtype=bool)
        arrays = (origin, target, reversal, weight, unflagged)
        for a in arrays:
            a.flags.writeable = False
        return EdgeArrays(verts, edges, *arrays)

    @cached_property
    def core(self) -> "WeightedGraph":
        """The graph without its unflagged pendant trees, built once.

        A vertex of degree 1 whose edge is unflagged in both orientations is
        removed until none is left; one vertex of a tree stays.  No
        admissible closed walk enters such an edge (leaving the leaf means
        reversing it), so the zeta and L-functions are those of the core.
        Vertices and edges keep their input order, and the graph itself is
        returned when nothing is removed."""
        degree = {x: len(es) for x, es in self.out_edges.items()}
        removed: set[str] = set()
        stack = [x for x in reversed(self.vertices) if degree[x] == 1]
        while stack:
            x = stack.pop()
            if degree[x] != 1:
                continue
            (y,) = [y for _, y in self.out_edges[x] if y not in removed]
            if (x, y) in self.backtrack or (y, x) in self.backtrack:
                continue
            removed.add(x)
            degree[y] -= 1
            if degree[y] == 1:
                stack.append(y)
        if not removed:
            return self
        return WeightedGraph(
            tuple(x for x in self.vertices if x not in removed),
            tuple((u, v) for u, v in self.edges if u not in removed and v not in removed),
            {e: w for e, w in self.weight.items() if e[0] not in removed and e[1] not in removed},
            self.backtrack,
        )

    def neighbors(self, x: str) -> list[str]:
        return [v for _, v in self.out_edges.get(x, ())]

    def has_symmetric_backtrack(self) -> bool:
        """True when the flagged set is closed under edge reversal."""
        return all(reverse(e) in self.backtrack for e in self.backtrack)


def make_graph(
    vertices: Iterable[str],
    weighted_edges: Iterable[tuple[str, str, float, float]],
    backtrack: Iterable[OrientedEdge] = (),
) -> WeightedGraph:
    """Convenience constructor: (u, v, w(u->v), w(v->u)) per edge."""
    edges = []
    weight: dict[OrientedEdge, float] = {}
    for u, v, wuv, wvu in weighted_edges:
        edges.append((u, v))
        weight[(u, v)] = float(wuv)
        weight[(v, u)] = float(wvu)
    return WeightedGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        weight=weight,
        backtrack=frozenset(backtrack),
    )


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def codes(self) -> set[str]:
        return {code for code, _ in self.entries}


def validate(g: WeightedGraph) -> ValidationReport:
    """Check every structural invariant; returns all violations, raises nothing."""
    entries: list[tuple[str, str]] = []
    seen_vertices = set()
    for x in g.vertices:
        if x in seen_vertices:
            entries.append(("duplicate-vertex", f"vertex {x!r} listed twice"))
        seen_vertices.add(x)
    if not g.vertices:
        entries.append(("empty", "graph has no vertices"))

    seen_pairs = set()
    for u, v in g.edges:
        if u == v:
            entries.append(("loop", f"edge joins {u!r} to itself"))
            continue
        if u not in seen_vertices or v not in seen_vertices:
            entries.append(("unknown-vertex", f"edge ({u!r}, {v!r}) references a missing vertex"))
        pair = frozenset((u, v))
        if pair in seen_pairs:
            entries.append(("duplicate-edge", f"edge {{{u!r}, {v!r}}} listed twice"))
        seen_pairs.add(pair)
        for e in ((u, v), (v, u)):
            if e not in g.weight:
                entries.append(("missing-weight", f"no weight for orientation {e[0]!r}->{e[1]!r}"))
            else:
                w = g.weight[e]
                if not (w > 0) or w != w or w in (float("inf"), float("-inf")):
                    entries.append(("nonpositive-weight", f"weight {w!r} on {e[0]!r}->{e[1]!r}"))

    for e in g.backtrack:
        if e not in g.weight:
            entries.append(("unknown-vertex", f"backtrack flag on non-edge {e[0]!r}->{e[1]!r}"))

    # connectivity over the undirected edge set
    if g.vertices and not any(code in ("loop", "unknown-vertex") for code, _ in entries):
        stack = [g.vertices[0]]
        reached = {g.vertices[0]}
        while stack:
            x = stack.pop()
            for _, y in g.out_edges[x]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) != len(seen_vertices):
            entries.append(("disconnected", f"only {len(reached)} of {len(seen_vertices)} vertices reachable"))

    return ValidationReport(tuple(entries))


@dataclass(frozen=True)
class GraphStats:
    vertex_count: int
    edge_count: int
    euler_number: int
    total_weight: float
    valency_bound: int
    W_per_edge: dict[frozenset, float]
    girth_lower_bound: int


def graph_stats(g: WeightedGraph) -> GraphStats:
    """Summary numbers: Euler number |V|-|E|, total weight over both
    orientations, valency bound, per-edge orientation-weight products, and
    ``girth_lower_bound``, which is the exact girth (0 when acyclic, backtrack
    flags ignored), found at worst in O(|V|·(|V| + |E|)) by :func:`_girth`."""
    total = 0.0
    W: dict[frozenset, float] = {}
    for u, v in g.edges:
        total += g.weight[(u, v)] + g.weight[(v, u)]
        W[frozenset((u, v))] = g.weight[(u, v)] * g.weight[(v, u)]
    val = {x: 0 for x in g.vertices}
    for u, v in g.edges:
        val[u] += 1
        val[v] += 1
    return GraphStats(
        vertex_count=len(g.vertices),
        edge_count=len(g.edges),
        euler_number=len(g.vertices) - len(g.edges),
        total_weight=total,
        valency_bound=max(val.values()) if val else 0,
        W_per_edge=W,
        girth_lower_bound=_girth(g),
    )


def _girth(g: WeightedGraph) -> int:
    """Exact girth, 0 when acyclic; backtrack flags are ignored.

    One breadth-first search per root (Itai and Rodeh, 1978): a non-tree edge
    x-y closes a walk of length dist[x] + dist[y] + 1 through the root, which
    contains a cycle no longer, and a root on a shortest cycle meets it
    exactly.  Edges first met at depth d close walks of length 2d + 1 or
    more, so a search stops once that reaches the best found.  At worst
    O(|V|·(|V| + |E|)), on trees and graphs of long girth.
    """
    best = 0
    for root in g.vertices:
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        depth = 0
        while frontier and (best == 0 or 2 * depth + 1 < best):
            nxt = []
            for x in frontier:
                for _, y in g.out_edges[x]:
                    if y not in dist:
                        dist[y] = depth + 1
                        parent[y] = x
                        nxt.append(y)
                    elif y != parent[x]:
                        cycle_len = depth + dist[y] + 1
                        if best == 0 or cycle_len < best:
                            best = cycle_len
            frontier = nxt
            depth += 1
    return best


def canonical_order(g: WeightedGraph) -> tuple[list[str], list[OrientedEdge]]:
    """Deterministic bases: sorted vertices, sorted oriented edges.  The sort
    runs once per graph; each call returns fresh lists."""
    verts, edges = g._canonical
    return list(verts), list(edges)


# ---------------------------------------------------------------------------
# file format

def parse_graph(text: str) -> WeightedGraph:
    """Parse and validate a graph document.

    Raises GraphFormatError for malformed documents and GraphValidationError
    (carrying the full report) for well-formed but inadmissible graphs.
    A reverse weight wvu defaults to wuv; backtrack flags default to false.
    """
    doc = _load_document(text)
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(x, str) for x in vertices):
        raise GraphFormatError("'vertices' must be a list of strings")
    edges: list[OrientedEdge] = []
    weight: dict[OrientedEdge, float] = {}
    backtrack: set[OrientedEdge] = set()
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"edge #{i} is not an object")
        try:
            u, v = entry["u"], entry["v"]
            wuv = entry["wuv"]
        except KeyError as missing:
            raise GraphFormatError(f"edge #{i} lacks required key {missing}") from None
        if not isinstance(u, str) or not isinstance(v, str):
            raise GraphFormatError(f"edge #{i} endpoints must be strings")
        wvu = entry.get("wvu", wuv)
        if not isinstance(wuv, (int, float)) or isinstance(wuv, bool):
            raise GraphFormatError(f"edge #{i} weight wuv is not a number")
        if not isinstance(wvu, (int, float)) or isinstance(wvu, bool):
            raise GraphFormatError(f"edge #{i} weight wvu is not a number")
        bt_uv = entry.get("bt_uv", False)
        bt_vu = entry.get("bt_vu", False)
        if not isinstance(bt_uv, bool) or not isinstance(bt_vu, bool):
            raise GraphFormatError(f"edge #{i} backtrack flags must be booleans")
        edges.append((u, v))
        weight[(u, v)] = float(wuv)
        weight[(v, u)] = float(wvu)
        if bt_uv:
            backtrack.add((u, v))
        if bt_vu:
            backtrack.add((v, u))
    g = WeightedGraph(tuple(vertices), tuple(edges), weight, frozenset(backtrack))
    report = validate(g)
    if not report.ok:
        raise GraphValidationError(report)
    return g


@lru_cache(maxsize=1)
def _load_document(text: str) -> dict:
    """The JSON document of text, checked for its top-level keys.  The last
    one is cached, so that the CLI reads the document parse_graph loaded
    without a second json.loads; callers share it and do not mutate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise GraphFormatError("document must be an object with a 'vertices' key")
    if "local_system" in doc and not isinstance(doc["local_system"], dict):
        raise GraphFormatError("'local_system' must be an object")
    return doc


def serialize_graph(g: WeightedGraph, local_system_block: dict | None = None) -> str:
    """Emit the document form; key order is fixed by the format."""
    edges = []
    for u, v in g.edges:
        edges.append({
            "u": u,
            "v": v,
            "wuv": g.weight[(u, v)],
            "wvu": g.weight[(v, u)],
            "bt_uv": (u, v) in g.backtrack,
            "bt_vu": (v, u) in g.backtrack,
        })
    doc: dict = {"vertices": list(g.vertices), "edges": edges}
    if local_system_block is not None:
        doc["local_system"] = local_system_block
    return json.dumps(doc, indent=2)
