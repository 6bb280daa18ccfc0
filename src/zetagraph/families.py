"""Parameterized infinite graphs of finite total weight, realized as
nested finite truncations with closed-form tail weights.

A source generates blocks F_0 subset F_1 subset ... whose union is the
infinite graph; tail_weight(K) is the weight that truncation at block K
leaves out.  Block K always carries its outgoing connector edge (a stub
into the first vertex of block K+1), so the accounting is exact: total
weight of F_K plus tail_weight(K) equals the analytic total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResourceCapError
from .graph import WeightedGraph, _fmt, make_graph
from .routes import zeta_fredholm

BLOCK_CAP = 64


@dataclass(frozen=True)
class GraphSource:
    name: str
    params: dict
    total_weight: float
    _builder: Callable[[int], WeightedGraph] = field(repr=False)
    _tail: Callable[[int], float] = field(repr=False)

    def block(self, K: int) -> WeightedGraph:
        """The truncation F_K (blocks 0..K plus block K's connector stub)."""
        if K < 0:
            raise ValueError("block index must be >= 0")
        if K > BLOCK_CAP:
            raise ResourceCapError(f"block index {K} exceeds cap {BLOCK_CAP}")
        return self._builder(K)

    def tail_weight(self, K: int) -> float:
        return self._tail(K)


def _triangle_chain_block(r: float, K: int) -> WeightedGraph:
    vertices = []
    edges = []
    for k in range(K + 1):
        a, b, c = f"a{k}", f"b{k}", f"c{k}"
        vertices += [a, b, c]
        w = r ** k
        edges += [(a, b, w, w), (b, c, w, w), (c, a, w, w)]
        edges.append((c, f"a{k + 1}", w, w))
    vertices.append(f"a{K + 1}")
    return make_graph(vertices, edges)


def _ladder_block(r: float, K: int) -> WeightedGraph:
    vertices = []
    edges = []
    for k in range(K + 1):
        u, v = f"u{k}", f"v{k}"
        vertices += [u, v]
        w = r ** k
        edges.append((u, v, w, w))
        edges.append((u, f"u{k + 1}", w, w))
        edges.append((v, f"v{k + 1}", w, w))
    vertices += [f"u{K + 1}", f"v{K + 1}"]
    return make_graph(vertices, edges)


# name -> (block builder, weight of block 0)
_FAMILIES = {"triangle-chain": (_triangle_chain_block, 8.0), "ladder": (_ladder_block, 6.0)}


def make_source(name: str, r: float) -> GraphSource:
    """Built-in families.

    triangle-chain(r): block k is a triangle (a_k, b_k, c_k) with all six
    orientation weights r^k, bridged c_k -- a_{k+1} at the same weight;
    block weight 8 r^k, total 8/(1-r), tail 8 r^{K+1}/(1-r).

    ladder(r): block k is a rung u_k -- v_k plus the two rail edges to
    level k+1, all weights r^k; block weight 6 r^k, total 6/(1-r).
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"decay parameter must lie in (0, 1), got {r}")
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; built-ins: {', '.join(_FAMILIES)}")
    builder, block_weight = _FAMILIES[name]
    return GraphSource(
        name,
        {"r": r},
        block_weight / (1.0 - r),
        lambda K: builder(r, K),
        lambda K: block_weight * r ** (K + 1) / (1.0 - r),
    )


def truncation_depth(source: GraphSource, epsilon: float) -> int:
    """Smallest block index K whose left-out weight is at most epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    K = 0
    while source.tail_weight(K) > epsilon:
        K += 1
        if K > BLOCK_CAP:
            raise ResourceCapError(
                f"reaching tail weight {epsilon} needs more than {BLOCK_CAP} blocks"
            )
    return K


def truncate_source(source: GraphSource, epsilon: float) -> tuple[WeightedGraph, float]:
    """Smallest truncation whose left-out weight is at most epsilon."""
    K = truncation_depth(source, epsilon)
    return source.block(K), source.tail_weight(K)


def convergence_study(
    source: GraphSource, K_max: int, M: int
) -> list[tuple[int, int, float]]:
    """Coefficient movements of det(1 - uT) as truncation deepens.

    Returns rows (k, n, delta) with delta = |c_n(F_{k+1}) - c_n(F_k)| for
    k = 0..K_max-1 and n = 0..M.  Deltas shrink geometrically for the
    built-in families since block k only adds cycles of weight ~ r^{3k}.
    """
    if K_max < 0:
        raise ValueError(f"K_max must be >= 0, got {K_max}")
    if K_max > BLOCK_CAP:
        raise ResourceCapError(f"K_max {K_max} exceeds cap {BLOCK_CAP}")
    c = [zeta_fredholm(source.block(k), M).series.c for k in range(K_max + 1)]
    return [(k, n, delta) for k in range(K_max)
            for n, delta in enumerate(np.abs(c[k + 1] - c[k]).tolist())]


def study_csv_lines(rows: list[tuple[int, int, float]]) -> list[str]:
    lines = ["k,n,delta"]
    for k, n, delta in rows:
        lines.append(f"{k},{n},{_fmt(delta)}")
    return lines
