"""Shared corpus generators.

Random graphs are spanning trees with a couple of extra edges: enough to
carry cycles of every interesting kind while keeping exponential-cost
oracle enumeration inside the time budgets.
"""

import numpy as np
import pytest

from zetagraph.graph import make_graph, validate


def random_graph(rng, max_vertices=7, extra_edges=None, backtrack="none", n_vertices=None):
    """Connected weighted graph: spanning tree plus 0..2 extra edges.

    backtrack: "none", "symmetric" (flags closed under reversal), or
    "any" (independent per orientation; may be asymmetric).  n_vertices
    fixes the vertex count instead of drawing it up to max_vertices, so
    with extra_edges it fixes the edge count.
    """
    nv = int(rng.integers(2, max_vertices + 1)) if n_vertices is None else n_vertices
    names = [f"v{i}" for i in range(nv)]
    pairs = set()
    for i in range(1, nv):
        j = int(rng.integers(0, i))
        pairs.add((names[j], names[i]))
    n_extra = int(rng.integers(0, 3)) if extra_edges is None else extra_edges
    candidates = [
        (names[i], names[j])
        for i in range(nv)
        for j in range(i + 1, nv)
        if (names[i], names[j]) not in pairs
    ]
    if candidates and n_extra:
        take = rng.choice(len(candidates), size=min(n_extra, len(candidates)), replace=False)
        for idx in np.atleast_1d(take):
            pairs.add(candidates[int(idx)])
    weighted = [
        (u, v, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0)))
        for u, v in sorted(pairs)
    ]
    flags = []
    if backtrack == "symmetric":
        for u, v, _, _ in weighted:
            if rng.random() < 0.3:
                flags += [(u, v), (v, u)]
    elif backtrack == "any":
        for u, v, _, _ in weighted:
            if rng.random() < 0.25:
                flags.append((u, v))
            if rng.random() < 0.25:
                flags.append((v, u))
    g = make_graph(names, weighted, backtrack=flags)
    assert validate(g).ok
    return g


def complete_graph(n, weight):
    """K_n with the same weight on every oriented edge."""
    names = [f"v{i}" for i in range(n)]
    return make_graph(names, [(u, v, weight, weight) for i, u in enumerate(names)
                              for v in names[i + 1 :]])


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
