import math

import numpy as np
import pytest

from zetagraph.errors import ResourceCapError
from zetagraph.families import (
    BLOCK_CAP,
    GraphSource,
    convergence_study,
    make_source,
    truncate_source,
)
from zetagraph.graph import graph_stats, make_graph, validate


def test_triangle_chain_accounting():
    src = make_source("triangle-chain", 0.5)
    assert src.total_weight == 16.0
    assert src.tail_weight(3) == pytest.approx(1.0)
    for K in range(5):
        g = src.block(K)
        assert validate(g).ok
        assert len(g.vertices) == 3 * (K + 1) + 1
        stats = graph_stats(g)
        assert stats.total_weight + src.tail_weight(K) == pytest.approx(16.0)


def test_ladder_accounting():
    src = make_source("ladder", 0.5)
    assert src.total_weight == 12.0
    assert src.tail_weight(2) == pytest.approx(1.5)
    for K in range(4):
        g = src.block(K)
        assert validate(g).ok
        assert graph_stats(g).total_weight + src.tail_weight(K) == pytest.approx(12.0)


def test_blocks_nest():
    src = make_source("triangle-chain", 0.4)
    small, large = src.block(2), src.block(4)
    assert set(small.vertices) <= set(large.vertices)
    for e in small.edges:
        assert e in large.edges or (e[1], e[0]) in large.edges
    for e, w in small.weight.items():
        assert large.weight[e] == pytest.approx(w)


def test_truncate_to_epsilon():
    src = make_source("triangle-chain", 0.5)
    g, tail = truncate_source(src, 1.0)
    # tails are 8, 4, 2, 1 at K = -1..3, so epsilon 1.0 lands on K = 3
    assert len(g.vertices) == 13
    assert tail == pytest.approx(1.0, abs=1e-9)
    g0, tail0 = truncate_source(src, 1e9)
    assert len(g0.vertices) == 4  # F_0 always materializes
    assert tail0 == pytest.approx(8.0)
    with pytest.raises(ValueError):
        truncate_source(src, 0.0)
    with pytest.raises(ValueError):
        truncate_source(src, math.nan)
    with pytest.raises(ResourceCapError):
        truncate_source(src, 1e-30)


def test_block_bounds():
    src = make_source("ladder", 0.3)
    with pytest.raises(ValueError):
        src.block(-1)
    with pytest.raises(ResourceCapError):
        src.block(BLOCK_CAP + 1)
    with pytest.raises(ResourceCapError):
        convergence_study(src, BLOCK_CAP + 1, 4)


def test_parameter_validation():
    for bad in (1.5, 0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            make_source("triangle-chain", bad)
    with pytest.raises(ValueError):
        make_source("moebius", 0.5)


def test_convergence_deltas_decay_geometrically():
    """Deepening the triangle chain moves the u^3 coefficient by
    2 r^{3(k+1)}: block k+1 adds two directed triangles of weight r^{3(k+1)}
    and nothing shorter, so consecutive deltas sit at the exact ratio r^3."""
    src = make_source("triangle-chain", 0.5)
    rows = convergence_study(src, 8, 4)
    d3 = {k: delta for k, n, delta in rows if n == 3}
    assert d3[0] == pytest.approx(2 * 0.5 ** 3)
    for k in range(1, 8):
        assert d3[k] / d3[k - 1] == pytest.approx(0.125, rel=1e-9)
    assert all(delta == 0.0 for k, n, delta in rows if n in (0, 1, 2))


def test_convergence_study_on_finite_source_is_flat():
    path = make_graph(["a", "b"], [("a", "b", 1.0, 1.0)])
    src = GraphSource("pair", {}, 2.0, lambda K: path, lambda K: 0.0)
    rows = convergence_study(src, 3, 6)
    assert all(delta == 0.0 for _, _, delta in rows)


def test_study_rows_golden():
    rows = convergence_study(make_source("triangle-chain", 0.5), 1, 3)
    assert rows[0] == (0, 0, 0.0)
    assert rows[3] == (0, 3, 0.25)
