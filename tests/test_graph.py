import json
import random

import numpy as np
import pytest

from conftest import random_graph
from zetagraph import fixtures
from zetagraph.cycles import prime_cycles
from zetagraph.errors import GraphFormatError, GraphValidationError
from zetagraph.graph import (
    WeightedGraph,
    canonical_order,
    graph_stats,
    make_graph,
    parse_graph,
    reverse,
    serialize_graph,
    validate,
)
from zetagraph.operators import incidence_maps, transfer_matrix, zigzag_matrix
from zetagraph.routes import cross_validate
from zetagraph.series import fredholm_det


def test_reverse_is_involutive():
    assert reverse(("a", "b")) == ("b", "a")
    assert reverse(reverse(("a", "b"))) == ("a", "b")


def test_make_graph_stores_both_orientations():
    g = make_graph(["a", "b"], [("a", "b", 2.0, 3.0)])
    assert g.weight[("a", "b")] == 2.0
    assert g.weight[("b", "a")] == 3.0
    assert set(g.oriented_edges()) == {("a", "b"), ("b", "a")}
    assert list(g.neighbors("a")) == ["b"]


def test_all_catalogue_fixtures_are_valid():
    for name, g in fixtures.catalogue().items():
        assert validate(g).ok, name


@pytest.mark.parametrize(
    "vertices,edges,backtrack,code",
    [
        (["a", "a", "b"], [("a", "b", 1, 1)], (), "duplicate-vertex"),
        ([], [], (), "empty"),
        (["a", "b"], [("a", "a", 1, 1)], (), "loop"),
        (["a", "b"], [("a", "c", 1, 1)], (), "unknown-vertex"),
        (["a", "b"], [("a", "b", 1, 1), ("b", "a", 1, 1)], (), "duplicate-edge"),
        (["a", "b"], [("a", "b", -1, 1)], (), "nonpositive-weight"),
        (["a", "b"], [("a", "b", 0.0, 1)], (), "nonpositive-weight"),
        (["a", "b", "c"], [("a", "b", 1, 1)], (), "disconnected"),
    ],
)
def test_validation_codes(vertices, edges, backtrack, code):
    report = validate(make_graph(vertices, edges, backtrack))
    assert not report.ok
    assert code in report.codes()


def test_symmetric_backtrack_predicate():
    g = fixtures.backtrack_pair()
    assert g.has_symmetric_backtrack()
    g = fixtures.backtrack_single()
    assert not g.has_symmetric_backtrack()
    assert fixtures.triangle().has_symmetric_backtrack()  # vacuous on empty set


def test_canonical_order_ignores_input_permutation():
    g1 = make_graph(["c", "a", "b"], [("c", "a", 1, 2), ("a", "b", 3, 4)])
    g2 = make_graph(["a", "b", "c"], [("a", "b", 3, 4), ("c", "a", 1, 2)])
    assert canonical_order(g1) == canonical_order(g2)
    verts, edges = canonical_order(g1)
    assert verts == ["a", "b", "c"]
    assert edges == sorted(edges)


def test_stats_weighted_triangle():
    st = graph_stats(fixtures.weighted_triangle())
    assert st.vertex_count == 3
    assert st.edge_count == 3
    assert st.euler_number == 0
    assert st.total_weight == pytest.approx(1.95, abs=1e-12)
    assert st.valency_bound == 2
    assert st.girth_lower_bound == 3
    assert st.W_per_edge[frozenset(("x", "y"))] == pytest.approx(0.05)
    assert st.W_per_edge[frozenset(("y", "z"))] == pytest.approx(0.1)
    assert st.W_per_edge[frozenset(("x", "z"))] == pytest.approx(0.1)


def test_stats_tree_and_k4():
    st = graph_stats(fixtures.path3())
    assert st.euler_number == 1
    assert st.girth_lower_bound == 0  # acyclic
    st = graph_stats(fixtures.complete4())
    assert st.euler_number == -2
    assert st.valency_bound == 3
    assert st.girth_lower_bound == 3


def _reference_girth(g):
    """Per-edge reference: remove each edge, BFS between its ends, and keep
    the shortest detour plus one; 0 when no edge lies on a cycle."""
    best = 0
    adj = {x: [] for x in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for u, v in g.edges:
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if (x, y) == (u, v) or (x, y) == (v, u):
                        continue
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist:
            cycle_len = dist[v] + 1
            if best == 0 or cycle_len < best:
                best = cycle_len
    return best


def _shuffled_random_graph(rng):
    """Spanning tree plus 0..all chords on 1-16 vertices, with vertex order,
    edge order and edge orientation shuffled."""
    n = rng.randint(1, 16)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = {tuple(sorted((names[rng.randrange(i)], names[i]))) for i in range(1, n)}
    chords = [(a, b) for i, a in enumerate(sorted(names)) for b in sorted(names)[i + 1:]
              if (a, b) not in pairs]
    pairs |= set(rng.sample(chords, min(len(chords), rng.choice([0, 0, 1, 2, 3, n, len(chords)]))))
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(pairs)]
    rng.shuffle(edges)
    vertices = names[:]
    rng.shuffle(vertices)
    return make_graph(vertices, [(u, v, 1.0, 1.0) for u, v in edges])


def _cycle(k):
    names = [f"c{i}" for i in range(k)]
    return make_graph(names, [(names[i], names[(i + 1) % k], 1.0, 1.0) for i in range(k)])


def _named_graphs():
    k33 = make_graph("abcxyz", [(a, b, 1.0, 1.0) for a in "abc" for b in "xyz"])
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    petersen = make_graph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                          [(u, v, 1.0, 1.0) for u, v in outer + inner + spokes])
    cube = [format(i, "03b") for i in range(8)]
    q3 = make_graph(cube, [(a, b, 1.0, 1.0) for a in cube for b in cube
                           if a < b and sum(x != y for x, y in zip(a, b)) == 1])
    named = {f"C{k}": (_cycle(k), k) for k in range(3, 41)}
    named.update({"K33": (k33, 4), "Petersen": (petersen, 5), "Q3": (q3, 4)})
    return named


def test_girth_matches_per_edge_reference():
    for name, g in fixtures.catalogue().items():
        assert graph_stats(g).girth_lower_bound == _reference_girth(g), name
    rng = random.Random(20260907)
    kinds = set()
    for trial in range(1200):
        g = _shuffled_random_graph(rng)
        assert validate(g).ok
        girth = graph_stats(g).girth_lower_bound
        assert girth == _reference_girth(g), (trial, g)
        kinds.add("single" if len(g.vertices) == 1 else "tree" if girth == 0 else "cyclic")
    assert kinds == {"single", "tree", "cyclic"}
    for name, (g, expected) in _named_graphs().items():
        assert graph_stats(g).girth_lower_bound == _reference_girth(g) == expected, name


def _unflagged_graphs():
    graphs = [g for g in fixtures.catalogue().values() if not g.backtrack]
    rng = np.random.default_rng(20260908)
    graphs += [random_graph(rng, max_vertices=7, extra_edges=int(rng.integers(0, 4)))
               for _ in range(40)]
    return graphs


def test_girth_is_first_nonzero_trace_and_shortest_cycle_class():
    # weights are positive, so every closed non-backtracking walk adds a
    # positive term: tr(T^n) and the Newton coefficients below the girth are
    # exact zeros, with nothing to cancel
    L = 6
    for g in _unflagged_graphs():
        girth = graph_stats(g).girth_lower_bound
        T = transfer_matrix(g).dense()
        power = np.eye(len(T))
        first = 0
        for n in range(1, len(T) + 1):
            power = T @ power
            if np.trace(power) != 0:
                first = n
                break
        assert first == girth, g
        lengths = [r.length for r in prime_cycles(g, L)]
        assert min(lengths, default=0) == (girth if girth <= L else 0), g
        c = fredholm_det(transfer_matrix(g), len(T)).c
        assert np.all(c[1:girth] == 0), g
        if girth:
            assert c[girth] != 0, g


def test_serialize_parse_round_trip():
    for name, g in fixtures.catalogue().items():
        back = parse_graph(serialize_graph(g))
        assert back == g, name


def test_parse_defaults_reverse_weight_and_flags():
    g = parse_graph('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "wuv": 0.5}]}')
    assert g.weight[("b", "a")] == 0.5
    assert not g.backtrack


def test_parse_reads_backtrack_flags():
    text = json.dumps(
        {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "wuv": 2.0, "wvu": 3.0, "bt_uv": True}],
        }
    )
    g = parse_graph(text)
    assert g.backtrack == frozenset({("a", "b")})


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2]",
        '{"edges": []}',
        '{"vertices": ["a"], "edges": [{"u": "a"}]}',
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "wuv": "heavy"}]}',
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "wuv": true}]}',
        '{"vertices": ["a", "b"], "edges": [["a", "b", 1.0]]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_invalid_graphs_with_report():
    text = '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "wuv": -1.0}]}'
    with pytest.raises(GraphValidationError) as err:
        parse_graph(text)
    assert "nonpositive-weight" in err.value.report.codes()


def test_graph_is_frozen():
    g = fixtures.triangle()
    assert g == fixtures.triangle()
    with pytest.raises(AttributeError):
        g.vertices = ()


def test_canonical_order_returns_fresh_lists():
    """The bases are sorted once per graph, and each call hands out new
    lists: mutating one leaves the next call's lists alone."""
    g = make_graph(["c", "a", "b"], [("c", "a", 1, 2), ("a", "b", 3, 4)])
    first, second = canonical_order(g), canonical_order(g)
    assert first == second == (["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")])
    assert first[0] is not second[0] and first[1] is not second[1]
    first[0].append("z")
    first[1].clear()
    assert canonical_order(g) == second


def test_edge_arrays_built_once_per_graph_and_read_only(monkeypatch):
    """One build of the edge arrays per graph object serves every operator
    and every route of a check; the arrays cannot be written.  A core that
    is a different object builds and keeps its own."""
    builds = []
    prop = WeightedGraph.__dict__["edge_arrays"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda g: builds.append(g) or build(g))

    k4 = fixtures.complete4()
    arrays = k4.edge_arrays
    incidence_maps(k4)
    transfer_matrix(k4)
    for n in range(4):
        zigzag_matrix(k4, n)
    cross_validate(k4, 8)
    assert k4.core is k4 and k4.edge_arrays is arrays and builds == [k4]
    assert arrays.edges == tuple(canonical_order(k4)[1])
    assert arrays.verts == tuple(canonical_order(k4)[0])
    for a in arrays[2:]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]

    # a triangle with a two-edge pendant path: the core drops the path
    g = make_graph("abcde", [("a", "b", 0.5, 0.4), ("b", "c", 0.3, 0.6), ("c", "a", 0.7, 0.2),
                             ("c", "d", 0.5, 0.5), ("d", "e", 0.5, 0.5)])
    builds.clear()
    cross_validate(g, 8)
    core = g.core
    assert core is not g and builds == [core]
    assert "edge_arrays" not in vars(g)
    assert len(g.edge_arrays.edges) == 10 and len(core.edge_arrays.edges) == 6
    assert builds == [core, g]
    assert core.edge_arrays is not g.edge_arrays and canonical_order(core) != canonical_order(g)
