"""The leafless core: which pendant trees are pruned, and that every
determinant route computed on the core equals det(1 - uT) of the input."""

import numpy as np

from conftest import random_graph, random_unitary
from zetagraph import fixtures
from zetagraph.cycles import prime_cycles
from zetagraph.graph import make_graph, validate
from zetagraph.operators import transfer_matrix
from zetagraph.routes import (
    _factorization,
    spectrum_poles,
    zeta_bass,
    zeta_classical,
    zeta_fredholm,
    zeta_partial_formula,
    zeta_sunada,
)
from zetagraph.series import fredholm_det, max_deviation
from zetagraph.twist import lfunction, make_local_system

CAT = fixtures.catalogue()
TRIANGLE = [("x", "y", 0.5, 0.1), ("y", "z", 0.25, 0.4), ("z", "x", 0.5, 0.2)]


def is_subsequence(part, whole):
    it = iter(whole)
    return all(item in it for item in part)


def test_core_prunes_unflagged_pendant_trees_only():
    # an unflagged pendant path z-a-b-c goes, leaving the triangle
    g = make_graph("xyzabc", TRIANGLE + [("z", "a", 1.0, 2.0), ("a", "b", 0.5, 0.5),
                                         ("b", "c", 3.0, 1.0)])
    assert g.core.vertices == ("x", "y", "z")
    assert g.core.edges == (("x", "y"), ("y", "z"), ("z", "x"))
    assert g.core.weight == {e: w for e, w in g.weight.items() if not set(e) & set("abc")}
    # a flag in either orientation on the last edge keeps the whole path
    for flag in (("b", "c"), ("c", "b")):
        flagged = make_graph(g.vertices, [(u, v, g.weight[(u, v)], g.weight[(v, u)])
                                          for u, v in g.edges], backtrack=[flag])
        assert flagged.core is flagged
    # a flag on the middle edge keeps it and what lies between it and the triangle
    middle = make_graph(g.vertices, [(u, v, g.weight[(u, v)], g.weight[(v, u)])
                                     for u, v in g.edges], backtrack=[("a", "b")])
    assert middle.core.vertices == ("x", "y", "z", "a", "b")
    assert middle.core.edges == g.edges[:5]
    assert middle.core.backtrack == middle.backtrack


def test_core_of_a_tree_is_one_vertex():
    for name in ("edge", "p3"):
        core = CAT[name].core
        assert len(core.vertices) == 1 and core.edges == () and core.weight == {}, name
        assert core.vertices[0] in CAT[name].vertices
        assert core.core is core


def test_leafless_and_flagged_fixtures_are_their_own_core():
    for name in ("k3", "wt3", "k3s", "k4", "bt1", "bt2"):
        assert CAT[name].core is CAT[name], name


def graph_with_pendant_trees(rng, backtrack):
    """A random graph with a cycle, plus an unflagged pendant chain of two or
    three vertices hung from a random vertex."""
    g = random_graph(rng, max_vertices=7, extra_edges=2, backtrack=backtrack,
                     n_vertices=int(rng.integers(4, 8)))
    names = list(g.vertices)
    weighted = [(u, v, g.weight[(u, v)], g.weight[(v, u)]) for u, v in g.edges]
    anchor = names[int(rng.integers(0, len(names)))]
    for i in range(int(rng.integers(2, 4))):
        leaf = f"t{i}"
        weighted.append((anchor, leaf, float(rng.uniform(0.1, 1.0)),
                         float(rng.uniform(0.1, 1.0))))
        names.append(leaf)
        anchor = leaf
    h = make_graph(names, weighted, backtrack=g.backtrack)
    assert validate(h).ok
    return h


def random_system(g, rng, dim):
    return make_local_system(g, dim, {(u, v): random_unitary(rng, dim) for u, v in g.edges})


def test_routes_on_the_core_equal_the_unpruned_determinant(rng):
    M = 10
    cases = [("none", None), ("symmetric", None), ("any", None),
             ("none", 1), ("none", 2), ("any", 2)]
    checked = 0
    for _ in range(4):
        for mode, dim in cases:
            g = graph_with_pendant_trees(rng, mode)
            assert g.core is not g
            core = g.core
            assert is_subsequence(core.vertices, g.vertices)
            assert is_subsequence(core.edges, g.edges)
            assert core.backtrack == g.backtrack
            system = None if dim is None else random_system(g, rng, dim)
            exact = fredholm_det(transfer_matrix(g, system).mat, M)
            got = {"fredholm": zeta_fredholm(g, M, system).series,
                   "factorization": _factorization(g, M, system)[0].truncate(M)}
            if system is not None:
                got["lfun-fredholm"] = lfunction(g, system, M, route="fredholm")
                if not g.backtrack:
                    got["lfun-determinant"] = lfunction(g, system, M, route="determinant")
            elif not g.backtrack:
                unit = make_graph(g.vertices, [(u, v, 1.0, 1.0) for u, v in g.edges])
                got["sunada"] = zeta_sunada(g, M).series
                got["bass"] = zeta_bass(g, M).series
                got["partial"] = zeta_partial_formula(g, M).series
                assert max_deviation(zeta_classical(unit, M).series,
                                     fredholm_det(transfer_matrix(unit).mat, M)) <= 1e-12
            elif g.has_symmetric_backtrack():
                got["partial"] = zeta_partial_formula(g, M).series
            for route, series in got.items():
                assert max_deviation(series, exact) <= 1e-12, (mode, dim, route)
            if system is None:
                # det(1 - uT) is the product of (1 - u/p)^m over the poles
                inverse = [1 / p for p, m in spectrum_poles(g) for _ in range(m)]
                product = np.zeros(M + 1, dtype=complex)
                head = np.atleast_1d(np.poly(inverse))[: M + 1]
                product[: len(head)] = head
                assert np.abs(product - exact.coefficients()).max() <= 1e-10, (mode, dim)
            records = [(r.edges, r.length, r.weight.hex(), r.primitive_length)
                       for r in prime_cycles(g, 8)]
            assert records == [(r.edges, r.length, r.weight.hex(), r.primitive_length)
                               for r in prime_cycles(core, 8)], (mode, dim)
            checked += 1
    assert checked == 24
