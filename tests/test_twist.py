import numpy as np
import pytest

from conftest import random_graph, random_unitary
from zetagraph import fixtures
from zetagraph.cycles import holonomy as transport_product, prime_cycles
from zetagraph.errors import GraphFormatError, GraphValidationError
from zetagraph.operators import edge_operators, incidence_maps, transfer_matrix
from zetagraph.routes import zeta_fredholm, zeta_sunada
from zetagraph.series import fredholm_det, max_deviation
from zetagraph.twist import (
    LocalSystem,
    gauge_transform,
    lfunction,
    load_local_system,
    local_system_block,
    make_local_system,
    trivial_system,
    validate_local_system,
)

CAT = fixtures.catalogue()


def random_system(g, rng, dim):
    transfers = {(u, v): random_unitary(rng, dim) for u, v in g.edges}
    return make_local_system(g, dim, transfers)


def test_trivial_system_reduces_to_zeta():
    for name, g in CAT.items():
        system = trivial_system(g)
        zeta = zeta_fredholm(g, 8).series
        assert max_deviation(lfunction(g, system, 8, route="oracle"), zeta) < 1e-12, name
        assert max_deviation(lfunction(g, system, 8, route="fredholm"), zeta) < 1e-12, name
        if not g.backtrack:
            det = lfunction(g, system, 8, route="determinant")
            assert max_deviation(det, zeta_sunada(g, 8).series) < 1e-12, name


def test_trivial_operators_match_untwisted_entrywise():
    for name, g in CAT.items():
        sigma, tau, flip, T = edge_operators(g, trivial_system(g))
        s0, t0, j0 = incidence_maps(g)
        assert np.allclose(sigma.dense(), s0.dense()), name
        assert np.allclose(tau.dense(), t0.dense()), name
        assert np.allclose(flip.dense(), j0.dense()), name
        assert np.allclose(T.dense(), transfer_matrix(g).dense()), name


def test_sign_twist_on_triangle():
    g = CAT["k3"]
    system = make_local_system(g, 1, {("x", "y"): [[-1.0]]})
    expected = np.zeros(7)
    expected[0], expected[3], expected[6] = 1.0, 2.0, 1.0
    for route in ("oracle", "fredholm", "determinant"):
        series = lfunction(g, system, 6, route=route)
        assert np.allclose(series.coefficients().real, expected, atol=1e-12), route
        assert np.allclose(series.coefficients().imag, 0.0, atol=1e-12), route


def test_routes_agree_on_random_systems(rng):
    for dim in (1, 2, 3):
        for _ in range(4):
            g = random_graph(rng, max_vertices=5)
            system = random_system(g, rng, dim)
            oracle = lfunction(g, system, 10, route="oracle")
            fred = lfunction(g, system, 10, route="fredholm")
            det = lfunction(g, system, 10, route="determinant")
            assert max_deviation(oracle, fred) < 1e-9
            assert max_deviation(det, fred) < 1e-9


def test_twisted_route_metadata_reports_fiber_dimensions(rng):
    g = CAT["k4"]
    system = random_system(g, rng, 2)
    n_oe, n_v = 2 * len(g.edges), len(g.vertices)
    assert zeta_fredholm(g, 6).metadata["dimension"] == n_oe
    assert zeta_sunada(g, 6).metadata["vertex_dimension"] == n_v
    fred = zeta_fredholm(g, 6, system)
    sunada = zeta_sunada(g, 6, system)
    assert fred.metadata["dimension"] == 2 * n_oe
    assert sunada.metadata["vertex_dimension"] == 2 * n_v
    assert max_deviation(fred.series, lfunction(g, system, 6, route="fredholm")) == 0.0
    assert max_deviation(sunada.series, lfunction(g, system, 6, route="determinant")) == 0.0


def test_flagged_graphs_twist_through_oracle_and_fredholm(rng):
    for mode in ("symmetric", "any"):
        for _ in range(3):
            g = random_graph(rng, max_vertices=5, backtrack=mode)
            system = random_system(g, rng, 2)
            oracle = lfunction(g, system, 8, route="oracle")
            fred = lfunction(g, system, 8, route="fredholm")
            assert max_deviation(oracle, fred) < 1e-9


def test_determinant_route_needs_empty_backtrack_set():
    g = CAT["bt1"]
    with pytest.raises(ValueError):
        lfunction(g, trivial_system(g), 6, route="determinant")
    with pytest.raises(ValueError):
        lfunction(g, trivial_system(g), 6, route="spectral")


def test_gauge_invariance(rng):
    g = random_graph(rng, max_vertices=5)
    system = random_system(g, rng, 2)
    vertex_unitaries = {x: random_unitary(rng, 2) for x in g.vertices}
    transformed = gauge_transform(g, system, vertex_unitaries)
    assert validate_local_system(g, transformed).ok
    before = lfunction(g, system, 10, route="fredholm")
    after = lfunction(g, transformed, 10, route="fredholm")
    assert max_deviation(before, after) < 1e-9


def test_twisted_flip_determinant_is_roundtrip_product(rng):
    g = random_graph(rng, max_vertices=5)
    dim = 2
    system = random_system(g, rng, dim)
    _, _, flip, _ = edge_operators(g, system)
    lhs = fredholm_det(flip, 8)
    rhs = np.zeros(9, dtype=complex)
    rhs[0] = 1.0
    from zetagraph.series import Series

    acc = Series(rhs)
    for u, v in g.edges:
        W = g.weight[(u, v)] * g.weight[(v, u)]
        c = np.zeros(9, dtype=complex)
        c[0] = 1.0
        c[2] = -W
        factor = Series(c)
        for _ in range(dim):
            acc = acc * factor
    assert max_deviation(lhs, acc) < 1e-9


def test_holonomy_of_iterated_cycle_is_a_power(rng):
    g = CAT["bt1"]
    system = random_system(g, rng, 2)
    records = prime_cycles(g, 6, system=system)
    prime = next(r for r in records if r.is_prime)
    doubled = next(r for r in records if r.length == 2 * prime.length)
    assert np.allclose(doubled.holonomy, prime.holonomy @ prime.holonomy, atol=1e-12)


def test_rotation_conjugates_holonomy(rng):
    g = CAT["k3"]
    system = random_system(g, rng, 3)
    rec = next(r for r in prime_cycles(g, 3) if r.length == 3)
    polys = []
    for i in range(rec.length):
        rotated = rec.edges[i:] + rec.edges[:i]
        polys.append(fredholm_det(transport_product(system, rotated), 3).coefficients())
    for p in polys[1:]:
        assert np.allclose(p, polys[0], atol=1e-10)


def test_validation_codes():
    g = CAT["k3"]
    assert validate_local_system(g, trivial_system(g, 2)).ok

    report = validate_local_system(g, LocalSystem(0, {}))
    assert [c for c, _ in report.entries] == ["dimension"]

    report = validate_local_system(g, LocalSystem(1, {}))
    assert {c for c, _ in report.entries} == {"coverage"}
    assert len(report.entries) == 6

    bad = dict(trivial_system(g).transfers)
    bad[("x", "y")] = np.array([[2.0]])
    report = validate_local_system(g, LocalSystem(1, bad))
    assert ("unitarity", "transfer x->y is not unitary") in report.entries

    nan = dict(trivial_system(g).transfers)
    nan[("x", "y")] = np.array([[np.nan]])
    report = validate_local_system(g, LocalSystem(1, nan))
    assert ("unitarity", "transfer x->y is not unitary") in report.entries

    skew = dict(trivial_system(g).transfers)
    skew[("x", "y")] = np.array([[1.0j]])
    report = validate_local_system(g, LocalSystem(1, skew))
    codes = {c for c, _ in report.entries}
    assert codes == {"compatibility"}

    shapes = dict(trivial_system(g).transfers)
    shapes[("x", "y")] = np.eye(2)
    report = validate_local_system(g, LocalSystem(1, shapes))
    assert any(c == "dimension" for c, _ in report.entries)


def test_lfunction_rejects_invalid_system():
    g = CAT["k3"]
    with pytest.raises(GraphValidationError):
        lfunction(g, LocalSystem(1, {}), 4)


def test_system_document_round_trip(rng):
    g = CAT["wt3"]
    system = random_system(g, rng, 2)
    block = local_system_block(system, g)
    assert len(block["transfers"]) == 6  # both orientations listed
    loaded = load_local_system({"local_system": block}, g)
    for e, U in system.transfers.items():
        assert np.allclose(loaded.transport(e), U, atol=1e-15)
    assert load_local_system({}, g) is None


@pytest.mark.parametrize(
    "block",
    [
        [],
        {"transfers": []},
        {"dim": True, "transfers": []},
        {"dim": 0, "transfers": []},
        {"dim": 1, "transfers": [{"u": "x", "matrix": [[[1, 0]]]}]},
        {"dim": 1, "transfers": [{"u": "x", "v": "y", "matrix": [[[1, 0]], [[0, 1]]]}]},
        {"dim": 1, "transfers": [{"u": "x", "v": "y", "matrix": [["one"]]}]},
        {"dim": 2, "transfers": [{"u": "x", "v": "y", "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}]},
        {"dim": 1, "transfers": [{"u": "x", "v": "q", "matrix": [[[1, 0]]]}]},
    ],
)
def test_malformed_system_blocks(block):
    with pytest.raises(GraphFormatError):
        load_local_system({"local_system": block}, CAT["k3"])
