import math
import re

import numpy as np
import pytest

from conftest import (
    complete_graph,
    contract_ratio,
    dense_pencils,
    exact_fredholm,
    prism_graph,
    random_graph,
)
from zetagraph import blas, fixtures, routes, series
from zetagraph.errors import RefusalError, ResourceCapError
from zetagraph.graph import make_graph
from zetagraph.operators import transfer_matrix, zigzag_matrix
from zetagraph.routes import (
    ROUTE_BUILDERS,
    ROUTES,
    PairVerdict,
    RouteResult,
    backtrack_weight_constant,
    cross_validate,
    route_series,
    spectrum_poles,
    sunada_point_value,
    why_not,
    zeta_bass,
    zeta_classical,
    zeta_fredholm,
    zeta_partial_formula,
    zeta_sunada,
)
from zetagraph.series import MatrixSeries, Series, coeffs_agree, max_deviation
from zetagraph.twist import lfunction, trivial_system

CAT = fixtures.catalogue()


def unit_edge():
    return make_graph(["a", "b"], [("a", "b", 1.0, 1.0)])


def test_route_builder_names():
    assert set(ROUTE_BUILDERS) == {"fredholm", "sunada", "bass", "partial", "classical"}


def test_fredholm_frozen_values():
    assert np.allclose(zeta_fredholm(CAT["edge"], 4).series.coefficients().real,
                       [1, 0, 0, 0, 0])
    assert np.allclose(zeta_fredholm(CAT["k3"], 6).series.coefficients().real,
                       [1, 0, 0, -2, 0, 0, 1])
    assert np.allclose(zeta_fredholm(CAT["bt1"], 4).series.coefficients().real,
                       [1, 0, -6, 0, 0])
    assert zeta_fredholm(CAT["bt2"], 6).metadata == {"dimension": 2}
    assert np.allclose(zeta_fredholm(CAT["bt2"], 6).series.coefficients().real,
                       [1, 0, 0, 0, 0, 0, 0])


def test_sunada_frozen_values():
    assert np.allclose(zeta_sunada(CAT["k3"], 6).series.coefficients().real,
                       [1, 0, 0, -2, 0, 0, 1], atol=1e-12)
    assert np.allclose(zeta_sunada(CAT["edge"], 6).series.coefficients().real,
                       [1, 0, 0, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(zeta_sunada(CAT["wt3"], 6).series.coefficients().real,
                       [1, 0, 0, -0.0705, 0, 0, 0.0005], atol=1e-12)


def test_bass_variants_on_edges():
    g = unit_edge()
    corrected = zeta_bass(g, 8).series.coefficients().real
    assert np.allclose(corrected, [1] + [0] * 8, atol=1e-12)
    printed = zeta_bass(g, 8, variant="as-printed").series.coefficients().real
    expected = np.zeros(9)
    expected[0], expected[3] = 1.0, -2.0
    assert np.allclose(printed, expected, atol=1e-12)
    printed = zeta_bass(CAT["edge"], 8, variant="as-printed").series.coefficients().real
    expected = np.zeros(9)
    expected[0], expected[3], expected[6] = 1.0, -12.0, -180.0
    assert np.allclose(printed, expected, atol=1e-10)
    assert zeta_bass(g, 4).metadata == {"variant": "corrected", "block_sizes": (1, 0)}
    with pytest.raises(ValueError):
        zeta_bass(g, 4, variant="fixed")


def test_bass_matches_fredholm_on_triangle():
    assert coeffs_agree(zeta_bass(CAT["k3"], 8).series,
                        zeta_fredholm(CAT["k3"], 8).series)


def test_partial_alpha_constants():
    assert backtrack_weight_constant(CAT["bt1"]) == 0.0
    assert backtrack_weight_constant(CAT["k3s"]) == 0.0
    assert backtrack_weight_constant(CAT["bt2"]) == 3.0
    assert backtrack_weight_constant(CAT["bt2"], variant="w-squared") == 4.5
    assert backtrack_weight_constant(CAT["k3"]) == 0.0
    with pytest.raises(ValueError):
        backtrack_weight_constant(CAT["bt2"], variant="alpha")


def test_partial_symmetric_flag_sets():
    for name in ("bt1", "k3s"):
        res = zeta_partial_formula(CAT[name], 8)
        assert res.metadata["alpha"] == 0.0
        assert res.metadata["symmetric_flags"] is True
        assert coeffs_agree(res.series, zeta_fredholm(CAT[name], 8).series)


def test_partial_one_sided_deviation_is_pinned():
    """The product formula provably deviates on asymmetric flag sets; the
    deviation from det(1 - uT) on the one-sided pair is 3 in the u^2 row
    and grows to 4.5 at order 6 through the exponential factor."""
    res = zeta_partial_formula(CAT["bt2"], 6)
    assert res.metadata == {"alpha": 3.0, "alpha_variant": "W", "symmetric_flags": False}
    fred = zeta_fredholm(CAT["bt2"], 6)
    assert max_deviation(res.series.truncate(2), fred.series.truncate(2)) == pytest.approx(3.0)
    assert max_deviation(res.series, fred.series) == pytest.approx(4.5)
    res_sq = zeta_partial_formula(CAT["bt2"], 6, alpha_variant="w-squared")
    assert res_sq.metadata["alpha"] == 4.5


def test_partial_deviation_is_exactly_the_alpha_factor(rng):
    """The factorization equals det(1 - uT) for every flag set, so on
    one-sided flag sets the partial route is the Fredholm determinant times
    exp(-alpha u^2) and nothing else."""
    graphs = [CAT["bt2"]]
    while len(graphs) < 16:
        g = random_graph(rng, backtrack="any")
        if not g.has_symmetric_backtrack():
            graphs.append(g)
    for g in graphs:
        fred = zeta_fredholm(g, 10).series
        for variant in ("W", "w-squared"):
            res = zeta_partial_formula(g, 10, alpha_variant=variant)
            # exp(-alpha u^2) = sum_k (-alpha)^k u^(2k) / k!
            factor = np.zeros(11)
            factor[::2] = [(-res.metadata["alpha"]) ** k / math.factorial(k) for k in range(6)]
            want = Series(np.convolve(fred.c, factor), order=10)
            assert max_deviation(res.series, want) < 1e-12, variant


def test_classical_frozen_values():
    assert np.allclose(zeta_classical(CAT["k3"], 6).series.coefficients().real,
                       [1, 0, 0, -2, 0, 0, 1], atol=1e-12)
    res = zeta_classical(CAT["p3"], 8)
    assert res.metadata == {"euler_number": 1}
    assert np.allclose(res.series.coefficients().real, [1] + [0] * 8, atol=1e-12)
    assert zeta_classical(CAT["k4"], 4).metadata == {"euler_number": -2}
    assert coeffs_agree(zeta_classical(CAT["k4"], 12).series,
                        zeta_sunada(CAT["k4"], 12).series)


def test_route_preconditions():
    for route in (zeta_sunada, zeta_bass, zeta_classical):
        with pytest.raises(ValueError):
            route(CAT["k3s"], 4)
    with pytest.raises(ValueError):
        zeta_classical(CAT["wt3"], 4)


# the fixtures and four seeded random graphs of each flag mode
_rng = np.random.default_rng(26)
TABLE_GRAPHS = list(CAT.items()) + [
    (f"{mode}-{i}", random_graph(_rng, max_vertices=6, backtrack=mode))
    for mode in ("none", "symmetric", "any") for i in range(4)]


@pytest.mark.parametrize("g", [g for _, g in TABLE_GRAPHS], ids=[n for n, _ in TABLE_GRAPHS])
def test_routes_refuse_exactly_where_their_table_entry_gives_a_reason(g):
    system = trivial_system(g)
    calls = [(name, None, lambda name=name: ROUTE_BUILDERS[name](g, 8)) for name in ROUTES]
    calls += [(name, system, lambda name=name: ROUTE_BUILDERS[name](g, 8, system))
              for name in ("fredholm", "sunada")]
    calls += [(name, system, lambda name=name: route_series(name, g, 8, system))
              for name in ROUTES]
    for name, sys_, call in calls:
        reason = why_not(name, g, sys_)
        if reason is None:
            call()
        else:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == reason, (name, sys_)


def test_table_reasons_are_the_routes_messages():
    assert why_not("sunada", CAT["k3s"]) == "route sunada requires an empty backtrack set"
    assert why_not("classical", CAT["wt3"]) == "classical route requires unit weights"
    assert why_not("bass", CAT["k3"], trivial_system(CAT["k3"])) == (
        "route bass takes no local system")
    assert [name for name in ROUTES if why_not(name, CAT["k4"]) is None] == [
        "fredholm", "sunada", "bass", "partial", "classical"]
    assert [name for name in ROUTES if why_not(name, CAT["bt2"]) is None] == [
        "fredholm", "partial"]


def test_trees_give_constant_one(rng):
    graphs = [CAT["p3"], unit_edge()]
    graphs += [random_graph(rng, max_vertices=7, extra_edges=0) for _ in range(5)]
    for g in graphs:
        for builder in (zeta_fredholm, zeta_sunada, zeta_bass):
            series = builder(g, 10).series
            assert np.allclose(series.coefficients(), [1] + [0] * 10, atol=1e-12)


def test_cross_validate_unflagged_corpus(rng):
    for _ in range(15):
        g = random_graph(rng, max_vertices=7)
        report = cross_validate(g, 10)
        names = {p.route_a for p in report.pairs} | {p.route_b for p in report.pairs}
        assert names == {"oracle", "fredholm", "sunada", "bass"}
        assert len(report.pairs) == 6
        assert report.all_agree, report.pairs
        assert report.flags == ()


def test_cross_validate_symmetric_corpus(rng):
    for _ in range(10):
        g = random_graph(rng, max_vertices=6, backtrack="symmetric")
        report = cross_validate(g, 10)
        names = {p.route_a for p in report.pairs} | {p.route_b for p in report.pairs}
        if g.backtrack:
            assert names == {"oracle", "fredholm", "partial"}
        assert report.all_agree, report.pairs
        assert zeta_partial_formula(g, 10).metadata["alpha"] == 0.0


def test_cross_validate_unit_weight_graph_includes_classical():
    report = cross_validate(CAT["k4"], 8)
    names = {p.route_a for p in report.pairs} | {p.route_b for p in report.pairs}
    assert names == {"oracle", "fredholm", "sunada", "bass", "classical"}
    assert report.all_agree


def test_cross_validate_one_sided_flags():
    report = cross_validate(CAT["bt2"], 6)
    assert report.flags == ("asymmetric-backtrack-set",)
    assert report.all_agree  # only oracle and fredholm ran
    assert len(report.pairs) == 1
    report = cross_validate(CAT["bt2"], 6, include_experimental=True)
    assert report.flags == ("asymmetric-backtrack-set", "experimental:partial")
    assert not report.all_agree
    assert PairVerdict("fredholm", "partial", 4.5, False) in report.pairs


def test_point_value_matches_series():
    # reciprocal zeta is a polynomial of degree <= the oriented edge count,
    # so a series of that order evaluates it exactly
    for name in ("k3", "wt3", "k4"):
        g = CAT[name]
        order = 2 * len(g.edges)
        series = zeta_sunada(g, order).series
        Ws = [g.weight[(u, v)] * g.weight[(v, u)] for u, v in g.edges]
        radius = 1.0 / np.sqrt(max(Ws))
        for u0 in (0.3 * radius, -0.45 * radius, (0.2 + 0.1j) * radius):
            assert abs(sunada_point_value(g, u0) - series(u0)) < 1e-6


def test_point_value_rejects_singular_disc_boundary():
    with pytest.raises(ValueError):
        sunada_point_value(CAT["k3"], 1.0)
    with pytest.raises(ValueError):
        sunada_point_value(CAT["k3"], -1.2)
    with pytest.raises(ValueError):
        sunada_point_value(CAT["k3s"], 0.1)  # flags unsupported


def test_route_result_requires_unit_constant():
    with pytest.raises(ArithmeticError):
        RouteResult("broken", Series([0.9, 1.0]), {})


def test_high_order_determinant_refuses_instead_of_returning_noise():
    # with every weight 1.5 the spectral radius is above 1 and Newton's
    # recursion cancels on k7 at order 24; the guard refuses rather than
    # hand back noise, on the vertex series and on the bass companion alike
    k4, k7 = complete_graph(4, 1.5), complete_graph(7, 1.5)
    for route in (zeta_sunada, zeta_bass):
        with pytest.raises(RefusalError, match=r"Newton's recursion cannot certify u\^\d+"):
            route(k7, 24)
    # the exact fallbacks take integer weights only: at weight 2.5 every
    # route but fredholm refuses from u^11, lfun under the trivial system
    # and partial on a flagged K4 too
    heavy = complete_graph(4, 2.5)
    flagged = make_graph(heavy.vertices, [(u, v, 2.5, 2.5) for u, v in heavy.edges],
                         backtrack=[("v0", "v1"), ("v1", "v0")])
    for call in (lambda: zeta_sunada(heavy, 16), lambda: zeta_bass(heavy, 16),
                 lambda: lfunction(heavy, trivial_system(heavy), 16),
                 lambda: zeta_partial_formula(flagged, 16)):
        with pytest.raises(RefusalError, match=r"Newton's recursion cannot certify u\^11"):
            call()
    # k4's determinant has degree 12, where the power sums of the vertex
    # series and of the bass companion stop, so their order-24 series are
    # exact above u^12 too
    exact = [float(c) for c in exact_fredholm(transfer_matrix(k4).dense(), 24)]
    for route in (zeta_sunada, zeta_bass):
        series = route(k4, 24).series
        assert contract_ratio(series.c, exact) <= 1 and np.all(series.c[13:] == 0)
    # the unit-weight k4 series is exact at the same order
    unit = CAT["k4"]
    assert max_deviation(zeta_sunada(unit, 24).series, zeta_fredholm(unit, 24).series) <= 1e-12


def test_refusals_state_the_contract_rule_not_its_value():
    # sunada and bass on K5(2.5) both refuse at u^19, with their own error
    # estimates; the contract they fail is one rule, printed as such rather
    # than evaluated at the coefficient neither could certify
    k5 = complete_graph(5, 2.5)
    messages = []
    for route in (zeta_sunada, zeta_bass):
        with pytest.raises(RefusalError) as refusal:
            route(k5, 20)
        messages.append(str(refusal.value))
    estimate = r"error estimate \S+ exceeds"
    assert re.sub(estimate, "", messages[0]) == re.sub(estimate, "", messages[1])
    assert messages[0] != messages[1]
    assert all(m.startswith("Newton's recursion cannot certify u^19: error estimate ")
               and m.endswith(" exceeds the contract 1e-09 * (1 + max(1, |c_19|))")
               for m in messages)


def route_calls(g):
    """The series by every route of ROUTE_BUILDERS that applies to g, and
    by lfun under the trivial system, as functions of the order."""
    calls = {name: lambda M, build=build: build(g, M).series
             for name, build in ROUTE_BUILDERS.items() if why_not(name, g) is None}
    system = trivial_system(g)
    calls["lfun"] = lambda M: lfunction(g, system, M)
    return calls


def contract_ratios(g, orders):
    """Contract ratio of each route's series (see route_calls) at each
    order against the exact reference, or None where the route refuses."""
    exact = exact_fredholm(transfer_matrix(g).dense(), max(orders))
    ratios = {}
    for name, call in route_calls(g).items():
        for M in orders:
            try:
                ratios[name, M] = contract_ratio(call(M).c, exact[: M + 1])
            except RefusalError:
                ratios[name, M] = None
    return ratios


def test_hard_determinants_are_refused_or_within_the_contract():
    # against the exact dyadic reference at the README's 1e-9: K7(1.5) bass
    # at M = 20 was 4.4 times over it from the Jacobi recursion, and with no
    # guard on the series itself unit K8 bass at M = 24 was 134 times over
    cases = [complete_graph(4, 1.5), complete_graph(6, 0.75), complete_graph(7, 1.5),
             complete_graph(7, 1.0), complete_graph(8, 1.0)]
    for g in cases:
        ratios = contract_ratios(g, (12, 16, 20, 24))
        assert {name for name, _ in ratios} >= {"fredholm", "sunada", "bass", "partial", "lfun"}
        for (name, M), ratio in ratios.items():
            assert ratio is None or ratio <= 1, (len(g.vertices), name, M, ratio)
            # at unit weights every refusal has an exact fallback
            assert ratio is not None or g.weight[g.edges[0]] != 1.0, (len(g.vertices), name, M)
        # fredholm never refuses an untwisted T, and is exact at order 24
        assert ratios["fredholm", 24] == 0, len(g.vertices)


def test_factorization_on_heavy_k4_below_order_24_is_refused_or_within_the_contract():
    # multiplying det P by the roundtrip product left sunada, and lfun
    # under the trivial system, 130 and 3.46 times over the contract at
    # M = 22 on K4(1.5) and K4(1.25); their power sums are summed instead
    for weight in (1.5, 1.25):
        g = complete_graph(4, weight)
        flagged = make_graph(g.vertices, [(u, v, weight, weight) for u, v in g.edges],
                             backtrack=[("v0", "v1"), ("v1", "v0")])
        system = trivial_system(g)
        cases = [("sunada", g, lambda M: zeta_sunada(g, M).series),
                 ("partial", flagged, lambda M: zeta_partial_formula(flagged, M).series),
                 ("lfun", g, lambda M: lfunction(g, system, M))]
        for name, h, route in cases:
            exact = exact_fredholm(transfer_matrix(h).dense(), 23)
            for M in range(16, 24):
                try:
                    series = route(M)
                except ArithmeticError:
                    continue
                assert contract_ratio(series.c, exact[: M + 1]) <= 1, (weight, name, M)


def heavy_random_graph(seed, chords=None):
    """7 to 10 vertices, a random spanning tree plus 3 to 6 chords (or the
    given number), each orientation weighted in [0.3, 1.6]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(7, 11))
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    if chords is None:
        chords = int(rng.integers(3, 7))
    pairs |= {free[int(k)] for k in rng.choice(len(free), size=chords, replace=False)}
    return make_graph([f"v{i}" for i in range(n)],
                      [(f"v{a}", f"v{b}", float(rng.uniform(0.3, 1.6)),
                        float(rng.uniform(0.3, 1.6))) for a, b in sorted(pairs)])


def test_sunada_on_heavy_random_graphs_is_refused_or_within_the_contract():
    # every route of route_calls, sunada's and lfun's Jacobi sums among them
    for seed in range(12):
        for (name, M), ratio in contract_ratios(heavy_random_graph(seed), range(20, 25)).items():
            assert ratio is None or ratio <= 1, (seed, name, M, ratio)


def test_sunada_where_newton_cancels_is_refused_or_within_the_contract():
    # survey cases where Newton's recursion itself cancels: the summed power
    # sums are right to about 1e-15 relative, but p_23 reaches 2e8 to 1.4e9
    # while no coefficient passes 400.  Unguarded, sunada was 5.2 and 16
    # times over the contract on graph 5 at M = 23 and 24 (fredholm 10), and
    # 3.2 times on graph 9 with 5 chords at both (fredholm 0.014)
    for g in (heavy_random_graph(5), heavy_random_graph(9, chords=5)):
        for (name, M), ratio in contract_ratios(g, (23, 24)).items():
            assert ratio is None or ratio <= 1, (len(g.edges), name, M, ratio)
            if name == "fredholm":
                assert ratio == 0, (len(g.edges), M)


def test_exact_fallback_is_the_exact_determinant_rounded_once(monkeypatch):
    # where the guard refuses fredholm's untwisted T, an integer-valued
    # companion or an integer vertex series, the route recomputes its series
    # in integers and Fractions.  Unguarded at M = 24, K7(1.5) was 45.6 times
    # over the contract, unit K8 14.5 times by fredholm and 134 by bass, and
    # heavy graph 5 10.4 times.  At unit weights the guard refused right
    # sunada series, and lfun under trivial systems, where a zero
    # coefficient sums terms near 1e9; fredholm's twisted T is then real
    def route(build, g):
        return transfer_matrix(g).dense(), lambda M: build(g, M).series

    def lfun(g, system, route="determinant"):
        # the twisted T of a trivial system is T kron I, real
        return (transfer_matrix(g, system).dense().real,
                lambda M: lfunction(g, system, M, route=route))

    k4, k8 = CAT["k4"], complete_graph(8, 1.0)
    cases = [(*route(build, g), (24,))
             for g, build in ((complete_graph(7, 1.5), zeta_fredholm), (k8, zeta_fredholm),
                              (k8, zeta_bass), (k8, zeta_classical),
                              (heavy_random_graph(5), zeta_fredholm))]
    for n, orders in ((5, range(19, 25)), (6, (18,)), (7, range(19, 24)), (8, (19, 20))):
        g = complete_graph(n, 1.0)
        cases += [(*route(zeta_sunada, g), orders), (*lfun(g, trivial_system(g)), orders)]
        if n in (5, 8):
            cases.append((*lfun(g, trivial_system(g), "fredholm"), orders))
    for name in ("determinant", "fredholm"):
        cases.append((*lfun(k4, trivial_system(k4, 2), name), (23, 24, 31, 40)))
    for T, call, orders in cases:
        exact = exact_fredholm(T, max(orders))
        for M in orders:
            want = np.array([float(c) for c in exact[: M + 1]], dtype=np.complex128)
            assert call(M).c.tobytes() == want.tobytes(), (len(T), M)
    # the guard refused each of them first: above the work budget they stay
    # refused
    monkeypatch.setattr(series, "EXACT_BUDGET", 0)
    for _, call, orders in cases:
        for M in orders:
            with pytest.raises(RefusalError, match="Newton's recursion cannot certify"):
                call(M)


def test_companion_routes_equal_the_jacobi_determinant_of_their_pencil(rng, monkeypatch):
    # bass and classical take det(1 - uL) of the pencil's companion L; the
    # Jacobi recursion on the same pencil must give the same series wherever
    # neither refuses, and det(1 - u0 L) = det P(u0) off the series
    seen = {}
    fredholm_det = routes.fredholm_det
    monkeypatch.setattr(routes, "fredholm_det",
                        lambda L, M, extra=None: fredholm_det(seen.setdefault("L", L), M, extra))
    # every unflagged fixture, 20 random weighted graphs for bass and their
    # unit-weight twins for classical
    fixed = [g for g in CAT.values() if not g.backtrack]
    weighted = [random_graph(rng) for _ in range(20)]
    twins = [make_graph(g.vertices, [(u, v, 1.0, 1.0) for u, v in g.edges]) for g in weighted]
    cases = [(g, "bass", variant) for g in fixed + weighted
             for variant in ("corrected", "as-printed")]
    cases += [(g, "classical", "corrected") for g in fixed + twins
              if why_not("classical", g) is None]
    compared = 0
    for g, name, variant in cases:
        head = dense_pencils(g, variant)[name]
        for M in range(1, 25):
            seen.clear()
            try:
                zeta_bass(g, M, variant) if name == "bass" else zeta_classical(g, M)
                linearized = fredholm_det(seen["L"], M)
                jacobi = MatrixSeries(head, M).det()
            except RefusalError:
                continue
            assert coeffs_agree(linearized, jacobi, tol=1e-12), (name, variant, M)
            compared += 1
        L = seen["L"].toarray()
        for u0 in (0.1, -0.23j, 0.15 + 0.2j):
            lhs = np.linalg.det(np.eye(len(L)) - u0 * L)
            rhs = np.linalg.det(head[0] + u0 * head[1] + u0**2 * head[2])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (name, variant, u0)
    assert compared >= 0.9 * 24 * len(cases)


def test_no_fixture_is_refused_up_to_order_40():
    for M in range(1, 41):
        for g in CAT.values():
            for route in ROUTE_BUILDERS.values():
                try:
                    route(g, M)
                except ValueError:  # the route does not apply to this fixture
                    pass


def test_low_order_determinants_are_accepted():
    # at orders this low no power sum is large enough for the guard to
    # refuse, and every route gives fredholm's series
    for M in range(1, 6):
        k4 = CAT["k4"]
        assert max_deviation(zeta_classical(k4, M).series, zeta_fredholm(k4, M).series) < 1e-12
        for g in CAT.values():
            if not g.backtrack:
                for route in (zeta_sunada, zeta_bass):
                    assert max_deviation(route(g, M).series, zeta_fredholm(g, M).series) < 1e-12


def test_bass_above_minor_dimension_matches_fredholm(rng):
    # block dimension V + 2E >= 100, companion dimension 200 and more
    graphs = [random_graph(rng, max_vertices=60, extra_edges=15) for _ in range(12)]
    big = [g for g in graphs if len(g.vertices) >= 40][:3]
    assert big
    for g in big:
        dev = max_deviation(zeta_bass(g, 12).series, zeta_fredholm(g, 12).series)
        assert dev <= 1e-12


def test_spectrum_poles_frozen():
    assert spectrum_poles(CAT["edge"]) == []
    k3_poles = spectrum_poles(CAT["k3"])
    assert [m for _, m in k3_poles] == [2, 2, 2]
    assert sorted(round(abs(p), 9) for p, _ in k3_poles) == [1.0, 1.0, 1.0]
    assert any(abs(p - 1.0) < 1e-9 for p, _ in k3_poles)
    bt1_poles = spectrum_poles(CAT["bt1"])
    assert len(bt1_poles) == 2
    assert bt1_poles[0][0] == pytest.approx(1 / np.sqrt(6))
    assert bt1_poles[1][0] == pytest.approx(-1 / np.sqrt(6))
    assert [(p.imag, m) for p, m in bt1_poles] == [(0.0, 1), (0.0, 1)]


def test_spectrum_poles_cluster_across_the_negative_axis(rng):
    # the unit K_n has the pole -1 with multiplicity |E| - |V|, from the
    # factor (1 - u^2)^(|E| - |V|); np.angle puts its members at +pi and -pi,
    # both ends of the unit-modulus group, and K8 printed it as 19 and 1,
    # K10 as 34 and 1
    for n, mult in ((8, 20), (10, 35)):
        poles = spectrum_poles(complete_graph(n, 1.0))
        assert [m for p, m in poles if abs(p + 1) <= 1e-8] == [mult], n
    # no two printed poles lie within the clustering tolerance of each other
    graphs = [*CAT.values(), *(complete_graph(n, w) for n in range(4, 9) for w in (1.0, 1.5)),
              *(random_graph(rng, max_vertices=9, extra_edges=4) for _ in range(20))]
    for g in graphs:
        poles = [p for p, _ in spectrum_poles(g)]
        for i, p in enumerate(poles):
            assert all(abs(p - q) > 1e-8 * max(abs(p), abs(q)) for q in poles[:i])


def test_spectrum_poles_are_the_roots_of_the_ihara_formula():
    # a (q+1)-regular graph has Z(u)^-1 = (1 - u^2)^(|E|-|V|) prod_lambda
    # (1 - lambda u + q u^2) over the adjacency eigenvalues (Ihara).  On the
    # prism q = 2: lambda = 3 adds a root at 1 (and 1/2), and lambda = -3 of
    # the bipartite prism one at -1; each |lambda| < 2 sqrt(2) gives two poles
    # of modulus 1/sqrt(2), one group of more than 150
    for n in (50, 51):
        g = prism_graph(n)
        lam = np.linalg.eigvalsh(zigzag_matrix(g, 1).dense())
        roots = [1.0, -1.0] * (len(g.edges) - len(g.vertices))
        roots += [r for x in lam for r in np.roots([2.0, -x, 1.0])]
        poles = spectrum_poles(g)
        assert sum(m for _, m in poles) == len(roots) == 2 * len(g.edges)
        for p, m in poles:
            assert sum(abs(p - r) <= 1e-6 * abs(p) for r in roots) == m, (n, p, m)
        inner = sum(abs(abs(r) - 2**-0.5) <= 1e-6 for r in roots)
        assert sum(m for p, m in poles if abs(abs(p) - 2**-0.5) <= 1e-6) == inner > 150
        assert [m for p, m in poles if abs(p - 1) <= 1e-6] == [n + 1]
        assert [m for p, m in poles if abs(p + 1) <= 1e-6] == [n + 1 - n % 2]


def test_spectrum_poles_in_place_equal_the_eigvals_fallback(rng, monkeypatch):
    """dgeev runs in place on the core's T where numpy's OpenBLAS is found,
    and np.linalg.eigvals on the same array where it is not: both give the
    same poles, the empty core's [] and bt1's real negative pole included."""
    big = random_graph(rng, n_vertices=260, extra_edges=200)
    assert 2 * len(big.core.edges) >= 700
    graphs = [*CAT.values(), complete_graph(4, 1.5), complete_graph(7, 1.5), big]
    calls = []
    numpy_eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or numpy_eigvals(a))
    in_place = [spectrum_poles(g) for g in graphs]
    assert calls == [] or blas._dgeev() is None
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    calls.clear()
    assert [spectrum_poles(g) for g in graphs] == in_place
    assert len(calls) == len(graphs)
    assert spectrum_poles(CAT["edge"]) == []
    assert in_place[list(CAT).index("edge")] == []


def test_spectrum_poles_scale_with_the_weights():
    """Scaling every weight by c scales every pole by 1/c and keeps the
    multiplicities, whatever the size of c."""
    for name in ("wt3", "k3"):
        g = CAT[name]
        base = spectrum_poles(g)
        for c in (1e-13, 1e-11, 1e9, 1e12):
            scaled = make_graph(g.vertices, [(u, v, c * g.weight[(u, v)], c * g.weight[(v, u)])
                                             for u, v in g.edges])
            poles = spectrum_poles(scaled)
            assert [m for _, m in poles] == [m for _, m in base], (name, c)
            for (p, _), (q, _) in zip(poles, base):
                assert abs(p * c - q) <= 1e-12 * abs(q), (name, c)


def test_spectrum_pole_cap():
    n = 1100
    verts = [f"v{i:04d}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n], 1.0, 1.0) for i in range(n)]
    with pytest.raises(ResourceCapError):
        spectrum_poles(make_graph(verts, edges))
