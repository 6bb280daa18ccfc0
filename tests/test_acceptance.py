"""Acceptance gate: one test per headline criterion, each printing a single
PASS/FAIL line with its measured scope.  Corpora are seeded, so reruns are
reproducible; every tolerance below is the contractual one."""

import time

import numpy as np
import pytest

from conftest import random_graph, random_unitary
from zetagraph import fixtures
from zetagraph.cycles import compute_Nm, euler_product, tail_mode_report
from zetagraph.families import make_source, convergence_study, truncate_source
from zetagraph.graph import make_graph
from zetagraph.operators import (
    anchored_path_matrix,
    incidence_maps,
    reduced_path_matrix_direct,
    reduced_path_matrices,
    transfer_matrix,
    zigzag_matrix,
)
from zetagraph.routes import (
    cross_validate,
    zeta_bass,
    zeta_classical,
    zeta_fredholm,
    zeta_partial_formula,
    zeta_sunada,
)
from zetagraph.series import Series, coeffs_agree, fredholm_det, max_deviation
from zetagraph.twist import gauge_transform, lfunction, make_local_system, trivial_system

CAT = fixtures.catalogue()


def report(number, ok, detail, started):
    elapsed = time.monotonic() - started
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line


def corpus(seed, count, backtrack, max_vertices=7):
    rng = np.random.default_rng(seed)
    return [random_graph(rng, max_vertices=max_vertices, backtrack=backtrack)
            for _ in range(count)]


def test_criterion_1_oracle_equals_fredholm():
    started = time.monotonic()
    graphs = [CAT["k3"], CAT["wt3"], CAT["bt1"]] + corpus(101, 200, "any")
    worst = 0.0
    for g in graphs:
        a = euler_product(g, 12)
        b = zeta_fredholm(g, 12).series
        worst = max(worst, max_deviation(a, b))
        if not coeffs_agree(a, b, tol=1e-9):
            report(1, False, f"euler product deviates from det(1-uT) by {worst:.3g}", started)
    report(1, True,
           f"euler product = det(1-uT) to order 12 on 3 fixtures + 200 random "
           f"flagged graphs, worst dev {worst:.2e} (tol 1e-9)", started)


def test_criterion_2_four_routes_agree():
    started = time.monotonic()
    k3 = zeta_fredholm(CAT["k3"], 6).series.coefficients().real
    exact = np.abs(k3 - np.array([1, 0, 0, -2, 0, 0, 1])).max()
    ok = exact < 1e-9
    for g in corpus(102, 200, "none"):
        rep = cross_validate(g, 12)
        names = {p.route_a for p in rep.pairs} | {p.route_b for p in rep.pairs}
        if not rep.all_agree or not {"oracle", "fredholm", "sunada", "bass"} <= names:
            ok = False
            break
    report(2, ok,
           "oracle/fredholm/sunada/bass pairwise agreement on 200 unflagged "
           f"graphs at order 12 (tol 1e-9); triangle series exact to {exact:.1e}",
           started)


def test_criterion_3_unit_weight_specialization():
    started = time.monotonic()
    k3, k4, p3 = CAT["k3"], CAT["k4"], CAT["p3"]
    worst = 0.0
    for g in (k3, k4, p3):
        do = zeta_classical(g, 12).series
        ds = zeta_sunada(g, 12).series
        for u in (0.05, 0.1):
            worst = max(worst, abs(do(u) - ds(u)))
    tree = np.abs(zeta_classical(p3, 12).series.coefficients()
                  - Series.one(12).coefficients()).max()
    ok = worst < 1e-9 and tree < 1e-12
    report(3, ok,
           f"classical route = factorization route at u in {{0.05, 0.1}} on "
           f"K3/K4/P3, worst dev {worst:.2e} (tol 1e-9); tree zeta constant 1",
           started)


def test_criterion_4_lemma_suite():
    started = time.monotonic()
    flagged = corpus(104, 25, "none", max_vertices=5) + corpus(105, 25, "any", max_vertices=5)
    plain = corpus(106, 50, "none", max_vertices=5)
    inversion = factorization = traces = trace_id = flipdet = 0.0
    for g in flagged:
        B = [zigzag_matrix(g, j).dense() for j in range(11)]
        A = [reduced_path_matrix_direct(g, m).dense() for m in range(9)]
        for m in range(1, 9):
            acc = sum((-1) ** j * A[m - j] @ B[j] for j in range(m + 1))
            inversion = max(inversion, np.abs(acc).max())
        N = compute_Nm(g, 10)
        T = transfer_matrix(g).dense()
        power = np.eye(T.shape[0])
        for m in range(1, 11):
            power = power @ T
            traces = max(traces, abs(N[m - 1] - np.trace(power)))
        _, _, flip = incidence_maps(g)
        lhs = fredholm_det(flip.dense(), 12)
        rhs = Series.one(12)
        for u, v in g.edges:
            if (u, v) in g.backtrack or (v, u) in g.backtrack:
                continue
            c = np.zeros(13, dtype=complex)
            c[0], c[2] = 1.0, -g.weight[(u, v)] * g.weight[(v, u)]
            rhs = rhs * Series(c)
        flipdet = max(flipdet, max_deviation(lhs, rhs))
    for g in plain:
        spread, endpoint, flip = incidence_maps(g)
        power = np.eye(len(spread.rows))
        for n in range(1, 11):
            prod = endpoint.dense() @ power @ spread.dense()
            factorization = max(factorization,
                                np.abs(zigzag_matrix(g, n).dense() - prod).max())
            power = flip.dense() @ power
        Arec = reduced_path_matrices(g, 12)
        B = [zigzag_matrix(g, j).dense() for j in range(7)]
        for m in range(1, 7):
            for n in range(1, 4):
                rhs = sum((-1) ** j * np.trace(Arec[m + j].dense() @ B[2 * n - j])
                          for j in range(2 * n + 1))
                lhs = anchored_path_matrix(g, m, n).trace()
                trace_id = max(trace_id, abs(lhs - rhs))
    ok = (inversion < 1e-9 and factorization < 1e-12 and traces < 1e-9
          and trace_id < 1e-9 and flipdet < 1e-9)
    report(4, ok,
           f"path-sum inversion {inversion:.1e} (tol 1e-9), shuttle factorization "
           f"{factorization:.1e} (tol 1e-12), N_m vs traces {traces:.1e} (tol 1e-9), "
           f"anchored trace identity {trace_id:.1e} (tol 1e-9), flip determinant "
           f"{flipdet:.1e} (tol 1e-9), 50 graphs each", started)


def test_criterion_5_symmetric_flag_sets():
    started = time.monotonic()
    bt1 = zeta_partial_formula(CAT["bt1"], 4).series.coefficients().real
    k3s = zeta_partial_formula(CAT["k3s"], 6).series.coefficients().real
    frozen = (np.abs(bt1 - [1, 0, -6, 0, 0]).max() < 1e-9
              and np.abs(k3s - [1, 0, -1, -2, 0, 0, 1]).max() < 1e-9)
    worst, alpha_ok = 0.0, True
    for g in corpus(107, 50, "symmetric", max_vertices=6):
        res = zeta_partial_formula(g, 10)
        alpha_ok = alpha_ok and res.metadata["alpha"] == 0.0
        for other in (euler_product(g, 10), zeta_fredholm(g, 10).series):
            worst = max(worst, max_deviation(res.series, other))
    ok = frozen and alpha_ok and worst < 1e-9
    report(5, ok,
           "oracle/fredholm/partial agree on the two-cycle and flagged-triangle "
           f"fixtures and 50 random symmetric flag sets, worst dev {worst:.2e} "
           "(tol 1e-9), correction constant exactly 0", started)


def test_criterion_6_errata_regressions():
    started = time.monotonic()
    unit = make_graph(["a", "b"], [("a", "b", 1.0, 1.0)])
    printed = zeta_bass(unit, 6, variant="as-printed").series.coefficients().real
    corrected = zeta_bass(unit, 6).series.coefficients().real
    bass_ok = (np.abs(printed - [1, 0, 0, -2, 0, 0, 0]).max() < 1e-12
               and np.abs(corrected - [1, 0, 0, 0, 0, 0, 0]).max() < 1e-12)
    bt2 = CAT["bt2"]
    fred = zeta_fredholm(bt2, 6).series.coefficients().real
    modes = tail_mode_report(bt2, 6)
    expc = np.zeros(7, dtype=complex)
    expc[2] = -3.0
    partial_dev = max_deviation(zeta_partial_formula(bt2, 6).series, Series(expc).exp())
    from zetagraph.cli import main as cli_main
    import json, tempfile, os, contextlib, io

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bt2.json")
        from zetagraph.graph import serialize_graph

        with open(path, "w") as fh:
            fh.write(serialize_graph(bt2))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exit_code = cli_main(["check", path, "--order", "6", "--experimental"])
    ok = (bass_ok
          and np.abs(fred - [1, 0, 0, 0, 0, 0, 0]).max() < 1e-12
          and modes["strict"] == [0.0] * 6
          and modes["printed"][1] == 6.0
          and partial_dev < 1e-12
          and exit_code == 2)
    report(6, ok,
           "as-printed vs corrected block determinants pinned on the unit edge; "
           "one-sided flag pair: det(1-uT)=1, strict counts 0, literal tail rule "
           "counts 6 at length 2, product formula = exp(-3u^2), "
           f"check --experimental exits {exit_code}", started)


def test_criterion_7_local_systems():
    started = time.monotonic()
    trivial_dev = 0.0
    for g in CAT.values():
        series = lfunction(g, trivial_system(g), 8, route="fredholm")
        trivial_dev = max(trivial_dev, max_deviation(series, zeta_fredholm(g, 8).series))
    sign = make_local_system(CAT["k3"], 1, {("x", "y"): [[-1.0]]})
    sign_coeffs = lfunction(CAT["k3"], sign, 6).coefficients().real
    sign_ok = np.abs(sign_coeffs - [1, 0, 0, 2, 0, 0, 1]).max() < 1e-12
    rng = np.random.default_rng(108)
    route_dev = gauge_dev = 0.0
    for _ in range(20):
        g = random_graph(rng, max_vertices=5)
        system = make_local_system(g, 2, {(u, v): random_unitary(rng, 2) for u, v in g.edges})
        oracle = lfunction(g, system, 10, route="oracle")
        det = lfunction(g, system, 10, route="determinant")
        fred = lfunction(g, system, 10, route="fredholm")
        route_dev = max(route_dev, max_deviation(oracle, fred), max_deviation(det, fred))
        moved = gauge_transform(g, system, {x: random_unitary(rng, 2) for x in g.vertices})
        gauge_dev = max(gauge_dev, max_deviation(
            lfunction(g, moved, 10, route="fredholm"), fred))
    ok = trivial_dev < 1e-12 and sign_ok and route_dev < 1e-9 and gauge_dev < 1e-9
    report(7, ok,
           f"trivial system reproduces zeta on all fixtures ({trivial_dev:.1e}, tol "
           "1e-12); sign twist gives (1+u^3)^2; 20 random 2-dim systems: three "
           f"routes within {route_dev:.2e}, gauge moves within {gauge_dev:.2e} "
           "(tol 1e-9)", started)


def test_criterion_8_truncated_family_convergence():
    started = time.monotonic()
    src = make_source("triangle-chain", 0.5)
    rows = convergence_study(src, 8, 4)
    d3 = {k: delta for k, n, delta in rows if n == 3}
    ratios = [d3[k] / d3[k - 1] for k in range(2, 8)]
    ratio_ok = all(0.8 * 0.125 <= r <= 1.2 * 0.125 for r in ratios)
    g, tail = truncate_source(src, 1.0)
    trunc_ok = len(g.vertices) == 13 and abs(tail - 1.0) <= 1e-9
    report(8, ratio_ok and trunc_ok,
           "triangle-chain(0.5) u^3 coefficient deltas decay at ratio "
           f"{min(ratios):.4f}..{max(ratios):.4f} (target 0.125 +-20%) over K=0..8; "
           f"epsilon=1.0 truncates to 13 vertices with tail weight {tail!r}", started)
