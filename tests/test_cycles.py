import math

import numpy as np
import pytest

from conftest import (complete_graph, exact_euler_product, exact_fredholm, random_graph,
                      random_unitary)
from zetagraph import cycles, fixtures
from zetagraph.cli import main
from zetagraph.cycles import (
    CycleRecord,
    _closed_walks,
    closed_sequences,
    compute_Nm,
    edge_sequence_label,
    euler_product,
    holonomy,
    prime_cycles,
    tail_mode_report,
)
from zetagraph.errors import ResourceCapError
from zetagraph.graph import canonical_order, make_graph, reverse, serialize_graph
from zetagraph.operators import reduced_path_matrix_direct, transfer_matrix
from zetagraph.series import Series, _fmt, fredholm_det, max_deviation
from zetagraph.twist import make_local_system

CAT = fixtures.catalogue()


def test_triangle_sequences_and_classes():
    seqs = closed_sequences(CAT["k3"], 6)
    assert sorted(seqs) == [1, 2, 3, 4, 5, 6]
    assert [len(seqs[n]) for n in range(1, 7)] == [0, 0, 6, 0, 0, 6]
    assert all(w == 1.0 for n in seqs for _, w in seqs[n])
    recs = prime_cycles(CAT["k3"], 6)
    shape = [(r.length, r.weight, r.primitive_length, r.is_prime) for r in recs]
    assert shape == [(3, 1.0, 3, True)] * 2 + [(6, 1.0, 3, False)] * 2
    assert np.allclose(euler_product(CAT["k3"], 6).coefficients().real,
                       [1, 0, 0, -2, 0, 0, 1])


def test_flagged_pair_two_cycle():
    seqs = closed_sequences(CAT["bt1"], 4)
    assert len(seqs[2]) == 2 and sum(w for _, w in seqs[2]) == 12.0
    recs = prime_cycles(CAT["bt1"], 4)
    assert [(r.length, r.weight, r.is_prime) for r in recs] == [
        (2, 6.0, True),
        (4, 36.0, False),
    ]
    assert edge_sequence_label(recs[0].edges) == "a>b|b>a"
    assert np.allclose(euler_product(CAT["bt1"], 4).coefficients().real,
                       [1, 0, -6, 0, 0])


def test_one_sided_flag_admits_nothing():
    """With only a->b reversal-permitted, the seam step always violates the
    rule, so no closed edge sequence of any length is admissible."""
    seqs = closed_sequences(CAT["bt2"], 8)
    assert all(seqs[n] == [] for n in seqs)
    assert prime_cycles(CAT["bt2"], 8) == []
    report = tail_mode_report(CAT["bt2"], 6)
    assert report["strict"] == [0.0] * 6
    assert report["corrected"] == [0.0] * 6
    # the vertex-path diagnostic with the as-printed tail admits a, b, a
    assert report["printed"] == [0.0, 6.0, 0.0, 0.0, 0.0, 0.0]


def test_tree_has_no_cycles():
    assert prime_cycles(CAT["p3"], 10) == []
    assert np.allclose(euler_product(CAT["p3"], 10).coefficients().real,
                       [1] + [0] * 10)


def test_weighted_triangle_totals():
    N = compute_Nm(CAT["wt3"], 6)
    assert N[2] == pytest.approx(0.2115)
    assert N[5] == pytest.approx(0.01191075)
    assert N[0] == N[1] == N[3] == N[4] == 0.0
    assert np.allclose(euler_product(CAT["wt3"], 6).coefficients().real,
                       [1, 0, 0, -0.0705, 0, 0, 0.0005])


def test_totals_match_transfer_traces_on_fixtures():
    for name, g in CAT.items():
        L = 10 if name != "k4" else 8
        N = compute_Nm(g, L)
        T = transfer_matrix(g).dense()
        power = np.eye(T.shape[0])
        for m in range(1, L + 1):
            power = power @ T
            assert N[m - 1] == pytest.approx(np.trace(power), abs=1e-9), (name, m)


def test_totals_match_transfer_traces_random(rng):
    for mode in ("none", "symmetric", "any"):
        for _ in range(4):
            g = random_graph(rng, max_vertices=5, backtrack=mode)
            N = compute_Nm(g, 8)
            T = transfer_matrix(g).dense()
            power = np.eye(T.shape[0])
            for m in range(1, 9):
                power = power @ T
                assert N[m - 1] == pytest.approx(np.trace(power), abs=1e-9)


def test_corrected_mode_agrees_with_strict(rng):
    for mode in ("none", "symmetric", "any"):
        for _ in range(3):
            g = random_graph(rng, max_vertices=4, backtrack=mode)
            report = tail_mode_report(g, 6)
            assert np.allclose(report["strict"], report["corrected"], atol=1e-9)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        compute_Nm(CAT["k3"], 4, mode="lenient")


def test_untwisted_oracle_is_the_exact_determinant_rounded_once():
    """Every coefficient is exact and rounded once, above dim T too, where
    the float product left noise on heavy graphs (K4 has dim T = 12)."""
    cases = [(g, range(1, 21)) for g in CAT.values()]
    cases += [(complete_graph(4, w), (18, 20)) for w in (1.25, 1.5, 2.5)]
    for g, orders in cases:
        exact = exact_fredholm(transfer_matrix(g).dense(), max(orders))
        for M in orders:
            want = np.array([float(c) for c in exact[: M + 1]], dtype=np.complex128)
            assert euler_product(g, M).c.tobytes() == want.tobytes(), (len(g.edges), M)


def test_euler_product_matches_fredholm(rng):
    for mode in ("none", "symmetric", "any"):
        for _ in range(5):
            g = random_graph(rng, max_vertices=5, backtrack=mode)
            lhs = euler_product(g, 8)
            rhs = fredholm_det(transfer_matrix(g).dense(), 8)
            assert max_deviation(lhs, rhs) < 1e-9


def test_records_are_canonical_and_consistent(rng):
    for mode in ("none", "symmetric", "any"):
        for _ in range(4):
            g = random_graph(rng, max_vertices=5, backtrack=mode)
            _, edges = canonical_order(g)
            key = {e: i for i, e in enumerate(edges)}
            recs = prime_cycles(g, 10)
            for rec in recs:
                rots = [rec.edges[i:] + rec.edges[:i] for i in range(rec.length)]
                assert rec.edges == min(rots, key=lambda r: tuple(key[e] for e in r))
                # the weight is the in-order product along the record's own edges
                assert rec.weight == math.prod(g.weight[e] for e in rec.edges)
                period = len({tuple(r) for r in rots})
                assert rec.primitive_length == period
                assert rec.is_prime == (period == rec.length)
                assert rec.length <= 10
            # determinism: a second enumeration yields the identical list
            assert recs == prime_cycles(g, 10)


def test_no_short_cycles_without_flags(rng):
    for _ in range(5):
        g = random_graph(rng, max_vertices=6, backtrack="none")
        N = compute_Nm(g, 2)
        assert N == [0.0, 0.0]


def test_length_caps():
    k3 = CAT["k3"]
    for enumerate_ in (closed_sequences, compute_Nm, prime_cycles, euler_product,
                       tail_mode_report, reduced_path_matrix_direct):
        with pytest.raises(ResourceCapError):
            enumerate_(k3, 21)
    with pytest.raises(ResourceCapError):
        compute_Nm(k3, 21, mode="printed")
    # one cap of 20 everywhere: lengths 15..20 are accepted
    seqs = closed_sequences(k3, 15)
    assert [len(seqs[n]) for n in (3, 14, 15)] == [6, 0, 6]
    # bounds below 1 enumerate nothing instead of running without end
    assert closed_sequences(k3, 0) == {} and prime_cycles(k3, 0) == []


def test_class_budget_boundary(monkeypatch):
    """_closed_walks emits exactly CLASS_BUDGET classes, or sequences
    outside necklace mode, and refuses one more."""
    g = complete_graph(4, 1.5)
    counts = {necklaces: sum(map(len, _closed_walks(g, 10, necklaces)))
              for necklaces in (True, False)}
    for necklaces, count in counts.items():
        monkeypatch.setattr(cycles, "CLASS_BUDGET", count)
        assert sum(map(len, _closed_walks(g, 10, necklaces))) == count
        monkeypatch.setattr(cycles, "CLASS_BUDGET", count - 1)
        with pytest.raises(ResourceCapError, match=f"more than {count - 1} cycle classes"):
            _closed_walks(g, 10, necklaces)


def test_pruned_enumeration_meets_every_class(rng):
    """prime_cycles roots each class at its least edge; the canonical
    rotations of all rooted sequences must give exactly its classes, each
    listed once."""
    graphs = list(CAT.values())
    graphs += [random_graph(rng, max_vertices=5, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(4)]
    for g in graphs:
        seqs = closed_sequences(g, 8)
        rotations = {min(seq[i:] + seq[:i] for i in range(len(seq)))
                     for n in seqs for seq, _ in seqs[n]}
        recs = prime_cycles(g, 8)
        assert rotations == {r.edges for r in recs}
        # each class exactly once, sorted by (length, edges)
        assert len(recs) == len(rotations)
        assert [(r.length, r.edges) for r in recs] == sorted((r.length, r.edges) for r in recs)


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_class_counts_match_burnside(rng):
    """The number of rotation classes of length n is, by Burnside's lemma,
    (1/n) sum_{d | n} phi(d) tr(T0^(n/d)), where T0 is the 0/1 pattern of
    the transfer matrix: a rotation by k fixes exactly the closed sequences
    of period gcd(n, k).  The necklace walk's group sizes equal it, counted
    in Python integers, at every length bound 1..12 on the fixtures and on
    random graphs with no flags, symmetric flags and one-sided flags."""
    graphs = list(CAT.values()) + [_pendant_chains()]
    graphs += [random_graph(rng, max_vertices=6, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(4)]
    for g in graphs:
        T0 = (transfer_matrix(g).dense() != 0).astype(int).astype(object)
        traces, power = [0], np.identity(T0.shape[0], dtype=int).astype(object)
        for _ in range(12):
            power = power.dot(T0)
            traces.append(int(np.trace(power)))
        counts = [0] + [sum(_totient(d) * traces[n // d] for d in range(1, n + 1) if n % d == 0) // n
                        for n in range(1, 13)]
        for L in range(1, 13):
            assert [len(group) for group in _closed_walks(g, L, necklaces=True)] == counts[:L + 1]


def _reference_walks(g, L):
    """Every admissible closed edge sequence of length 1..L with its in-order
    weight product, by the plain depth-first search that pushes every
    admissible continuation; independent of the pruned generator."""
    def step_ok(e, e2):
        return e2[0] == e[1] and (e2 != reverse(e) or e in g.backtrack)

    for start in canonical_order(g)[1]:
        stack = [(start, (start,), g.weight[start])]
        while stack:
            e, seq, wgt = stack.pop()
            if step_ok(e, start):
                yield seq, wgt
            if len(seq) < L:
                for e2 in g.out_edges[e[1]]:
                    if step_ok(e, e2):
                        stack.append((e2, seq + (e2,), wgt * g.weight[e2]))


def _reference_least_period(seq):
    """The smallest period of seq if no rotation of it is smaller, else 0."""
    for r in range(1, len(seq) + 1):
        rot = seq[r:] + seq[:r]
        if rot < seq:
            return 0
        if rot == seq:
            return r


def _reference_prime_cycles(g, L, system=None):
    records = []
    for seq, wgt in _reference_walks(g, L):
        period = _reference_least_period(seq)
        if period:
            records.append(CycleRecord(seq, len(seq), float(wgt), period, period == len(seq),
                                       holonomy(system, seq) if system else None))
    return sorted(records, key=lambda r: (r.length, r.edges))


def _reference_euler_product(g, M, system=None):
    """The Euler product over the primes of _reference_prime_cycles: exact
    and rounded once without a system, by the complex coefficient update
    with one."""
    primes = [rec for rec in _reference_prime_cycles(g, M, system) if rec.is_prime]
    if system is None:
        return exact_euler_product(g, [rec.edges for rec in primes], M)
    return _charpoly_product(primes, M, system.dim)


def _charpoly_product(primes, M, dim):
    """The twisted Euler product over the prime records in their order:
    each factor det(1 - w u^l H) = sum_k a_k (w u^l)^k updates one complex
    array in place, c_n += a_k w^k c_{n - kl} from the values before it,
    term by term in k."""
    c = Series.one(M).coefficients()
    for rec in primes:
        a, n = fredholm_det(rec.holonomy, dim).c, rec.length
        old = c.copy()
        for k in range(1, min(dim, M // n) + 1):
            c[k * n :] += a[k] * rec.weight**k * old[: M + 1 - k * n]
    return c


def _pendant_chains():
    """A triangle with two pendant chains of five edges.  Walks turn back
    only where a flag lets them: on p1-p2 (both ways) and q0->q1.  Chain
    excursions of 6 and 4 edges close with the triangle at lengths 9 and 7,
    the flagged pair shuttles at even lengths, and every walk further down
    a chain is a dead branch."""
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    for root, name in (("a", "p"), ("b", "q")):
        chain = [root] + [f"{name}{i}" for i in range(5)]
        edges += list(zip(chain, chain[1:]))
    vertices = sorted({x for e in edges for x in e})
    weighted = [(u, v, 0.3 + 0.01 * i, 0.7 - 0.01 * i) for i, (u, v) in enumerate(edges)]
    return make_graph(vertices, weighted, backtrack=[("p1", "p2"), ("p2", "p1"), ("q0", "q1")])


def _record_key(r):
    return r.edges, r.length, r.weight.hex(), r.primitive_length, r.is_prime


def test_enumeration_matches_unpruned_reference(rng):
    """prime_cycles, closed_sequences and euler_product equal a plain
    unpruned search with an explicit rotation test, bit for bit, at every
    length bound: the distance cut and the prenecklace rule drop no walk
    that could still close and keep no rotation twice.  The walk's weights
    are the in-order products of the float edge weights by default, bit for
    bit, and of the integer weights it is given exactly; prime_cycles builds
    CycleRecords with float weights, with and without a system."""
    graphs = list(CAT.values()) + [_pendant_chains()]
    graphs += [random_graph(rng, max_vertices=6, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(4)]
    for g in graphs:
        system = make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges})
        walks = list(_reference_walks(g, 10))
        reference = _reference_prime_cycles(g, 10, system)
        edges = canonical_order(g)[1]
        in_order = {seq: wgt.hex() for seq, wgt in walks}
        # integers past 2^53, whose float products would round
        W = [int(x) << 40 for x in rng.integers(1, 2**20, size=len(edges))]
        for necklaces in (True, False):
            floats = _closed_walks(g, 10, necklaces)
            exact = _closed_walks(g, 10, necklaces, weights=W)
            assert [[(s, p) for s, _, p in group] for group in exact] == \
                [[(s, p) for s, _, p in group] for group in floats]
            assert all(w == math.prod(W[i] for i in s) for group in exact for s, w, _ in group)
            assert all(w.hex() == in_order[tuple(edges[i] for i in s)]
                       for group in floats for s, w, _ in group)
        for L in range(11):
            for sys_ in (None, system):
                recs = prime_cycles(g, L, system=sys_)
                assert all(type(r) is CycleRecord and type(r.weight) is float for r in recs)
                assert all((r.holonomy is None) == (sys_ is None) for r in recs)
            expected = [r for r in reference if r.length <= L]
            assert [_record_key(r) for r in recs] == [_record_key(r) for r in expected]
            assert all(np.array_equal(r.holonomy, x.holonomy) for r, x in zip(recs, expected))
            seqs = {n: sorted((s, w) for s, w in walks if len(s) == n) for n in range(1, L + 1)}
            assert closed_sequences(g, L) == seqs
        for L in (0, 4, 10):
            for sys_ in (None, system):
                assert (euler_product(g, L, system=sys_).c.tobytes()
                        == _reference_euler_product(g, L, sys_).tobytes())


def _sorted_classes(g, L):
    """The necklaces of _closed_walks as (length, index sequence, weight,
    period), sorted explicitly."""
    groups = _closed_walks(g, L, necklaces=True)
    return sorted((len(seq), seq, wgt, p) for group in groups for seq, wgt, p in group)


def _sorted_records(classes, edges, system):
    records = []
    for n, seq, wgt, period in classes:
        cycle = tuple(edges[i] for i in seq)
        records.append(CycleRecord(cycle, n, float(wgt), period, period == n,
                                   holonomy(system, cycle) if system else None))
    return records


def _sorted_euler_product(g, records, M, system):
    """euler_product in the order of the sorted records: exact and rounded
    once without a system, each factor from the general
    characteristic-polynomial form with one."""
    primes = [rec for rec in records if rec.is_prime]
    if system is None:
        return exact_euler_product(g, [rec.edges for rec in primes], M)
    return _charpoly_product(primes, M, system.dim)


def _primes_csv(records):
    """The primes command's rows, formatted one record at a time."""
    lines = ["length,weight,primitive_length,is_prime,edge_sequence"]
    for rec in records:
        lines.append(f"{rec.length},{_fmt(rec.weight)},{rec.primitive_length},"
                     f"{'true' if rec.is_prime else 'false'},{edge_sequence_label(rec.edges)}")
    return "\n".join(lines) + "\n"


def test_walk_order_replaces_sorts(rng, tmp_path, capsys):
    """The walk fills each length's group in increasing order, so no sort is
    needed: every group, necklaces or not, is sorted and holds only
    sequences of its own length; the necklace groups concatenate to the
    explicitly sorted classes and the others map to closed_sequences, whose
    weights compute_Nm sums in order; and prime_cycles, euler_product and
    the primes command's output are byte-identical to versions built from
    explicitly sorted classes, at every length bound 1..12, on the fixtures
    and on random flagged graphs, plain and twisted."""
    graphs = list(CAT.values()) + [_pendant_chains()]
    graphs += [random_graph(rng, max_vertices=6, backtrack=mode)
               for mode in ("none", "symmetric", "any") for _ in range(4)]
    for i, g in enumerate(graphs):
        edges = canonical_order(g)[1]
        system = make_local_system(g, 2, {e: random_unitary(rng, 2) for e in g.edges})
        reference = _sorted_classes(g, 12)
        path = tmp_path / f"g{i}.json"
        path.write_text(serialize_graph(g) + "\n")
        for L in range(1, 13):
            classes = [c for c in reference if c[0] <= L]
            necklaces = _closed_walks(g, L, necklaces=True)
            walks = _closed_walks(g, L, necklaces=False)
            for groups in (necklaces, walks):
                assert len(groups) == L + 1
                assert all(group == sorted(group) for group in groups)
                assert all(len(seq) == n for n, group in enumerate(groups) for seq, _, _ in group)
            assert [(n, *c) for n, group in enumerate(necklaces) for c in group] == classes
            assert all(p == n for n, group in enumerate(walks) for _, _, p in group)
            seqs = closed_sequences(g, L)
            assert all(items == sorted(items) for items in seqs.values())
            assert seqs == {n: [(tuple(edges[i] for i in seq), wgt) for seq, wgt, _ in walks[n]]
                            for n in range(1, L + 1)}
            # compute_Nm is the in-order sum over closed_sequences, bit for bit
            totals = [float(sum(w for _, w in seqs[n])) for n in range(1, L + 1)]
            assert [x.hex() for x in compute_Nm(g, L, "strict")] == [x.hex() for x in totals]
            for sys_ in (None, system):
                records = _sorted_records(classes, edges, sys_)
                got = prime_cycles(g, L, system=sys_)
                assert [r[:5] for r in got] == [r[:5] for r in records]
                assert [r.weight.hex() for r in got] == [r.weight.hex() for r in records]
                if sys_ is not None:
                    assert all(a.holonomy.tobytes() == b.holonomy.tobytes()
                               for a, b in zip(got, records))
                assert (euler_product(g, L, system=sys_).c.tobytes()
                        == _sorted_euler_product(g, records, L, sys_).tobytes())
            assert main(["primes", str(path), "--max-len", str(L)]) == 0
            assert capsys.readouterr().out == _primes_csv(_sorted_records(classes, edges, None))
