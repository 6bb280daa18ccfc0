"""Shared corpus generators.

Random graphs are spanning trees with a couple of extra edges: enough to
carry cycles of every interesting kind while keeping exponential-cost
oracle enumeration inside the time budgets.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetagraph.graph import make_graph, validate
from zetagraph.operators import incidence_maps, zigzag_matrix


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


def prism_graph(n):
    """The unit prism C_n x K_2: two n-cycles joined by n rungs, 3-regular
    with |V| = 2n and |E| = 3n, bipartite for even n."""
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    edges = [(x[i], x[(i + 1) % n]) for x in (a, b) for i in range(n)]
    edges += list(zip(a, b))
    return make_graph(a + b, [(u, v, 1.0, 1.0) for u, v in edges])


def exact_fredholm(mat, order):
    """det(1 - u mat) to the given order in exact Fractions.

    Every float is a dyadic rational, so 2^k mat is an integer matrix for
    some k.  It is built entry by entry from Fraction(float) (an object-dtype
    cast of a float array would give Python floats, which round past 2^53),
    its power traces are taken in Python integers, and the Newton recursion
    c_k = -(1/k) sum_j p_j c_{k-j} runs on p_j = tr(mat^j) = tr((2^k mat)^j) / 2^(kj).
    """
    entries = [[Fraction(float(x)) for x in row] for row in np.asarray(mat)]
    scale = max((f.denominator for row in entries for f in row), default=1)
    integer = np.array([[int(f * scale) for f in row] for row in entries], dtype=object)
    power = np.eye(len(entries), dtype=int).astype(object)
    p = [Fraction(0)]
    for j in range(1, order + 1):
        power = integer.dot(power)
        p.append(Fraction(int(np.trace(power)), scale**j))
    c = [Fraction(1)]
    for k in range(1, order + 1):
        c.append(-sum(p[j] * c[k - j] for j in range(1, k + 1)) / k)
    return c


def exact_euler_product(g, primes, order):
    """prod over the prime edge sequences of (1 - w(p) u^l(p)) to the given
    order, each w(p) the exact product of g's weights as Fractions, every
    coefficient rounded once to a float: the untwisted oracle's reference,
    the same in any order of the primes."""
    c = [Fraction(1)] + [Fraction(0)] * order
    for edges in primes:
        w = math.prod(Fraction(g.weight[e]) for e in edges)
        for k in range(order, len(edges) - 1, -1):
            c[k] -= w * c[k - len(edges)]
    return np.array([float(x) for x in c], dtype=np.complex128)


def contract_ratio(got, exact):
    """max_n |c_n - exact_n| / (1e-9 (1 + max(1, |exact_n|))): above 1 the
    series breaks the coeffs_agree contract at 1e-9."""
    return max(abs(complex(g) - float(e)) / (1e-9 * (1 + max(1.0, abs(float(e)))))
               for g, e in zip(got, exact))


def dense_pencils(g, variant="corrected"):
    """Heads [I, C_1, C_2] of the quadratic pencils behind the bass route
    (the flip squared in the corner block, or once as printed) and the
    classical route (I - uA + u^2 Q), built densely."""
    A = zigzag_matrix(g, 1).dense()
    sigma, tau, flip = (op.dense() for op in incidence_maps(g))
    nv, ne = A.shape[0], flip.shape[0]
    c1 = np.block([[-A, np.zeros((nv, ne))], [sigma, flip]])
    c2 = np.zeros((nv + ne, nv + ne))
    c2[:nv, :nv] = zigzag_matrix(g, 2).dense()
    c2[:nv, nv:] = tau @ np.linalg.matrix_power(flip, 2 if variant == "corrected" else 1)
    return {"bass": [np.eye(nv + ne), c1, c2],
            "classical": [np.eye(nv), -A, zigzag_matrix(g, 2).dense() - np.eye(nv)]}


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
