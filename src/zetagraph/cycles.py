"""Brute-force cycle enumeration: the ground truth the determinant routes
are validated against.

A closed edge sequence (e_1, ..., e_n) is admissible when consecutive edges
compose and every step, the wrap-around seam included, obeys the
non-backtracking rule of _step_ok: e' = e reversed is forbidden unless e
carries the backtrack flag.  Two depth-first walks traverse the graph
under that rule and nothing else does:

- _closed_walks returns the admissible closed sequences rooted at each
  edge, as edge indices grouped by length: all of them (closed_sequences
  and compute_Nm), or only the necklaces, the sequences that are their own
  least rotation (prime_cycles and euler_product);
- reduced_walks yields the vertex walks whose steps obey the rule; one
  traversal fills both vertex-path counting modes of compute_Nm, kept only
  as diagnostics (see tail_mode_report), and it feeds the direct path-sum
  operators in operators.py.

Oriented edges compare as (origin, target) tuples, the canonical order of
graph.canonical_order.  _closed_walks walks integer edge indices in that
order and enters only branches that can still yield: a backward
breadth-first search from each root gives the fewest edges before a walk
can close, and a branch that cannot close within the bound is never
pushed.  In necklace mode it extends only prenecklaces, by the
Fredricksen-Kessler-Maiorana rule (Cattell et al., J. Algorithms 2000), so
each rotation class is met once, rooted at its least rotation, with its
least period known from the walk itself.  The walk is a lexicographic
preorder (successors entered smallest first), and the rule generates
prenecklaces in lexicographic order, so each length's group comes out
sorted and the callers read the groups as they are.  Index order is
canonical order, so the edge sequences the indices stand for are sorted
too: compute_Nm sums the weights, prime_cycles and closed_sequences map
every sequence back to edges, and the untwisted euler_product reads each
prime's length and exact integer weight straight from the walk, which
multiplies the dyadic integers it is given in place of the float weights.

Both walks are exponential in the length bound and intended for small
graphs; they refuse bounds above LENGTH_CAP, and _closed_walks refuses a
walk that emits more than CLASS_BUDGET classes, so a dense graph is refused
before it runs out of memory or time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ResourceCapError
from .graph import OrientedEdge, WeightedGraph, canonical_order, reverse
from .series import Series, dyadic, fredholm_det

LENGTH_CAP = 20

# classes (sequences outside necklace mode) _closed_walks may emit, about
# 100 MB: four times the 111,508 necklaces of K4 at length 20
CLASS_BUDGET = 450_000


def _check_length(L: int) -> None:
    if L > LENGTH_CAP:
        raise ResourceCapError(
            f"length bound {L} exceeds cap {LENGTH_CAP}; enumeration is exponential"
        )


def _step_ok(g: WeightedGraph, e: OrientedEdge, e2: OrientedEdge) -> bool:
    return e2[0] == e[1] and (e2 != reverse(e) or e in g.backtrack)


def _return_distances(pred: list[list[int]], s: int, lo: int, L: int) -> list[int]:
    """dist[i]: the fewest edges >= lo that can follow edge i before the walk
    steps back onto s, by breadth-first search backwards from s; L where
    that takes L or more."""
    dist = [L] * len(pred)
    frontier = [i for i in pred[s] if i >= lo]
    for i in frontier:
        dist[i] = 0
    for d in range(1, L):
        reached = []
        for j in frontier:
            for i in pred[j]:
                if i >= lo and dist[i] == L:
                    dist[i] = d
                    reached.append(i)
        frontier = reached
    return dist


def _closed_walks(g: WeightedGraph, L: int, necklaces: bool, weights=None) -> list[list[tuple]]:
    """The admissible closed edge sequences of length 1..L grouped by
    length: entry n of the returned list (n = 0..L, entry 0 empty) holds the
    (sequence, weight, period) triples of length n in increasing order.  The
    sequence is a tuple of edge indices into canonical_order(g)[1]; the
    weight is the in-order product of weights, the per-edge weights in
    canonical order: the float edge weights by default, or any numbers the
    caller passes, such as the dyadic integers of euler_product, whose
    products are exact in any order.

    The walk runs depth first from each root edge in canonical order, as a
    lexicographic preorder: a walk is met before its extensions, and
    successors are pushed largest first so that they are entered smallest
    first.  The sequences are therefore met in increasing tuple order, and
    each group is filled in that order.

    Edges are indices in canonical order with successor lists built once
    from _step_ok.  For each root s a backward breadth-first search over
    predecessors gives dist[i], the fewest further edges before a walk
    ending at edge i can step back onto s (0 where it closes now); a
    continuation is pushed only when its length plus dist stays within L,
    and a root that cannot return within L is skipped.  Successor lists are
    kept largest first, so a walk stops scanning them at the first edge
    below the prenecklace bound.

    necklaces keeps only sequences that are their own least rotation, so
    every rotation class appears once, rooted at its least edge.  The walk
    then stays on edges >= s (the search too) and extends only
    prenecklaces: with p the length of the longest Lyndon prefix of a walk
    of length n, edge j may follow only if j >= seq[n - p]; p stays when
    j = seq[n - p] and becomes n + 1 otherwise.  A closed prenecklace is a
    necklace exactly when p divides n, and p is then its least period.
    Without necklaces every closed sequence is kept and period is its
    length.  Past CLASS_BUDGET emitted classes it raises ResourceCapError.
    """
    _check_length(L)
    edges = canonical_order(g)[1]
    index = {e: i for i, e in enumerate(edges)}
    weight = [g.weight[e] for e in edges] if weights is None else weights
    # successors largest first: pushed in this order, they pop smallest first
    succ = [[index[e2] for e2 in reversed(g.out_edges[e[1]]) if _step_ok(g, e, e2)]
            for e in edges]
    pred = [[] for _ in edges]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    groups: list[list[tuple]] = [[] for _ in range(L + 1)]
    emitted = 0
    for s in range(len(edges)):
        dist = _return_distances(pred, s, s if necklaces else 0, L)
        if dist[s] >= L:
            continue
        # a walk may grow onto edge j up to length room[j] and still close
        room = [L - d for d in dist]
        stack = [((s,), s, weight[s], 1)]
        while stack:
            seq, last, wgt, p = stack.pop()
            n = len(seq)
            if not dist[last] and not n % p:
                groups[n].append((seq, wgt, p))
                if (emitted := emitted + 1) > CLASS_BUDGET:
                    raise ResourceCapError(f"more than {CLASS_BUDGET} cycle classes up to "
                                           f"length {L}; enumeration is exponential")
            if n >= L:
                continue
            b = seq[n - p] if necklaces else -1
            n += 1
            for j in succ[last]:
                if j < b:
                    break
                if n <= room[j]:
                    stack.append((seq + (j,), j, wgt * weight[j], p if j == b else n))
    return groups


def reduced_walks(g: WeightedGraph, L: int):
    """Yield (walk, weight) for every vertex walk (x_0, ..., x_n), n <= L,
    whose steps obey the rule: x_n = x_{n-2} only when (x_{n-2}, x_{n-1})
    carries the backtrack flag.  Walks start from each vertex in turn and the
    weight is the product of the step weights."""
    _check_length(L)
    for start in g.vertices:
        stack = [((start,), 1.0)]
        while stack:
            walk, wgt = stack.pop()
            yield walk, wgt
            if len(walk) > L:
                continue
            x = walk[-1]
            for y in g.neighbors(x):
                if len(walk) == 1 or _step_ok(g, (walk[-2], x), (x, y)):
                    stack.append((walk + (y,), wgt * g.weight[(x, y)]))


def closed_sequences(
    g: WeightedGraph, L: int
) -> dict[int, list[tuple[tuple[OrientedEdge, ...], float]]]:
    """All rooted admissible closed edge sequences of length 1..L.

    Returns {n: [(sequence, weight), ...]} with every length key present.
    The total weight at length n equals tr T^n; rotations of one cycle
    appear as distinct rooted sequences.
    """
    edges = canonical_order(g)[1]
    groups = _closed_walks(g, L, necklaces=False)
    return {n: [(tuple(map(edges.__getitem__, seq)), wgt) for seq, wgt, _ in groups[n]]
            for n in range(1, L + 1)}


def compute_Nm(g: WeightedGraph, L: int, mode: str = "strict") -> list[float]:
    """Cycle-weight totals N_1..N_L.

    strict (normative): total weight of rooted admissible closed edge
    sequences per length, which is tr T^m by construction.  The two literal
    modes count closed vertex paths whose interior steps reverse only across
    flagged orientations, with a tail admission rule at the seam:
    "as-printed" triggers the rule when x_0 = x_{n-1} (rarely fires),
    "corrected" when x_1 = x_{n-1} (an actual tail, and provably equal to
    strict).  Both are diagnostics for flagged graphs.
    """
    if mode == "strict":
        groups = _closed_walks(g, L, necklaces=False)[1:]
        return [float(sum(wgt for _, wgt, _ in group)) for group in groups]
    if mode not in ("printed", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    return _vertex_path_totals(g, L)[mode]


def _vertex_path_totals(g: WeightedGraph, L: int) -> dict[str, list[float]]:
    """Both literal modes from one reduced_walks traversal.  A closed path
    crosses the seam unless x_{n-1} equals the mode's trigger (x_0 as
    printed, x_1 corrected) and (x_1, x_0) is unflagged."""
    totals = {"printed": [0.0] * L, "corrected": [0.0] * L}
    for walk, wgt in reduced_walks(g, L):
        if len(walk) > 2 and walk[-1] == walk[0]:
            flagged = (walk[1], walk[0]) in g.backtrack
            for mode, trigger in (("printed", walk[0]), ("corrected", walk[1])):
                if walk[-2] != trigger or flagged:
                    totals[mode][len(walk) - 2] += wgt
    return totals


def tail_mode_report(g: WeightedGraph, L: int) -> dict[str, list[float]]:
    """Side-by-side N_m under all three counting modes, so the flagged-graph
    discrepancies are visible rather than silently resolved."""
    return {"strict": compute_Nm(g, L, "strict"), **_vertex_path_totals(g, L)}


class CycleRecord(NamedTuple):
    """One rotation-equivalence class of admissible closed sequences.

    edges holds the least rotation in canonical order and weight the product
    of its edge weights in that order; primitive_length is the smallest
    period, and the class is prime when it equals the length.  A named
    tuple, so that building one record per class stays cheap; it therefore
    compares equal to, unpacks and orders like a plain 6-tuple.
    """

    edges: tuple[OrientedEdge, ...]
    length: int
    weight: float
    primitive_length: int
    is_prime: bool
    holonomy: np.ndarray | None = None


def prime_cycles(g: WeightedGraph, L: int, system=None) -> list[CycleRecord]:
    """All cycle classes of length <= L, primes flagged, deterministic order
    (length, then canonical edge sequence).  With a local system, each
    record carries the holonomy of its canonical representative."""
    edge = canonical_order(g)[1].__getitem__
    # tuple.__new__ fills each record without the Python-level frame of
    # CycleRecord.__new__, one per class
    new = tuple.__new__
    return [new(CycleRecord, (cycle := tuple(map(edge, seq)), n, wgt, period, period == n,
                              holonomy(system, cycle) if system else None))
            for n, group in enumerate(_closed_walks(g, L, necklaces=True))
            for seq, wgt, period in group]


def holonomy(system, edges: tuple) -> np.ndarray:
    """Ordered product of edge transports, last edge leftmost."""
    H = np.eye(system.dim, dtype=np.complex128)
    for e in edges:
        H = system.transport(e) @ H
    return H


def edge_sequence_label(edges: tuple) -> str:
    return "|".join(f"{u}>{v}" for u, v in edges)


def euler_product(g: WeightedGraph, M: int, system=None) -> Series:
    """Reciprocal zeta (or L-) series as the product of det(1 - w(p) u^l H_p)
    over the primes p of length l <= M, read from the walk's groups: exact
    at order M, since longer primes start at u^{M+1}.

    Without a local system (H_p = 1) it runs in integers: with W = w 2^E the
    edge weights of dyadic, the walk multiplies these along each prime to
    its exact W(p), and C_n = c_n 2^{E n} takes each factor as
    C_n -= W(p) C_{n-l}, n stepping down; c_n = C_n / 2^{E n} is rounded
    once.  With a system each factor det(1 - t H_p) = sum_k a_k t^k at
    t = w(p) u^l, w(p) the walk's float product, is applied in prime_cycles
    order to one complex array, c_n += a_k w(p)^k c_{n-kl} from the values
    before the factor, term by term in k.
    """
    edges = canonical_order(g)[1]
    if system is None:
        E, W = dyadic(g.weight[e] for e in edges)
        C = [1] + [0] * M
        for n, group in enumerate(_closed_walks(g, M, necklaces=True, weights=W)):
            for _, w, period in group:
                if period == n:
                    for k in range(M, n - 1, -1):
                        C[k] -= w * C[k - n]
        return Series([c / (1 << (E * n)) for n, c in enumerate(C)])
    c = Series.one(M).coefficients()
    for n, group in enumerate(_closed_walks(g, M, necklaces=True)):
        for seq, wgt, period in group:
            if period == n:
                a = fredholm_det(holonomy(system, tuple(map(edges.__getitem__, seq))),
                                 system.dim).c
                old = c.copy()
                for k in range(1, min(system.dim, M // n) + 1):
                    c[k * n :] += a[k] * wgt**k * old[: M + 1 - k * n]
    return Series(c)
