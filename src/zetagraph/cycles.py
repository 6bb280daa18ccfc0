"""Brute-force cycle enumeration: the ground truth the determinant routes
are validated against.

A closed edge sequence (e_1, ..., e_n) is admissible when consecutive edges
compose and every step, the wrap-around seam included, obeys the
non-backtracking rule of _step_ok: e' = e reversed is forbidden unless e
carries the backtrack flag.  Two depth-first generators walk the graph
under that rule and nothing else does:

- _closed_walks yields the admissible closed edge sequences rooted at
  each edge, through every edge (closed_sequences) or only through edges
  no smaller than the root (prime_cycles, and through it euler_product);
- reduced_walks yields the vertex walks whose steps obey the rule; one
  traversal fills both vertex-path counting modes of compute_Nm, kept only
  as diagnostics (see tail_mode_report), and it feeds the direct path-sum
  operators in operators.py.

Oriented edges compare as (origin, target) tuples, the canonical order of
graph.canonical_order.  prime_cycles keeps each rotation class once, as the
pruned walk that is its own least rotation (a Lyndon word or a power of
one; see _least_period).

Both generators are exponential in the length bound and intended for small
graphs; they refuse bounds above LENGTH_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .graph import OrientedEdge, WeightedGraph, canonical_order, reverse
from .series import Series, fredholm_det, times_sparse

LENGTH_CAP = 20


def _check_length(L: int) -> None:
    if L > LENGTH_CAP:
        raise ResourceCapError(
            f"length bound {L} exceeds cap {LENGTH_CAP}; enumeration is exponential"
        )


def _step_ok(g: WeightedGraph, e: OrientedEdge, e2: OrientedEdge) -> bool:
    return e2[0] == e[1] and (e2 != reverse(e) or e in g.backtrack)


def _closed_walks(g: WeightedGraph, L: int, pruned: bool):
    """Yield (sequence, weight) for every admissible closed edge sequence of
    length 1..L, depth first from each root edge in canonical order.

    pruned keeps only continuations no smaller than the root edge: every
    rotation class still appears, rooted at its least edge.
    """
    _check_length(L)
    for start in canonical_order(g)[1]:
        stack = [(start, (start,), g.weight[start])]
        while stack:
            e, seq, wgt = stack.pop()
            if _step_ok(g, e, start):
                yield seq, wgt
            if len(seq) >= L:
                continue
            for e2 in g.out_edges[e[1]]:
                if (e2 >= start or not pruned) and _step_ok(g, e, e2):
                    stack.append((e2, seq + (e2,), wgt * g.weight[e2]))


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
    out: dict[int, list] = {n: [] for n in range(1, L + 1)}
    for seq, wgt in _closed_walks(g, L, pruned=False):
        out[len(seq)].append((seq, wgt))
    for n in out:
        out[n].sort(key=lambda item: item[0])
    return out


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
        seqs = closed_sequences(g, L)
        return [float(sum(w for _, w in seqs[n])) for n in range(1, L + 1)]
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


@dataclass(frozen=True)
class CycleRecord:
    """One rotation-equivalence class of admissible closed sequences.

    edges holds the least rotation in canonical order and weight the product
    of its edge weights in that order; primitive_length is the smallest
    period, and the class is prime when it equals the length.
    """

    edges: tuple[OrientedEdge, ...]
    length: int
    weight: float
    primitive_length: int
    is_prime: bool
    holonomy: np.ndarray | None = None


def _least_period(seq: tuple) -> int:
    """The smallest period of seq if no rotation of it is smaller, else 0."""
    for r in range(1, len(seq) + 1):
        rot = seq[r:] + seq[:r]
        if rot < seq:
            return 0
        if rot == seq:
            return r


def prime_cycles(g: WeightedGraph, L: int, system=None) -> list[CycleRecord]:
    """All cycle classes of length <= L, primes flagged, deterministic order
    (length, then canonical edge sequence).  With a local system, each
    record carries the holonomy of its canonical representative."""
    records = []
    for seq, wgt in _closed_walks(g, L, pruned=True):
        period = _least_period(seq)
        if not period:
            continue
        records.append(
            CycleRecord(
                edges=seq,
                length=len(seq),
                weight=float(wgt),
                primitive_length=period,
                is_prime=period == len(seq),
                holonomy=holonomy(system, seq) if system else None,
            )
        )
    records.sort(key=lambda r: (r.length, r.edges))
    return records


def holonomy(system, edges: tuple) -> np.ndarray:
    """Ordered product of edge transports, last edge leftmost."""
    H = np.eye(system.dim, dtype=np.complex128)
    for e in edges:
        H = system.transport(e) @ H
    return H


def edge_sequence_label(edges: tuple) -> str:
    return "|".join(f"{u}>{v}" for u, v in edges)


def euler_product(g: WeightedGraph, M: int, system=None) -> Series:
    """Reciprocal zeta (or L-) series as a finite product over prime classes.

    Multiplies det(1 - w(p) u^{l(p)} H_p) over primes of length <= M; the
    truncation at order M is exact since longer primes start at u^{M+1}.
    Each factor is the characteristic polynomial sum_k a_k t^k of H_p,
    det(1 - t H_p), at t = w(p) u^{l(p)}: a sparse polynomial in u^{l(p)}
    with coefficients a_k w(p)^k, applied in place by times_sparse.  Without
    a local system H_p = 1 and the polynomial is 1 - t.
    """
    factors = []
    for rec in prime_cycles(g, M, system=system):
        if rec.is_prime:
            charpoly = (1.0, -1.0) if system is None else fredholm_det(rec.holonomy, system.dim).c
            factors.append(([a * rec.weight ** k for k, a in enumerate(charpoly)], rec.length))
    return times_sparse(Series.one(M), factors)
