"""Brute-force cycle enumeration: the ground truth the determinant routes
are validated against.

A closed edge sequence (e_1, ..., e_n) is admissible when consecutive edges
compose and every step, the wrap-around seam included, obeys the
non-backtracking rule: e' = e reversed is forbidden unless e carries the
backtrack flag.  Admissibility lives on edge sequences; the vertex-path
variant with an explicit tail condition is kept only as a diagnostic (see
tail_mode_report).

Everything here is exponential in the length bound and intended for small
graphs; the bound is capped to keep runtimes sane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .graph import OrientedEdge, WeightedGraph, canonical_order, reverse
from .series import Series, fredholm_det

DEFAULT_LENGTH_CAP = 14
HARD_LENGTH_CAP = 20


def _check_length(L: int, cap: int) -> None:
    limit = min(cap, HARD_LENGTH_CAP)
    if L > limit:
        raise ResourceCapError(
            f"length bound {L} exceeds cap {limit}; enumeration is exponential"
        )


def _step_ok(g: WeightedGraph, e: OrientedEdge, e2: OrientedEdge) -> bool:
    return e2[0] == e[1] and (e2 != reverse(e) or e in g.backtrack)


def closed_sequences(
    g: WeightedGraph, L: int, cap: int = DEFAULT_LENGTH_CAP
) -> dict[int, list[tuple[tuple[OrientedEdge, ...], float]]]:
    """All rooted admissible closed edge sequences of length 1..L.

    Returns {n: [(sequence, weight), ...]} with every length key present.
    The total weight at length n equals tr T^n; rotations of one cycle
    appear as distinct rooted sequences.
    """
    _check_length(L, cap)
    _, edges = canonical_order(g)
    out: dict[int, list] = {n: [] for n in range(1, L + 1)}
    for start in edges:
        stack = [(start, (start,), g.weight[start])]
        while stack:
            e, seq, wgt = stack.pop()
            if _step_ok(g, e, start):
                out[len(seq)].append((seq, wgt))
            if len(seq) == L:
                continue
            for e2 in g.out_edges[e[1]]:
                if _step_ok(g, e, e2):
                    stack.append((e2, seq + (e2,), wgt * g.weight[e2]))
    for n in out:
        out[n].sort(key=lambda item: item[0])
    return out


def compute_Nm(
    g: WeightedGraph, L: int, mode: str = "strict", cap: int = DEFAULT_LENGTH_CAP
) -> list[float]:
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
        seqs = closed_sequences(g, L, cap=cap)
        return [float(sum(w for _, w in seqs[n])) for n in range(1, L + 1)]
    if mode not in ("printed", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_length(L, cap)
    totals = [0.0] * L
    for n in range(2, L + 1):
        for path, wgt in _closed_vertex_paths(g, n):
            if _tail_admitted(g, path, mode):
                totals[n - 1] += wgt
    return totals


def _closed_vertex_paths(g: WeightedGraph, n: int):
    """Rooted closed vertex paths (x_0,...,x_n=x_0) whose interior steps
    reverse only across flagged orientations, with weights."""
    for start in g.vertices:
        stack = [((start,), 1.0)]
        while stack:
            path, wgt = stack.pop()
            depth = len(path) - 1
            if depth == n:
                if path[-1] == start:
                    yield path, wgt
                continue
            x = path[-1]
            for y in g.neighbors(x):
                if depth >= 1 and y == path[-2] and (path[-2], x) not in g.backtrack:
                    continue
                stack.append((path + (y,), wgt * g.weight[(x, y)]))


def _tail_admitted(g: WeightedGraph, path: tuple, mode: str) -> bool:
    trigger = path[0] if mode == "printed" else path[1]
    if path[-2] != trigger:
        return True
    return (path[1], path[0]) in g.backtrack


def tail_mode_report(
    g: WeightedGraph, L: int, cap: int = DEFAULT_LENGTH_CAP
) -> dict[str, list[float]]:
    """Side-by-side N_m under all three counting modes, so the flagged-graph
    discrepancies are visible rather than silently resolved."""
    return {
        "strict": compute_Nm(g, L, "strict", cap=cap),
        "printed": compute_Nm(g, L, "printed", cap=cap),
        "corrected": compute_Nm(g, L, "corrected", cap=cap),
    }


@dataclass(frozen=True)
class CycleRecord:
    """One rotation-equivalence class of admissible closed sequences.

    edges holds the lexicographically minimal rotation; primitive_length is
    the smallest period, and the class is prime when it equals the length.
    """

    edges: tuple[OrientedEdge, ...]
    length: int
    weight: float
    primitive_length: int
    is_prime: bool
    holonomy: np.ndarray | None = None


def _canonical_rotation(seq: tuple, key) -> tuple:
    rots = [seq[i:] + seq[:i] for i in range(len(seq))]
    return min(rots, key=lambda r: tuple(key[e] for e in r))


def _primitive_period(seq: tuple) -> int:
    n = len(seq)
    for r in range(1, n + 1):
        if n % r == 0 and seq[r:] + seq[:r] == seq:
            return r
    return n


def prime_cycles(
    g: WeightedGraph, L: int, cap: int = DEFAULT_LENGTH_CAP, system=None
) -> list[CycleRecord]:
    """All cycle classes of length <= L, primes flagged, deterministic order
    (length, then canonical edge sequence).  With a local system, each
    record carries the holonomy of its canonical representative."""
    _check_length(L, cap)
    _, edges = canonical_order(g)
    key = {e: i for i, e in enumerate(edges)}
    seen: set = set()
    records = []
    # prune to sequences whose root has the minimal edge index; every class
    # has such a rotation, duplicates collapse via the canonical rotation
    for si, start in enumerate(edges):
        stack = [(start, (start,), g.weight[start])]
        while stack:
            e, seq, wgt = stack.pop()
            if _step_ok(g, e, start):
                canon = _canonical_rotation(seq, key)
                if canon not in seen:
                    seen.add(canon)
                    period = _primitive_period(canon)
                    records.append(
                        CycleRecord(
                            edges=canon,
                            length=len(canon),
                            weight=float(wgt),
                            primitive_length=period,
                            is_prime=period == len(canon),
                            holonomy=holonomy(system, canon) if system else None,
                        )
                    )
            if len(seq) == L:
                continue
            for e2 in g.out_edges[e[1]]:
                if key[e2] >= si and _step_ok(g, e, e2):
                    stack.append((e2, seq + (e2,), wgt * g.weight[e2]))
    records.sort(key=lambda r: (r.length, tuple(key[e] for e in r.edges)))
    return records


def holonomy(system, edges: tuple) -> np.ndarray:
    """Ordered product of edge transports, last edge leftmost."""
    H = np.eye(system.dim, dtype=np.complex128)
    for e in edges:
        H = system.transport(e) @ H
    return H


def edge_sequence_label(edges: tuple) -> str:
    return "|".join(f"{u}>{v}" for u, v in edges)


def euler_product(
    g: WeightedGraph, M: int, system=None, cap: int = DEFAULT_LENGTH_CAP
) -> Series:
    """Reciprocal zeta (or L-) series as a finite product over prime classes.

    Multiplies det(1 - w(p) u^{l(p)} H_p) over primes of length <= M; the
    truncation at order M is exact since longer primes start at u^{M+1}.
    Without a local system H_p = 1 and each factor is 1 - w u^l.
    """
    _check_length(M, cap)
    result = Series.one(M)
    for rec in prime_cycles(g, M, cap=cap, system=system):
        if not rec.is_prime:
            continue
        if system is None:
            coeffs = np.zeros(M + 1, dtype=np.complex128)
            coeffs[0] = 1.0
            if rec.length <= M:
                coeffs[rec.length] = -rec.weight
            factor = Series(coeffs)
        else:
            charpoly = fredholm_det(rec.holonomy, system.dim)
            coeffs = np.zeros(M + 1, dtype=np.complex128)
            for k in range(system.dim + 1):
                if k * rec.length <= M:
                    coeffs[k * rec.length] = charpoly.coefficient(k) * rec.weight ** k
            factor = Series(coeffs)
        result = result * factor
    return result
