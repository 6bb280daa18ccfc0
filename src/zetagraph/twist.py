"""Unitary local systems on a graph and the twisted L-function.

A local system assigns a d x d unitary transport to every oriented edge;
the transport of the reversal must be the inverse.  Edge fibers are
trivialized at the origin vertex, so the edge space becomes |OE| copies of
C^d and the flip operator carries exactly one transport per step.  Zeta is
the L-function of the trivial one-dimensional system, so the L-function is
the Euler product over prime cycles with holonomy factors or a zeta route
(zeta_sunada, zeta_fredholm) given the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import GraphFormatError, GraphValidationError
from .graph import OrientedEdge, ValidationReport, WeightedGraph, canonical_order
from .routes import route_series
from .series import Series

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class LocalSystem:
    dim: int
    transfers: Mapping[OrientedEdge, np.ndarray]

    def transport(self, e: OrientedEdge) -> np.ndarray:
        return self.transfers[e]


def make_local_system(
    g: WeightedGraph, dim: int, transfers: Mapping[OrientedEdge, np.ndarray] | None = None
) -> LocalSystem:
    """Build a system covering every oriented edge.

    Missing reversals get the conjugate transpose of the given direction;
    edges with neither direction given get the identity.
    """
    given = {e: np.asarray(m, dtype=np.complex128) for e, m in (transfers or {}).items()}
    table: dict[OrientedEdge, np.ndarray] = {}
    for u, v in g.edges:
        e, r = (u, v), (v, u)
        if e in given:
            table[e] = given[e]
        elif r in given:
            table[e] = given[r].conj().T
        else:
            table[e] = np.eye(dim, dtype=np.complex128)
        table[r] = given[r] if r in given else table[e].conj().T
    return LocalSystem(dim, table)


def trivial_system(g: WeightedGraph, dim: int = 1) -> LocalSystem:
    return make_local_system(g, dim)


def validate_local_system(g: WeightedGraph, system: LocalSystem) -> ValidationReport:
    """Dimension, unitarity, reversal-compatibility, and coverage checks.

    The deviations |U U* - I| and |U_(e^-1) U_e - I| of the transports of
    the right shape are taken over their stack, in one batched matmul each;
    the entries come in edge order."""
    entries = []
    d = system.dim
    if d < 1:
        entries.append(("dimension", f"dimension must be >= 1, got {d}"))
        return ValidationReport(tuple(entries))
    given = {e: np.asarray(system.transfers[e]) for e in g.oriented_edges() if e in system.transfers}
    at = {e: k for k, e in enumerate(e for e, U in given.items() if U.shape == (d, d))}
    U = np.array([given[e] for e in at]).reshape(len(at), d, d)
    eye = np.eye(d)
    unitary = np.abs(U @ U.conj().transpose(0, 2, 1) - eye).max(axis=(1, 2))
    pairs = [(u, v) for u, v in g.edges if (u, v) in at and (v, u) in at]
    back = U[[at[(v, u)] for u, v in pairs]]
    compatible = np.abs(back @ U[[at[e] for e in pairs]] - eye).max(axis=(1, 2))
    for e in g.oriented_edges():
        if e not in given:
            entries.append(("coverage", f"no transfer for oriented edge {e[0]}->{e[1]}"))
        elif e not in at:
            entries.append(("dimension", f"transfer {e[0]}->{e[1]} has shape {given[e].shape}"))
        # "not <=" so that a NaN deviation fails the check
        elif not unitary[at[e]] <= UNITARITY_TOL:
            entries.append(("unitarity", f"transfer {e[0]}->{e[1]} is not unitary"))
    for (u, v), deviation in zip(pairs, compatible):
        if not deviation <= UNITARITY_TOL:
            entries.append(("compatibility", f"transfer {v}->{u} is not the inverse of {u}->{v}"))
    return ValidationReport(tuple(entries))


def gauge_transform(
    g: WeightedGraph, system: LocalSystem, vertex_unitaries: Mapping[str, np.ndarray]
) -> LocalSystem:
    """Conjugate every fiber by a fixed unitary per vertex:
    U_e -> V_{t(e)} U_e V_{o(e)}^*.  L-series coefficients are invariant."""
    table = {}
    for e in g.oriented_edges():
        Vo = np.asarray(vertex_unitaries[e[0]], dtype=np.complex128)
        Vt = np.asarray(vertex_unitaries[e[1]], dtype=np.complex128)
        table[e] = Vt @ system.transport(e) @ Vo.conj().T
    return LocalSystem(system.dim, table)


def lfunction(g: WeightedGraph, system: LocalSystem, M: int, route: str = "determinant") -> Series:
    """Reciprocal L-series by a route of routes.route_series, determinant
    naming sunada: the vertex-space factorization, empty backtrack set only.
    oracle (the Euler product with holonomy factors) and fredholm
    (det(1 - u T_twisted)) take any backtrack set."""
    report = validate_local_system(g, system)
    if not report.ok:
        raise GraphValidationError(report)
    return route_series("sunada" if route == "determinant" else route, g, M, system)


def load_local_system(document: dict, g: WeightedGraph) -> LocalSystem | None:
    """Read the optional "local_system" block of a graph document.

    Shape: {"dim": d, "transfers": [{"u":..., "v":..., "matrix":
    [[[re,im],...],...]}, ...]};  the reverse transfer is the conjugate
    transpose unless listed itself.
    """
    block = document.get("local_system")
    if block is None:
        return None
    if not isinstance(block, dict) or "dim" not in block:
        raise GraphFormatError("local_system must be an object with a dim field")
    dim = block["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise GraphFormatError("local_system dim must be a positive integer")
    items = block.get("transfers", [])
    if not isinstance(items, list):
        raise GraphFormatError("local_system transfers must be a list")
    transfers = {}
    for item in items:
        if not isinstance(item, dict) or not {"u", "v", "matrix"} <= set(item):
            raise GraphFormatError("each transfer needs u, v, and matrix fields")
        e = (str(item["u"]), str(item["v"]))
        if e not in g.weight:
            raise GraphFormatError(f"transfer {e[0]}->{e[1]} names a non-edge")
        try:
            rows = [
                [complex(float(re), float(im)) for re, im in row] for row in item["matrix"]
            ]
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"malformed transfer matrix: {exc}") from None
        try:
            mat = np.array(rows, dtype=np.complex128)
        except ValueError:
            raise GraphFormatError(f"transfer {e[0]}->{e[1]} has rows of unequal length") from None
        if mat.shape != (dim, dim):
            raise GraphFormatError(
                f"transfer {e[0]}->{e[1]} has shape {mat.shape}, expected ({dim}, {dim})"
            )
        transfers[e] = mat
    return make_local_system(g, dim, transfers)


def local_system_block(system: LocalSystem, g: WeightedGraph) -> dict:
    """Serializable form of a system; lists both orientations explicitly."""
    transfers = [{"u": u, "v": v, "matrix": [[[float(z.real), float(z.imag)] for z in row]
                                             for row in system.transport((u, v))]}
                 for u, v in canonical_order(g)[1]]
    return {"dim": system.dim, "transfers": transfers}
