"""Seeded graph corpus and job lists for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed gives
byte-identical graph files.  The program under test only ever sees the files
written by :func:`write_corpus`; the documents themselves are kept so that
the verifiers can compare outputs against what the generator built.

Graphs are random connected graphs: a random spanning tree (vertex i hangs
off a uniformly chosen earlier vertex) plus extra edges between uniformly
chosen non-adjacent pairs until the cyclomatic number is reached.  Vertex
counts and cyclomatic numbers are fixed per slot, so the seed changes
structure and weights but not the matrix dimensions the kernels see.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

WORKLOADS = ("check-small", "routes-medium", "fredholm-large")

ORDER = 12
PRIME_LENGTH = 12
FAMILY_STUDY = 12

# Oracle enumeration cost grows exponentially with the number of closed
# non-backtracking sequences, which varies by an order of magnitude between
# random graphs of one shape.  Each check-small graph is therefore the one of
# ORACLE_DRAWS seeded draws whose count of rooted closed admissible sequences
# of length <= PRIME_LENGTH lies nearest ORACLE_TARGET, so that the seed moves
# structure but not the amount of enumeration work.
ORACLE_TARGET = 4000
ORACLE_DRAWS = 32


@dataclass
class Graph:
    """One generated graph file: its document and the facts the verifiers use."""

    name: str
    doc: dict
    kind: str  # weighted, unit, symmetric, asymmetric, twisted
    local_dim: int = 0

    @property
    def vertex_count(self) -> int:
        return len(self.doc["vertices"])

    @property
    def edge_count(self) -> int:
        return len(self.doc["edges"])

    def sizes(self) -> dict:
        v, e = self.vertex_count, self.edge_count
        return {
            "name": self.name,
            "kind": self.kind,
            "V": v,
            "E": e,
            "OE": 2 * e,
            "cyclomatic": e - v + 1,
            "flags": sum(ed["bt_uv"] + ed["bt_vu"] for ed in self.doc["edges"]),
            "d": self.local_dim or 1,
        }


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``graph`` names the file that replaces ``{file}``."""

    command: str  # metric key: check, primes, family, coeffs.<route>, lfun, poles, stats
    argv: tuple[str, ...]
    graph: str | None = None


@dataclass
class Corpus:
    workload: str
    seed: int
    graphs: dict[str, Graph] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    cold_graph: Graph | None = None

    def add(self, g: Graph) -> Graph:
        self.graphs[g.name] = g
        return g


def random_document(
    rng: random.Random,
    n_vertices: int,
    cyclomatic: int,
    weights: tuple[float, float] | None,
) -> dict:
    """Spanning tree plus extra edges; ``weights=None`` gives unit weights."""
    names = [f"v{i}" for i in range(n_vertices)]
    pairs = []
    seen = set()
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        pairs.append((j, i))
        seen.add((j, i))
    max_edges = n_vertices * (n_vertices - 1) // 2
    target = min(n_vertices - 1 + cyclomatic, max_edges)
    while len(pairs) < target:
        i, j = sorted(rng.sample(range(n_vertices), 2))
        if (i, j) not in seen:
            seen.add((i, j))
            pairs.append((i, j))
    edges = []
    for i, j in pairs:
        if weights is None:
            wuv = wvu = 1.0
        else:
            wuv, wvu = rng.uniform(*weights), rng.uniform(*weights)
        edges.append({"u": names[i], "v": names[j], "wuv": wuv, "wvu": wvu,
                      "bt_uv": False, "bt_vu": False})
    return {"vertices": names, "edges": edges}


def flag_edges(rng: random.Random, doc: dict, symmetric: bool) -> None:
    """Flag one edge: both orientations, or exactly one of them."""
    edge = rng.choice(doc["edges"])
    if symmetric:
        edge["bt_uv"] = edge["bt_vu"] = True
    else:
        edge["bt_uv" if rng.random() < 0.5 else "bt_vu"] = True


def unit_twin(doc: dict) -> dict:
    """Same structure, every orientation weight 1."""
    return {
        "vertices": list(doc["vertices"]),
        "edges": [dict(e, wuv=1.0, wvu=1.0) for e in doc["edges"]],
    }


def random_unitary(rng: random.Random) -> list[list[complex]]:
    """Random 2x2 unitary e^{i phi} [[a, -conj b], [b, conj a]], |a|^2+|b|^2 = 1."""
    theta = rng.uniform(0.0, math.pi / 2)
    alpha, beta, phi = (rng.uniform(-math.pi, math.pi) for _ in range(3))
    a = math.cos(theta) * cmath.exp(1j * alpha)
    b = math.sin(theta) * cmath.exp(1j * beta)
    g = cmath.exp(1j * phi)
    return [[g * a, -g * b.conjugate()], [g * b, g * a.conjugate()]]


def attach_local_system(rng: random.Random, doc: dict) -> None:
    """A 2-dim unitary transport on each edge's listed orientation; the file
    format makes the reverse transport the conjugate transpose."""
    transfers = []
    for e in doc["edges"]:
        U = random_unitary(rng)
        transfers.append({
            "u": e["u"],
            "v": e["v"],
            "matrix": [[[z.real, z.imag] for z in row] for row in U],
        })
    doc["local_system"] = {"dim": 2, "transfers": transfers}


def oriented(doc: dict) -> tuple[list, dict, set]:
    """Oriented edges, their weights and the flagged ones, from a document."""
    edges, weight, flagged = [], {}, set()
    for e in doc["edges"]:
        u, v = e["u"], e["v"]
        edges += [(u, v), (v, u)]
        weight[(u, v)], weight[(v, u)] = float(e["wuv"]), float(e["wvu"])
        if e.get("bt_uv"):
            flagged.add((u, v))
        if e.get("bt_vu"):
            flagged.add((v, u))
    return edges, weight, flagged


def transfer(doc: dict) -> sp.csr_matrix:
    """Weighted non-backtracking operator: column e holds w(f) at row f for
    every continuation f of e, the reversal only where e is flagged."""
    edges, weight, flagged = oriented(doc)
    index = {e: i for i, e in enumerate(edges)}
    out: dict[str, list] = {}
    for e in edges:
        out.setdefault(e[0], []).append(e)
    rows, cols, vals = [], [], []
    for e in edges:
        for f in out.get(e[1], ()):
            if f[1] == e[0] and e not in flagged:
                continue
            rows.append(index[f])
            cols.append(index[e])
            vals.append(weight[f])
    n = len(edges)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def oracle_work(doc: dict, length: int = PRIME_LENGTH) -> int:
    """Rooted closed admissible edge sequences of length 1..length."""
    T = (transfer(doc) != 0).astype(np.int64).toarray()
    P = np.eye(T.shape[0], dtype=np.int64)
    total = 0
    for _ in range(length):
        P = T @ P
        total += int(np.trace(P))
    return total


def _small_graph(rng: random.Random, n_vertices: int, cyclomatic: int, kind: str) -> dict:
    best, best_gap = None, None
    for _ in range(ORACLE_DRAWS):
        doc = random_document(rng, n_vertices, cyclomatic, None if kind == "unit" else (0.1, 1.0))
        if kind in ("symmetric", "asymmetric"):
            flag_edges(rng, doc, symmetric=kind == "symmetric")
        gap = abs(math.log(oracle_work(doc) / ORACLE_TARGET))
        if best_gap is None or gap < best_gap:
            best, best_gap = doc, gap
    return best


# (vertices, cyclomatic number) slots per workload.  V = 6 keeps the vertex
# determinant at d <= 6, where MatrixSeries.det runs its det_minors check.
SMALL_SLOTS = ((6, 3), (7, 3), (8, 4), (10, 5))
SMALL_KINDS = ("weighted", "unit", "symmetric", "asymmetric")
MEDIUM_SLOTS = ((40, 8), (56, 8))
TWISTED_SLOTS = ((30, 8), (45, 8))
LARGE_SLOTS = ((300, 151), (500, 502))  # 900 and 2002 oriented edges
MEDIUM_WEIGHTS = (0.2, 0.6)


def build_corpus(workload: str, seed: int) -> Corpus:
    """Graphs and the job list of one workload; a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    corpus = Corpus(workload, seed)
    order = ("--order", str(ORDER))
    if workload == "check-small":
        for kind in SMALL_KINDS:
            for nv, cyc in SMALL_SLOTS:
                g = corpus.add(Graph(f"{kind}-{nv}", _small_graph(rng, nv, cyc, kind), kind))
                corpus.jobs.append(Job("check", ("check", "{file}", *order), g.name))
                corpus.jobs.append(
                    Job("primes", ("primes", "{file}", "--max-len", str(PRIME_LENGTH)), g.name))
        for family in ("triangle-chain", "ladder"):
            r = round(rng.uniform(0.3, 0.7), 6)
            corpus.jobs.append(Job("family", ("family", "--name", family, "--r", repr(r),
                                              "--study", str(FAMILY_STUDY), *order)))
    elif workload == "routes-medium":
        for nv, cyc in MEDIUM_SLOTS:
            doc = random_document(rng, nv, cyc, MEDIUM_WEIGHTS)
            g = corpus.add(Graph(f"weighted-{nv}", doc, "weighted"))
            twin = corpus.add(Graph(f"unit-{nv}", unit_twin(doc), "unit"))
            # bass runs on the weighted graph only: its block determinant is
            # the costliest job here and the twin adds no new dimension.
            for route in ("fredholm", "sunada", "bass"):
                corpus.jobs.append(Job(f"coeffs.{route}",
                                       ("coeffs", "{file}", *order, "--route", route), g.name))
            for route in ("fredholm", "sunada", "classical"):
                corpus.jobs.append(Job(f"coeffs.{route}",
                                       ("coeffs", "{file}", *order, "--route", route), twin.name))
        for nv, cyc in TWISTED_SLOTS:
            doc = random_document(rng, nv, cyc, MEDIUM_WEIGHTS)
            attach_local_system(rng, doc)
            g = corpus.add(Graph(f"twisted-{nv}", doc, "twisted", local_dim=2))
            corpus.jobs.append(Job("lfun", ("lfun", "{file}", *order), g.name))
    else:
        for nv, cyc in LARGE_SLOTS:
            g = corpus.add(Graph(f"large-{nv}", random_document(rng, nv, cyc, MEDIUM_WEIGHTS),
                                 "weighted"))
            corpus.jobs.append(Job("coeffs.fredholm",
                                   ("coeffs", "{file}", *order, "--route", "fredholm"), g.name))
            if 2 * g.edge_count <= 2000:  # the CLI's pole dimension cap
                corpus.jobs.append(Job("poles", ("poles", "{file}"), g.name))
            corpus.jobs.append(Job("stats", ("stats", "{file}"), g.name))
    cold_rng = random.Random(f"cold:{seed}")
    corpus.cold_graph = Graph("cold", random_document(cold_rng, 8, 3, (0.1, 1.0)), "weighted")
    return corpus


def document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_corpus(corpus: Corpus, directory: Path) -> dict[str, Path]:
    """Write every graph file; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for g in [*corpus.graphs.values(), corpus.cold_graph]:
        path = directory / f"{g.name}.json"
        path.write_text(document_text(g.doc))
        paths[g.name] = path
    return paths


def job_argv(job: Job, paths: dict[str, Path]) -> list[str]:
    return [str(paths[job.graph]) if a == "{file}" else a for a in job.argv]
