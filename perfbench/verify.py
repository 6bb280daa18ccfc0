"""Output verifiers, one per CLI command.

Each verifier checks a job's output by an identity that does not rerun the
code path that produced it:

- coefficients (every ``coeffs`` route) are compared with det(1 - uT) from
  power traces of a transfer matrix built here from the graph document,
  with sparse-times-dense products and the Newton recursion;
- on graphs too large for the oracle, ``fredholm`` is also compared with
  the Ihara-Bass closed form ``zetagraph.routes.sunada_point_value`` at
  points inside the disc, on 1 - Z^{-1}(u0);
- ``primes``: sum of primitive_length * weight over classes of length n
  equals tr T^n;
- ``poles``: the power sums of the reciprocal poles equal the Newton sums
  of the verified coefficients;
- ``lfun``: the determinant route matches ``twist.lfunction`` by the
  Fredholm route on the twisted transfer operator;
- ``check``: exit 0, every row agrees, the routes compared and the notes
  follow the applicability rules;
- ``family``: coefficient deltas match power traces of each truncation;
- ``stats``: counts, Euler number, weights and valency match the document.

A verifier returns None when the output passes and a one-line reason when
it does not.
"""

from __future__ import annotations

import numpy as np

from corpus import ORDER, Graph, Job, document_text, oriented, transfer
from zetagraph.families import make_source
from zetagraph.graph import parse_graph
from zetagraph.routes import sunada_point_value
from zetagraph.twist import lfunction, load_local_system

TOL = 1e-9
# 1 - Z^{-1}(u0) is compared where the order-12 truncation tail is far below
# this relative tolerance: |u0| * (spectral bound of T) <= POINT_SCALE.
POINT_TOL = 1e-7
POINT_SCALE = 0.12


def close(a, b, tol: float = TOL) -> bool:
    """Per-entry |a - b| <= tol + tol * max(1, |a|, |b|)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    ref = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= tol + tol * ref))


def power_traces(T, order: int) -> np.ndarray:
    """p[n] = tr T^n for n = 1..order, by T @ (dense power)."""
    p = np.zeros(order + 1, dtype=complex)
    P = np.eye(T.shape[0], dtype=T.dtype)
    for n in range(1, order + 1):
        P = T @ P
        p[n] = np.trace(P)
    return p


def newton(p: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of det(1 - uT) from power traces."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -np.dot(p[1 : k + 1], c[k - 1 :: -1][:k]) / k
    return c


def newton_sums(c: np.ndarray) -> np.ndarray:
    """Power sums of the reciprocal roots of sum_k c_k u^k (inverse Newton)."""
    order = len(c) - 1
    p = np.zeros(order + 1, dtype=complex)
    for n in range(1, order + 1):
        p[n] = -n * c[n] - np.dot(p[1:n], c[n - 1 : 0 : -1])
    return p


def parse_csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def parse_series(text: str) -> np.ndarray:
    rows = parse_csv(text, "n,re,im")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("coefficient indices are not 0..M")
    return np.array([complex(float(r[1]), float(r[2])) for r in rows])


def graph_doc_of(wg) -> dict:
    """Document form of a zetagraph WeightedGraph (used for family blocks)."""
    edges = [{"u": u, "v": v, "wuv": wg.weight[(u, v)], "wvu": wg.weight[(v, u)],
              "bt_uv": (u, v) in wg.backtrack, "bt_vu": (v, u) in wg.backtrack}
             for u, v in wg.edges]
    return {"vertices": list(wg.vertices), "edges": edges}


class Verifier:
    """Checks job outputs against references computed here from the corpus."""

    def __init__(self, graphs: dict[str, Graph]):
        self.graphs = graphs
        self._references: dict[str, np.ndarray] = {}

    def reference(self, name: str) -> np.ndarray:
        """Independent det(1 - uT) coefficients of a corpus graph, order ORDER."""
        if name not in self._references:
            T = transfer(self.graphs[name].doc)
            self._references[name] = newton(power_traces(T, ORDER), ORDER)
        return self._references[name]

    def verify(self, job: Job, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        try:
            command = job.command.split(".")[0]
            return getattr(self, f"_{command}")(job, out, err)
        except (ValueError, IndexError, KeyError) as exc:
            return f"unreadable output: {exc}"

    # -- one method per command -------------------------------------------

    def _coeffs(self, job: Job, out: str, err: str) -> str | None:
        got = parse_series(out)
        if len(got) != ORDER + 1:
            return f"expected {ORDER + 1} coefficients, got {len(got)}"
        if not close(got, self.reference(job.graph)):
            dev = np.max(np.abs(got - self.reference(job.graph)))
            return f"coefficients deviate from power-trace reference by {dev:.3g}"
        if job.command == "coeffs.fredholm" and self.graphs[job.graph].vertex_count >= 100:
            return self._point_values(job.graph, got)
        return None

    def _point_values(self, name: str, coeffs: np.ndarray) -> str | None:
        doc = self.graphs[name].doc
        g = parse_graph(document_text(doc))
        T = transfer(doc)
        r = POINT_SCALE / abs(T).sum(axis=0).max()  # the 1-norm bounds the spectral radius
        for u0 in (r, 1j * r, -0.8 * r):
            exact = 1.0 - sunada_point_value(g, u0)
            series = 1.0 - np.polyval(coeffs[::-1], u0)
            if abs(series - exact) > POINT_TOL * abs(exact):
                return (f"1 - Z^-1({u0:.4g}) is {series:.12g} from the coefficients, "
                        f"{exact:.12g} from the vertex determinant")
        return None

    def _check(self, job: Job, out: str, err: str) -> str | None:
        doc = self.graphs[job.graph].doc
        _, weight, flagged = oriented(doc)
        expected = {"oracle", "fredholm"}
        notes = []
        if not flagged:
            expected |= {"sunada", "bass"}
            if all(w == 1.0 for w in weight.values()):
                expected.add("classical")
        elif all((v, u) in flagged for u, v in flagged):
            expected.add("partial")
        else:
            notes.append("note: asymmetric-backtrack-set")
        rows = parse_csv(out, "routeA,routeB,max_dev,verdict")
        names = sorted(expected)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        if [(r[0], r[1]) for r in rows] != pairs:
            return f"compared {[(r[0], r[1]) for r in rows]}, expected {pairs}"
        bad = [r for r in rows if r[3] != "agree" or not float(r[2]) <= 1e-6]
        if bad:
            return f"routes disagree: {bad[0]}"
        if err.splitlines() != notes:
            return f"notes {err.splitlines()}, expected {notes}"
        return None

    def _primes(self, job: Job, out: str, err: str) -> str | None:
        rows = parse_csv(out, "length,weight,primitive_length,is_prime,edge_sequence")
        length = int(job.argv[job.argv.index("--max-len") + 1])
        totals = np.zeros(length + 1)
        for r in rows:
            n, w, prim = int(r[0]), float(r[1]), int(r[2])
            if (r[3] == "true") != (prim == n) or not 1 <= n <= length:
                return f"inconsistent class row {r}"
            totals[n] += prim * w
        p = power_traces(transfer(self.graphs[job.graph].doc), length).real
        if not close(totals[1:], p[1:]):
            n = int(np.argmax(np.abs(totals - p)))
            return f"classes of length {n} weigh {totals[n]!r}, tr T^{n} = {p[n]!r}"
        return None

    def _poles(self, job: Job, out: str, err: str) -> str | None:
        rows = parse_csv(out, "re,im,multiplicity")
        lam = np.array([1.0 / complex(float(r[0]), float(r[1])) for r in rows])
        mult = np.array([int(r[2]) for r in rows])
        expected = newton_sums(self.reference(job.graph))
        for n in range(1, len(expected)):
            got = np.sum(mult * lam**n)
            scale = np.sum(mult * np.abs(lam) ** n)
            if abs(got - expected[n]) > 1e-9 * (1.0 + scale):
                return f"sum of lambda^{n} over poles is {got:.12g}, Newton sum {expected[n]:.12g}"
        return None

    def _lfun(self, job: Job, out: str, err: str) -> str | None:
        doc = self.graphs[job.graph].doc
        g = parse_graph(document_text(doc))
        ref = lfunction(g, load_local_system(doc, g), ORDER, route="fredholm").coefficients()
        got = parse_series(out)
        if not close(got, ref):
            return f"L-series deviates from the twisted Fredholm route by {np.max(np.abs(got - ref)):.3g}"
        return None

    def _family(self, job: Job, out: str, err: str) -> str | None:
        argv = list(job.argv)
        name, r = argv[argv.index("--name") + 1], float(argv[argv.index("--r") + 1])
        kmax = int(argv[argv.index("--study") + 1])
        order = int(argv[argv.index("--order") + 1])
        source = make_source(name, r)
        coeffs = [newton(power_traces(transfer(graph_doc_of(source.block(k))), order), order)
                  for k in range(kmax + 1)]
        rows = parse_csv(out, "k,n,delta")
        expected = [(k, n) for k in range(kmax) for n in range(order + 1)]
        if [(int(r[0]), int(r[1])) for r in rows] != expected:
            return "study rows are not k = 0..KMAX-1 by n = 0..M"
        got = np.array([float(r[2]) for r in rows])
        ref = np.array([abs(coeffs[k + 1][n] - coeffs[k][n]) for k, n in expected])
        if not close(got, ref):
            return f"coefficient deltas deviate by {np.max(np.abs(got - ref)):.3g}"
        return None

    def _stats(self, job: Job, out: str, err: str) -> str | None:
        return verify_stats(self.graphs[job.graph], out)


def verify_stats(graph: Graph, out: str) -> str | None:
    """Counts, Euler number, total weight and valency of a stats report."""
    doc = graph.doc
    rows = dict(parse_csv(out, "key,value"))
    degree: dict[str, int] = {}
    for e in doc["edges"]:
        degree[e["u"]] = degree.get(e["u"], 0) + 1
        degree[e["v"]] = degree.get(e["v"], 0) + 1
    want = {
        "vertex_count": graph.vertex_count,
        "unoriented_edge_count": graph.edge_count,
        "oriented_edge_count": 2 * graph.edge_count,
        "euler_number": graph.vertex_count - graph.edge_count,
        "valency_bound": max(degree.values()),
        "backtrack_flag_count": sum(e["bt_uv"] + e["bt_vu"] for e in doc["edges"]),
    }
    for key, value in want.items():
        if int(rows[key]) != value:
            return f"{key} is {rows[key]}, generator says {value}"
    total = sum(e["wuv"] + e["wvu"] for e in doc["edges"])
    if not close(float(rows["total_weight"]), total):
        return f"total_weight is {rows['total_weight']}, generator says {total!r}"
    roundtrips = sum(1 for k in rows if k.startswith("roundtrip_weight["))
    if roundtrips != graph.edge_count:
        return f"{roundtrips} roundtrip rows for {graph.edge_count} edges"
    return None
