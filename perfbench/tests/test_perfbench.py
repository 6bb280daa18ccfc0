"""Tests of the benchmark itself: corpus determinism, verifiers, tracing and
a short run of every workload.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import spans  # noqa: E402
from verify import Verifier  # noqa: E402
from zetagraph import cli, routes, series  # noqa: E402


# -- corpus ------------------------------------------------------------------

@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    a = corpus.write_corpus(corpus.build_corpus(workload, 7), tmp_path / "a")
    b = corpus.write_corpus(corpus.build_corpus(workload, 7), tmp_path / "b")
    c = corpus.write_corpus(corpus.build_corpus(workload, 8), tmp_path / "c")
    assert sorted(a) == sorted(b) == sorted(c)
    assert all(a[k].read_bytes() == b[k].read_bytes() for k in a)
    assert any(a[k].read_bytes() != c[k].read_bytes() for k in a)


def test_sizes_are_fixed_by_the_workload_not_the_seed():
    for workload in corpus.WORKLOADS:
        shapes = {tuple((s["V"], s["E"], s["d"]) for s in
                        (g.sizes() for g in corpus.build_corpus(workload, seed).graphs.values()))
                  for seed in (1, 2)}
        assert len(shapes) == 1


# -- verifiers ---------------------------------------------------------------

def _graphs() -> dict[str, corpus.Graph]:
    rng = random.Random("verifier-test")
    weighted = corpus.random_document(rng, 8, 3, (0.1, 1.0))
    sym = corpus.random_document(rng, 7, 3, (0.1, 1.0))
    corpus.flag_edges(rng, sym, symmetric=True)
    asym = corpus.random_document(rng, 7, 3, (0.1, 1.0))
    corpus.flag_edges(rng, asym, symmetric=False)
    twisted = corpus.random_document(rng, 10, 4, (0.2, 0.6))
    corpus.attach_local_system(rng, twisted)
    large = corpus.random_document(rng, 120, 60, (0.2, 0.6))
    return {
        "weighted": corpus.Graph("weighted", weighted, "weighted"),
        "unit": corpus.Graph("unit", corpus.unit_twin(weighted), "unit"),
        "symmetric": corpus.Graph("symmetric", sym, "symmetric"),
        "asymmetric": corpus.Graph("asymmetric", asym, "asymmetric"),
        "twisted": corpus.Graph("twisted", twisted, "twisted", local_dim=2),
        "large": corpus.Graph("large", large, "weighted"),
    }


def _bump(line: str, field: int, by: float = 1e-6) -> str:
    parts = line.split(",")
    parts[field] = repr(float(parts[field]) + by)
    return ",".join(parts)


def _perturb_row(row: int, field: int):
    def corrupt(out: str, err: str):
        lines = out.splitlines()
        lines[row] = _bump(lines[row], field)
        return "\n".join(lines) + "\n", err
    return corrupt


def _flip_verdict(out: str, err: str):
    return out.replace("agree", "disagree", 1), err


def _drop_note(out: str, err: str):
    return out, ""


ORDER = ("--order", str(corpus.ORDER))
CASES = [
    # (command, argv, graph, corruption)
    ("check", ("check", "{file}", *ORDER), "weighted", _flip_verdict),
    ("check", ("check", "{file}", *ORDER), "unit", _flip_verdict),
    ("check", ("check", "{file}", *ORDER), "symmetric", _flip_verdict),
    ("check", ("check", "{file}", *ORDER), "asymmetric", _drop_note),
    ("primes", ("primes", "{file}", "--max-len", "8"), "symmetric", _perturb_row(-1, 1)),
    ("family", ("family", "--name", "ladder", "--r", "0.5", "--study", "4", *ORDER), None,
     _perturb_row(20, 2)),
    ("coeffs.fredholm", ("coeffs", "{file}", *ORDER, "--route", "fredholm"), "weighted",
     _perturb_row(6, 1)),
    ("coeffs.sunada", ("coeffs", "{file}", *ORDER, "--route", "sunada"), "weighted",
     _perturb_row(9, 2)),
    ("coeffs.bass", ("coeffs", "{file}", *ORDER, "--route", "bass"), "weighted",
     _perturb_row(12, 1)),
    ("coeffs.classical", ("coeffs", "{file}", *ORDER, "--route", "classical"), "unit",
     _perturb_row(13, 1)),
    ("coeffs.fredholm", ("coeffs", "{file}", *ORDER, "--route", "fredholm"), "large",
     _perturb_row(13, 1)),
    ("lfun", ("lfun", "{file}", *ORDER), "twisted", _perturb_row(8, 2)),
    ("poles", ("poles", "{file}"), "large", _perturb_row(1, 0)),
    ("stats", ("stats", "{file}"), "large", _perturb_row(5, 1)),
]


@pytest.fixture(scope="module")
def verifier_setup(tmp_path_factory):
    graphs = _graphs()
    directory = tmp_path_factory.mktemp("graphs")
    paths = {}
    for g in graphs.values():
        paths[g.name] = directory / f"{g.name}.json"
        paths[g.name].write_text(corpus.document_text(g.doc))
    return Verifier(graphs), paths


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,argv,graph,corrupt", CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_verifier_accepts_output_and_rejects_corruption(verifier_setup, command, argv, graph,
                                                        corrupt):
    verifier, paths = verifier_setup
    job = corpus.Job(command, argv, graph)
    code, out, err = _run(corpus.job_argv(job, paths))
    assert verifier.verify(job, code, out, err) is None
    bad_out, bad_err = corrupt(out, err)
    assert (bad_out, bad_err) != (out, err)
    assert verifier.verify(job, code, bad_out, bad_err) is not None
    assert verifier.verify(job, 2, out, err) is not None


# -- tracing -----------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores():
    originals = (routes.transfer_matrix, routes.ROUTE_BUILDERS["bass"], cli.cross_validate,
                 series.MatrixSeries.__dict__["det"])
    with spans.Tracer() as tracer:
        assert not tracer.absent
        assert routes.transfer_matrix.__wrapped__ is originals[0]
        assert routes.ROUTE_BUILDERS["bass"].__wrapped__ is originals[1]
        assert cli.cross_validate.__wrapped__ is originals[2]
        assert series.MatrixSeries.__dict__["det"].__wrapped__ is originals[3]
        tracer.job = 0
        _run(["family", "--name", "ladder", "--r", "0.5", "--study", "2", "--order", "4"])
    assert (routes.transfer_matrix, routes.ROUTE_BUILDERS["bass"], cli.cross_validate,
            series.MatrixSeries.__dict__["det"]) == originals
    summary = spans.summarize(tracer.spans)
    assert summary["families.convergence_study"]["calls"] == 1
    assert summary["routes.zeta_fredholm"]["calls"] == 3
    assert summary["operators.transfer_matrix"]["calls"] == 3
    assert tracer.counters["series.fredholm_det.dim_sum"] > 0


def test_summarize_self_time_subtracts_children_and_skips_recursion():
    s = [spans.Span("routes.zeta_bass", 0.0, 10.0, -1, 0),
         spans.Span("series.MatrixSeries.det", 1.0, 7.0, 0, 0),
         spans.Span("series.MatrixSeries.det", 2.0, 3.0, 1, 0),
         spans.Span("operators.zigzag_matrix", 8.0, 9.0, 0, 0)]
    out = spans.summarize(s)
    assert out["routes.zeta_bass"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert out["series.MatrixSeries.det"] == {"calls": 2, "busy_s": 6.0, "self_s": 6.0}
    assert out["operators.zigzag_matrix"]["self_s"] == 1.0


# -- whole runs --------------------------------------------------------------

def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_short_run_reports_every_named_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for m in spec["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "check-small", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
