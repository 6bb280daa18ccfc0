"""One benchmark process: set up, run timed passes, verify, trace.

Started by run.py with the BLAS thread variables already set.  It prints
``READY`` once set-up is done (imports, corpus, graph files, an untimed
warm-up pass over every job), so the parent can time set-up from process
start.  With ``--setup-only`` it exits there.  Otherwise it prints detail
lines and, last, one JSON object with the measured metrics.

Every job is ``zetagraph.cli.main(argv)`` called in-process with stdout and
stderr captured, one after another: a closed loop with one client, as a
researcher's batch script uses the tool.  After each timed pass come a few
runs of a fixed reference workload and one cold ``stats`` run paired with a
cold start of zetagraph's dependencies; outputs are verified afterwards,
outside every timed window.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import corpus as corpus_mod
import spans
from verify import Verifier, verify_stats

ROOT = Path(__file__).resolve().parent.parent
TRACED_PASSES = 3
REFERENCE_PER_PASS = 5
COLD_REFERENCE = "import numpy, scipy.sparse"
MIN_PASSES = 3


def blas_config() -> dict:
    """Thread count and versions of the BLAS numpy is linked against."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so*"))
    if not found:
        raise RuntimeError(f"no scipy-openblas library in {libs}; cannot read the BLAS thread count")
    lib = ctypes.CDLL(str(found[0]))
    suffix = "64_" if "openblas64" in found[0].name else ""
    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    threads.restype, threads.argtypes = ctypes.c_int, []
    config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    config.restype, config.argtypes = ctypes.c_char_p, []
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": threads(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config().decode(),
    }


class Reference:
    """A fixed workload that shares no code with zetagraph, timed between
    passes: breadth-first searches over Python dicts and lists, dense
    matrix products and sparse matrix products.

    The host moves this machine between speed levels that differ by up to
    1.5x, for seconds to minutes at a time, so seconds measured in separate
    runs do not repeat.  Time divided by this reference, measured in the
    same stretch of the same run, cancels most of the machine's speed level.
    """

    def __init__(self):
        n = 400
        self.adjacency = {i: [(i + 1) % n, (i - 1) % n, (7 * i) % n] for i in range(n)}
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((250, 250))
        n, nnz = 3000, 9000
        self.sparse = sp.csr_matrix(
            (rng.standard_normal(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n))

    def seconds(self) -> float:
        start = time.perf_counter()
        for root in range(0, len(self.adjacency), 8):
            dist, frontier = {root: 0}, [root]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.adjacency[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
        for _ in range(2):
            self.dense @ self.dense
        for _ in range(2):
            self.sparse @ self.sparse
        return time.perf_counter() - start


def run_job(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = -1
            traceback.print_exc(file=err)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, jobs, argvs, tracer=None):
    """One closed-loop pass over the job list; returns (wall, results)."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = i
        results.append(run_job(cli, argv))
    return time.perf_counter() - start, results


def command_times(jobs, seconds) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for job, t in zip(jobs, seconds):
        totals[job.command] += t
    return totals


def cold_start(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one fresh interpreter running ``args``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    return time.perf_counter() - start, proc


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half: steady under rare stalls and under a speed
    level that holds for part of the run."""
    ordered = sorted(samples)
    k = len(ordered) // 4
    return statistics.mean(ordered[k : len(ordered) - k])


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest of p99/p95/p90/p75 with ten samples above it."""
    ordered = sorted(samples)
    out = {"samples": len(ordered), "p50": statistics.median(ordered)}
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[int(len(ordered) * p / 100)]
            break
    out["max"] = ordered[-1]
    return out


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # The host runs each vCPU at its own, changing speed; keeping the passes,
    # the reference and the cold runs on one vCPU makes their ratios repeat.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import zetagraph
    from zetagraph import cli

    if Path(zetagraph.__file__).resolve().parent != ROOT / "src" / "zetagraph":
        raise RuntimeError(f"imported zetagraph from {zetagraph.__file__}, not from {ROOT / 'src'}")
    blas = blas_config()
    wanted = int(os.environ["OPENBLAS_NUM_THREADS"])
    if blas["threads"] != wanted:
        raise RuntimeError(f"BLAS runs {blas['threads']} threads, {wanted} requested")

    corpus = corpus_mod.build_corpus(args.workload, args.seed)
    paths = corpus_mod.write_corpus(corpus, args.workdir)
    jobs = corpus.jobs
    argvs = [corpus_mod.job_argv(job, paths) for job in jobs]
    _, warm = run_pass(cli, jobs, argvs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # After each pass: the reference workload, one cold ``stats`` run and one
    # cold start of the interpreter with zetagraph's dependencies only, so
    # that every ratio compares times taken in the same stretch of machine
    # time.
    reference = Reference()
    passes, ref_times, cold, cold_refs = [], [], [], []
    cold_args = ["-m", "zetagraph", "stats", str(paths["cold"])]
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, jobs, argvs))
        ref_times += [reference.seconds() for _ in range(REFERENCE_PER_PASS)]
        cold.append(cold_start(cold_args))
        cold_refs.append(cold_start(["-c", COLD_REFERENCE])[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if blas_config()["threads"] != wanted:
        raise RuntimeError("the BLAS thread count changed while the passes ran")

    # verification, outside every timed window: the first timed pass is
    # checked by the verifiers, every other run must repeat it byte for byte
    verifier = Verifier(corpus.graphs)
    expected = passes[0][1]
    failures = []
    for job, (_, code, out, err) in zip(jobs, expected):
        reason = verifier.verify(job, code, out, err)
        if reason is not None:
            failures.append(f"{job.command} {job.graph or ''}: {reason}")

    def check_repeat(results, label: str) -> None:
        for job, a, b in zip(jobs, results, expected):
            if a[1:] != b[1:]:
                failures.append(f"{job.command} {job.graph or ''}: output differs in {label}")

    check_repeat(warm, "the warm-up pass")
    for i, (_, results) in enumerate(passes[1:], start=2):
        check_repeat(results, f"timed pass {i}")
    for i, (_, proc) in enumerate(cold, start=1):
        if proc.returncode != 0 or verify_stats(corpus.cold_graph, proc.stdout) is not None:
            failures.append(f"cold stats run {i}: exit {proc.returncode} {proc.stderr.strip()[:200]}")
    attempted = len(jobs) * (1 + len(passes)) + len(cold)

    walls = [wall for wall, _ in passes]
    cold_times = [seconds for seconds, _ in cold]
    wall_s = interquartile_mean(walls)
    cli_cold_s = interquartile_mean(cold_times)
    end_to_end = {
        "wall_ref": wall_s / interquartile_mean(ref_times),
        "cli_cold_ref": cli_cold_s / interquartile_mean(cold_refs),
        "peak_rss_mb": peak_rss_mb,
    }
    per_command = [command_times(jobs, [r[0] for r in results]) for _, results in passes]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "wall_s": wall_s,
        "reference_s": interquartile_mean(ref_times),
        "cli_cold_s": cli_cold_s,
        "cold_reference_s": interquartile_mean(cold_refs),
        "command_s": {f"{k}_s": interquartile_mean([c[k] for c in per_command])
                      for k in sorted(per_command[0])},
        "pass_walls_s": walls,
        "job_latency_s": latency_summary([r[0] for _, results in passes for r in results]),
        "cli_cold_samples_s": cold_times,
        "inputs": [g.sizes() for g in corpus.graphs.values()],
        "blas": blas,
    }

    per_layer = {}
    if args.trace:
        tracer_passes = []
        all_spans = []
        for i in range(TRACED_PASSES):
            with spans.Tracer() as tracer:
                traced = run_pass(cli, jobs, argvs, tracer)
            attempted += len(jobs)
            check_repeat(traced[1], f"traced pass {i + 1}")
            tracer_passes.append((traced, tracer))
            all_spans += [dict(vars(s), traced_pass=i) for s in tracer.spans]
        absent = tracer_passes[0][1].absent
        summaries = [spans.summarize(t.spans) for _, t in tracer_passes]
        silent = [name for name in spans.EXPECTED[args.workload]
                  if name not in absent and summaries[0][name]["calls"] == 0]
        if silent:
            raise RuntimeError(f"traced pass recorded no call of {', '.join(silent)}")
        rows = []
        for (_, tracer), summary in zip(tracer_passes, summaries):
            row = {f"{name}.{k}": v for name, stats in summary.items() for k, v in stats.items()}
            row.update({k: tracer.counters.get(k, 0.0) for k in spans.COUNTERS})
            classes = row["cycles.prime_cycles.classes"]
            row["cycles.prime_ratio"] = row["cycles.prime_cycles.primes"] / classes if classes else 0.0
            rows.append(row)
        per_layer = median_by_key(rows)
        per_layer["blas_threads"] = blas["threads"]
        per_layer["trace_overhead_s"] = interquartile_mean([p[0] for p, _ in tracer_passes]) - wall_s
        detail["absent_spans"] = absent
        (args.workdir / "spans.json").write_text(json.dumps(all_spans))

    failed = len(failures)
    detail["fail_ratio"] = failed / attempted
    detail["failures"] = failures[:20]
    (args.workdir / "report.json").write_text(json.dumps(
        {"detail": detail, "end_to_end": end_to_end, "per_layer": per_layer,
         "job_times_s": [[r[0] for r in results] for _, results in passes],
         "reference_samples_s": ref_times, "cold_reference_samples_s": cold_refs}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "end_to_end": end_to_end, "per_layer": per_layer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
