"""Benchmark of the zetagraph command line on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-small --seed 1 --seconds 20 --trace 0

Workloads (see corpus.py for the graphs and jobs):

- check-small: many small graphs through ``check``, ``primes`` and
  ``family --study``; oracle enumeration and the d <= 6 det_minors check
  dominate, the big kernels are tiny.
- routes-medium: medium graphs through every determinant route and
  ``lfun``; ``MatrixSeries.det`` dominates and no cycle enumeration runs.
- fredholm-large: sparse graphs of 900 and 2002 oriented edges through
  ``coeffs --route fredholm``, ``poles`` and ``stats``; operator build,
  power traces on both sides of the dense/sparse switch, eigenvalues and
  the girth search dominate.

This script only orchestrates: it pins the BLAS thread count for every
child, starts worker.py (which sets up, runs closed-loop passes for
``--seconds``, verifies every output and, with ``--trace 1``, runs separate
traced passes), then starts more set-up-only workers so that ``setup_s`` is
a median.  The last line of stdout is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``, named and with
units as in BENCHMARK.json.  The lines before it carry the detail: seconds
per pass and per command, job latencies, input sizes, BLAS configuration
and, with ``--trace 1``, every span.  Graph files, the full report and the
spans go to ``.perfbench_work/<workload>-<seed>/``.

End-to-end metrics:

- ``wall_ref``: time of one pass over the job list, divided by the time of
  a fixed reference workload timed between the passes (worker.Reference);
  both are interquartile means over the run.  Seconds on this kind of shared
  machine move with the host's speed level from run to run; the ratio
  cancels most of it.  Seconds are in the detail line.
- ``setup_s``: process start to ready (imports, corpus, graph files and an
  untimed warm-up pass over every job), median of several set-ups.
- ``cli_cold_ref``: a fresh ``python -m zetagraph stats`` process divided by
  a fresh ``python -c "import numpy, scipy.sparse"`` run right after it.
- ``peak_rss_mb``: peak resident memory of the measuring process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run; setup_s is their median
# One BLAS thread: on two shared vCPUs, two-thread OpenBLAS calls stalled for
# about a second roughly once in thirty calls.
BLAS_THREADS = 1
TIME_LIMIT = 170.0  # seconds; every child is killed after this


class WorkerError(RuntimeError):
    pass


def run_worker(args, env, deadline: float, setup_only: bool) -> tuple[float, list[str]]:
    """Start worker.py; returns (seconds from start to READY, lines after it)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(args.workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code}")
    return ready, lines


def metric_block(names_units: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise WorkerError(f"worker did not report {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names_units}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "zetagraph" / "__init__.py").is_file():
        print(f"perfbench: no zetagraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    args.workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    try:
        setup, lines = run_worker(args, env, deadline, setup_only=False)
        setups = [setup] + [run_worker(args, env, deadline, setup_only=True)[0]
                            for _ in range(SETUPS - 1)]
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        print(json.dumps({"setup_samples_s": setups}))
        if args.trace:
            print(json.dumps({"per_layer_all": result["per_layer"]}))
            metrics = metric_block(spec["per_layer"], result["per_layer"])
        else:
            metrics = metric_block(spec["end_to_end"], values)
    except (WorkerError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
