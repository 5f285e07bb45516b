"""nfmimo benchmark: run one workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload sweep_spacing --seed 1 --seconds 20 --trace 0

Runs WORKERS workload processes one after another (worker.py), each timing
whole passes over the seeded inputs for its share of --seconds. BLAS threads
are pinned to the number of usable cores. After the workers end, every
distinct output is checked against the oracle (oracle.py), outside any timed
region. With --trace 0 the end-to-end metrics are printed, with --trace 1
the per-layer metrics of a traced run. The result file with provenance is
written to .bench_out/<workload>-seed<seed>-trace<trace>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
# set before numpy loads OpenBLAS, in this process and in the workers
BLAS_ENV = {
    name: str(min(BLAS_THREADS, NPROC))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

WORKERS = 3  # set-up is timed once per worker; setup_s is their median
MIN_PASSES = 3  # 3 workers x 3 passes x 15 ops: at least 13 samples beyond p90
WORKER_TIMEOUT_S = 150

# (name, unit, better)
END_TO_END_METRICS = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, index: int, run_dir: Path) -> dict:
    out = run_dir / f"worker{index}"
    out.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / WORKERS),
        "--min-passes", str(1 if args.trace else MIN_PASSES),
        "--trace", str(args.trace),
        "--out", str(out),
        "--spawned-at",
    ]
    with open(out / "stderr.txt", "w") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            cmd + [repr(spawned_at)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {index} ran longer than {WORKER_TIMEOUT_S} s")
    if code != 0:
        tail = (out / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"worker {index} exited with {code}:\n{tail}")
    return json.loads((out / "result.json").read_text())


def verify(workload: str, inputs: list, results: list) -> dict:
    """Oracle-check each distinct output once; failures count every op that produced it."""
    import oracle

    verdicts = {}  # input index -> list of (output, Checker)
    failed = 0
    problems = []
    ambiguous = 0
    worst_ratio = 0.0
    for result in results:
        if result["inputs"] != inputs:
            raise BenchError("worker inputs differ from the seeded inputs")
        for key, output in result["outputs"].items():
            seen = verdicts.setdefault(key, [])
            checker = next((c for o, c in seen if o == output), None)
            if checker is None:
                checker = oracle.check(workload, inputs[int(key)], output)
                seen.append((output, checker))
                ambiguous += checker.ambiguous
                worst_ratio = max(worst_ratio, checker.worst_ratio)
            if checker.problems:
                failed += result["runs_per_output"][key]
                problems.extend(f"input {key}: {p}" for p in checker.problems)
    return {
        "failed": failed,
        "problems": problems,
        "distinct_outputs_checked": sum(len(v) for v in verdicts.values()),
        "ambiguous_integer_checks": ambiguous,
        "worst_error_over_tolerance": worst_ratio,
    }


def end_to_end(results: list, attempted: int, failed: int) -> dict:
    latency_ms = sorted(1000 * t for r in results for t in r["latency_s"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": sum(len(r["latency_s"]) for r in results) / sum(r["wall_s"] for r in results),
        "op_ms_p50": statistics.median(latency_ms),
        "op_ms_p90": statistics.quantiles(latency_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(results: list) -> dict:
    totals = {}
    for r in results:
        for key, value in r["layer_totals"].items():
            totals[key] = totals.get(key, 0) + value
    return tracing.per_op_metrics(
        totals,
        n_ops=sum(r["traced_ops"] for r in results),
        traced_s=sum(sum(r["traced_latency_s"]) for r in results),
        untraced_s=sum(sum(r["latency_s"]) for r in results),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (ROOT / "src" / "nfmimo" / "__init__.py").is_file():
        print(f"error: no nfmimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        results = [run_worker(args, i, run_dir) for i in range(WORKERS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for work in run_dir.glob("worker*/work"):
            shutil.rmtree(work, ignore_errors=True)

    inputs = workloads.make_inputs(args.workload, args.seed)
    try:
        check = verify(args.workload, inputs, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    executions = sum(len(r["latency_s"]) + len(r.get("traced_latency_s", [])) for r in results)
    failed = min(executions, sum(len(r["failures"]) for r in results) + check["failed"])
    if args.trace:
        metrics = per_layer(results)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    else:
        metrics = end_to_end(results, executions, failed)
        units = {name: unit for name, unit, _ in END_TO_END_METRICS}

    import numpy

    provenance = {
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": results[0]["openblas"],
        "blas_threads": results[0]["blas_threads"],
        "nproc": NPROC,
        "platform": platform.platform(),
        "workers": WORKERS,
        "ops_per_pass": workloads.OPS_PER_PASS,
    }
    report = {
        "correct": failed == 0,
        "attempted": executions,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "provenance": provenance,
        "samples": executions,
        "passes": [r["passes"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "oracle": check,
        "failures": [f for r in results for f in r["failures"]][:50],
        "inputs": inputs,
    }
    (run_dir / "result.json").write_text(json.dumps({**report, **details}, indent=1))
    for problem in (details["failures"] + check["problems"])[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
