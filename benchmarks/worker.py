"""One workload process: set up, warm up, then run timed passes of ops.

Started by run.py, which passes the monotonic time at which it spawned this
process; set-up time runs from then to the first timed op. The process runs
one client in a closed loop: each op starts after the previous one returned.
Results go to <out>/result.json; spans of a traced run to <out>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_runtime() -> dict:
    """OpenBLAS config string and thread count, read from the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)  # the already-loaded library, not a second copy
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": "not found", "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import nfmimo
    import nfmimo.cli  # noqa: F401  (the package does not import its CLI)

    if Path(nfmimo.__file__).resolve().parent != SRC / "nfmimo":
        raise SystemExit(f"imported nfmimo from {nfmimo.__file__}, not from {SRC}")
    import tracing
    import workloads

    out_dir = Path(args.out)
    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.Operations(nfmimo, args.workload, inputs, out_dir / "work")
    tracer = tracing.Tracer(nfmimo) if args.trace else None
    warm = workloads.warmup_index(args.workload, inputs)
    ops.capture(ops.execute(warm, inputs[warm]))
    setup_s = time.monotonic() - args.spawned_at

    record = Recorder(ops)
    start = time.perf_counter()
    passes = 0
    while passes < args.min_passes or time.perf_counter() - start < args.seconds:
        for index, inp in enumerate(inputs):
            if tracer is None:
                record.timed(index, inp)
            else:
                record.paired(index, inp, tracer)
        passes += 1
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "inputs": inputs,
        "latency_s": record.latency,
        "failures": record.failures,
        "outputs": {str(i): out for i, out in record.outputs.items()},
        "runs_per_output": {str(i): n for i, n in record.runs.items()},
        **blas_runtime(),
    }
    if tracer is not None:
        result["traced_latency_s"] = record.traced_latency
        result["traced_ops"] = len(record.traced_latency)
        result["layer_totals"] = tracer.layer_totals()
        tracer.write_spans(out_dir / "spans.jsonl")
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


class Recorder:
    """Times ops and keeps one captured output per distinct input.

    A later output of the same input must equal the first; the first is
    checked against the oracle by run.py, so every output is checked.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latency: list[float] = []
        self.traced_latency: list[float] = []
        self.failures: list[str] = []
        self.outputs: dict[int, dict] = {}
        self.runs: dict[int, int] = {}

    def _run(self, index, inp):
        start = time.perf_counter()
        try:
            raw = self.ops.execute(index, inp)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            elapsed = time.perf_counter() - start
            self.failures.append(f"input {index}: {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        return elapsed, self.ops.capture(raw)

    def _keep(self, index, output) -> None:
        if output is None:
            return
        first = self.outputs.setdefault(index, output)
        if output != first:
            self.failures.append(f"input {index}: output differs from an earlier run of the same input")
            return
        self.runs[index] = self.runs.get(index, 0) + 1

    def timed(self, index, inp):
        elapsed, output = self._run(index, inp)
        self.latency.append(elapsed)
        self._keep(index, output)

    def paired(self, index, inp, tracer):
        """Run the input untraced and traced, alternating which goes first."""
        outputs = {}
        traced_first = len(self.latency) % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                tracer.op = len(self.traced_latency)
                tracer.install()
            try:
                elapsed, outputs[traced] = self._run(index, inp)
            finally:
                tracer.uninstall()
            (self.traced_latency if traced else self.latency).append(elapsed)
        if outputs[True] is not None and outputs[True] != outputs[False]:
            self.failures.append(f"input {index}: traced output differs from untraced output")
        for output in outputs.values():
            self._keep(index, output)


if __name__ == "__main__":
    sys.exit(main())
