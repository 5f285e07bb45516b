"""Tests of the benchmark itself: seeded inputs, spans per op and the oracle."""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import nfmimo  # noqa: E402
import nfmimo.cli  # noqa: E402,F401

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cheapest(workload: str, seed: int = 3) -> dict:
    """The seeded input with the fewest antennas or probes, to keep tests quick."""
    inputs = workloads.make_inputs(workload, seed)
    if workload == "offaxis_dense":
        return min(inputs, key=lambda i: i["tx_side"] ** 2 * i["rx_side"] ** 2)
    if workload == "gainmap_cli":
        return min(inputs, key=lambda i: i["points"])
    return inputs[workloads.warmup_index(workload, inputs)]  # the threshold spacing


class TracedOp:
    """One op run untraced, then traced, with the spans of the traced run."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.inp = cheapest(workload)
        ops = workloads.Operations(nfmimo, workload, [self.inp], workdir)
        self.plain = ops.capture(ops.execute(0, self.inp))
        tracer = tracing.Tracer(nfmimo)
        tracer.op = 0
        with tracer:
            raw = ops.execute(0, self.inp)
        self.traced = ops.capture(raw)
        self.spans = tracer.spans
        self.calls = collections.Counter(span[1] for span in tracer.spans)


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    return {w: TracedOp(w, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.make_inputs(workload, 7)
    assert first == workloads.make_inputs(workload, 7)
    assert first != workloads.make_inputs(workload, 8)
    assert len(first) == workloads.OPS_PER_PASS
    assert len({json.dumps(i, sort_keys=True) for i in first}) == len(first)


def test_inputs_cover_the_stated_ranges():
    lam = workloads.WAVELENGTH
    sweep = [i["spacing"] for i in workloads.make_inputs("sweep_spacing", 5)]
    assert workloads.threshold_spacing() in sweep
    assert all(2 * lam <= d <= 20 * lam for d in sweep)
    gain = workloads.make_inputs("gainmap_cli", 5)
    assert {i["mode"] for i in gain} == set(workloads.GAIN_MODES)
    assert sorted(i["points"] for i in gain) == sorted(workloads.GAIN_POINTS)
    assert min(workloads.GAIN_POINTS) == 21 and max(workloads.GAIN_POINTS) == 61
    off = workloads.make_inputs("offaxis_dense", 5)
    assert all(10 <= i[k] <= 40 for i in off for k in ("tx_side", "rx_side"))
    assert all(i["tx_side"] != i["rx_side"] for i in off)
    assert max(i["tx_side"] for i in off) == max(i["rx_side"] for i in off) == 40
    assert all(10 <= i["separation"] <= 80 for i in off)


def test_sweep_op_spans_match_one_point(traced_ops):
    calls = traced_ops["sweep_spacing"].calls
    assert calls["geometry.build_upa"] == 2
    assert calls["channel.build_channel"] == 1
    assert calls["spectrum.eigen_spectrum"] == 1
    assert calls["beamfocus.array_gain"] == 1
    assert calls["cli.main"] == 1
    assert calls["experiments.run_sweep"] == 1
    assert calls["experiments.write_sweep_csv"] == 1


def test_gainmap_op_spans_match_probe_count(traced_ops):
    op = traced_ops["gainmap_cli"]
    assert op.calls["beamfocus.array_gain"] == op.inp["points"] ** 2
    assert op.calls["beamfocus.gain_map"] == 1
    assert op.calls["beamfocus.write_gain_map_csv"] == 1
    assert op.calls["geometry.build_upa"] == 2
    assert op.calls["channel.build_channel"] == 0
    assert op.calls["spectrum.eigen_spectrum"] == 0


def test_offaxis_op_spans_match_library_calls(traced_ops):
    calls = traced_ops["offaxis_dense"].calls
    assert calls["geometry.build_upa"] == 2
    assert calls["channel.build_channel"] == 1
    assert calls["spectrum.eigen_spectrum"] == 1
    assert calls["spectrum.capacity"] == 2
    assert calls["cli.main"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_output_equals_untraced_and_passes_oracle(traced_ops, workload):
    op = traced_ops[workload]
    assert op.traced == op.plain
    assert oracle.check(workload, op.inp, op.plain).problems == []
    assert all(span[5] == 0 for span in op.spans)


def test_tracer_restores_every_original():
    def snapshot():
        return {
            (name, attr): value
            for name, module in sys.modules.items()
            if name == "nfmimo" or name.startswith("nfmimo.")
            for attr, value in vars(module).items()
        }

    before = snapshot()
    tracer = tracing.Tracer(nfmimo)
    with tracer:
        assert nfmimo.cli.build_channel is not before[("nfmimo.channel", "build_channel")]
        assert nfmimo.experiments.build_upa is nfmimo.geometry.build_upa
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children_and_helpers_inherit_layer():
    spans = [
        (0, "cli.main", 0, 100, None, 0),
        (1, "spectrum.eigen_spectrum", 10, 50, 0, 0),
        (2, "spectrum.new_helper", 20, 30, 1, 0),
        (3, "spectrum.capacity", 60, 65, 0, 0),
        (4, "spectrum.new_helper", 70, 72, 0, 0),
    ]
    totals = tracing.summarize(spans, {})
    assert totals["cli.self_ns"] == 100 - 40 - 5 - 2
    assert totals["spectrum.decomp.self_ns"] == 40
    assert totals["spectrum.reduce.self_ns"] == 5 + 2
    assert totals["cli.calls"] == 1 and totals["spectrum.decomp.calls"] == 1


def _perturb_csv_field(csv_text: str, column: int, change) -> str:
    header, row = csv_text.splitlines()[:2]
    cells = row.split(",")
    cells[column] = change(cells[column])
    return "\n".join([header, ",".join(cells)]) + "\n"


def _sweep_capacity(out):
    col = oracle.SWEEP_FIELDS.index("capacity_full")
    return {**out, "csv": _perturb_csv_field(out["csv"], col, lambda v: repr(float(v) * (1 + 1e-9)))}


def _sweep_edof(out):
    col = oracle.SWEEP_FIELDS.index("n_edof_exact")
    return {**out, "csv": _perturb_csv_field(out["csv"], col, lambda v: str(int(v) + 1))}


def _gain_value(out):
    lines = out["csv"].splitlines()
    x, y, mode, gain = lines[1].split(",")
    lines[1] = ",".join([x, y, mode, repr(float(gain) * (1 + 1e-6))])
    return {**out, "csv": "\n".join(lines) + "\n"}


def _offaxis_value(out):
    values = list(out["values"])
    values[0] *= 1 + 1e-6
    return {**out, "values": values}


def _offaxis_dof(out):
    return {**out, "n_edof_exact": out["n_edof_exact"] + 1}


PERTURBATIONS = [
    ("sweep_spacing", _sweep_capacity),
    ("sweep_spacing", _sweep_edof),
    ("gainmap_cli", _gain_value),
    ("offaxis_dense", _offaxis_value),
    ("offaxis_dense", _offaxis_dof),
]


@pytest.mark.parametrize("workload, perturb", PERTURBATIONS, ids=[p.__name__ for _, p in PERTURBATIONS])
def test_oracle_counts_perturbed_output_as_failure(traced_ops, workload, perturb):
    op = traced_ops[workload]
    bad = perturb(op.plain)
    assert oracle.check(workload, op.inp, bad).problems
    inputs = [op.inp]
    results = [{"inputs": inputs, "outputs": {"0": bad}, "runs_per_output": {"0": 3}}]
    assert run.verify(workload, inputs, results)["failed"] == 3


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER_METRICS)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep_spacing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
