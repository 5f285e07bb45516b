"""Span tracing of nfmimo's public functions, from outside the package.

`Tracer.install` replaces every public function of the traced modules
wherever any loaded nfmimo module holds a reference to it (`cli` and
`experiments` import `build_channel` and `build_upa` by name), and
`uninstall` puts the originals back. Each call records a span: id, name,
start, end, parent span and op id. Spans stay in memory until the caller
writes them out.

A span's self time is its duration minus the durations of its direct
children. Self time is summed per layer, named as in `LAYER_OF`; a function
missing from that map takes the layer of its caller when the caller is in
the same module, else the module's first layer.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("geometry", "channel", "spectrum", "beamfocus", "experiments", "cli")

LAYER_OF = {
    "spectrum.eigen_spectrum": "spectrum.decomp",
    "spectrum.spectrum_from_eigenvalues": "spectrum.decomp",
    "spectrum.count_dof": "spectrum.reduce",
    "spectrum.edof_exact": "spectrum.reduce",
    "spectrum.edof_fringes": "spectrum.reduce",
    "spectrum.edof_trace": "spectrum.reduce",
    "spectrum.edof_report": "spectrum.reduce",
    "spectrum.plane_area": "spectrum.reduce",
    "spectrum.capacity": "spectrum.reduce",
    "beamfocus.array_gain": "beamfocus.gain",
    "beamfocus.snr_at": "beamfocus.gain",
    "beamfocus.gain_map": "beamfocus.gain_map",
    "beamfocus.make_focus_setup": "beamfocus.setup",
    "beamfocus.focusing_phases": "beamfocus.setup",
    "beamfocus.wrap_phase": "beamfocus.setup",
    "beamfocus.array_gain_closed_form": "beamfocus.closed_form",
    "beamfocus.spacing_threshold": "beamfocus.closed_form",
    "beamfocus.paraxial_parameter": "beamfocus.closed_form",
    "beamfocus.write_gain_map_csv": "beamfocus.write",
    "experiments.write_sweep_csv": "experiments.write",
    "experiments.write_profile_csv": "experiments.write",
}
MODULE_LAYER = {
    "geometry": "geometry",
    "channel": "channel",
    "spectrum": "spectrum.reduce",
    "beamfocus": "beamfocus.closed_form",
    "experiments": "experiments",
    "cli": "cli",
}
LAYERS = (
    "geometry",
    "channel",
    "spectrum.decomp",
    "spectrum.reduce",
    "beamfocus.gain",
    "beamfocus.gain_map",
    "beamfocus.setup",
    "beamfocus.closed_form",
    "beamfocus.write",
    "experiments",
    "experiments.write",
    "cli",
)
# call counts are taken at one function per layer
CALLS_OF = {
    "geometry.calls": "geometry.build_upa",
    "channel.calls": "channel.build_channel",
    "spectrum.decomp.calls": "spectrum.eigen_spectrum",
    "beamfocus.gain.calls": "beamfocus.array_gain",
    "cli.calls": "cli.main",
}

# (name, unit, better); every value is a mean per traced op unless the unit says otherwise
PER_LAYER_METRICS = (
    ("spectrum.decomp.calls", "calls/op", "lower"),
    ("spectrum.decomp.self_ms", "ms/op", "lower"),
    ("spectrum.decomp.flops_computed", "flop/op", "lower"),
    ("spectrum.reduce.self_ms", "ms/op", "lower"),
    ("spectrum.edof_share", "frac", "lower"),
    ("channel.calls", "calls/op", "lower"),
    ("channel.self_ms", "ms/op", "lower"),
    ("channel.entries", "entries/op", "lower"),
    ("channel.bytes_computed", "B/op", "lower"),
    ("beamfocus.gain.calls", "calls/op", "lower"),
    ("beamfocus.gain.self_ms", "ms/op", "lower"),
    ("beamfocus.gain_map.self_ms", "ms/op", "lower"),
    ("beamfocus.probes", "probes/op", "lower"),
    ("beamfocus.setup.self_ms", "ms/op", "lower"),
    ("beamfocus.closed_form.self_ms", "ms/op", "lower"),
    ("beamfocus.write.self_ms", "ms/op", "lower"),
    ("beamfocus.write.bytes", "B/op", "lower"),
    ("experiments.self_ms", "ms/op", "lower"),
    ("experiments.write.self_ms", "ms/op", "lower"),
    ("experiments.write.bytes", "B/op", "lower"),
    ("cli.calls", "calls/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("geometry.calls", "calls/op", "lower"),
    ("geometry.self_ms", "ms/op", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# Counters read from a call's arguments and result, after it returns.
def _meter_channel(counts, args, result):
    counts["channel.entries"] += result.entries.size
    counts["channel.bytes_computed"] += result.entries.nbytes


def _meter_decomp(counts, args, result):
    m, n = args["channel"].entries.shape
    counts["spectrum.decomp.flops_computed"] += m * n * min(m, n)
    counts["spectrum.eigenvalues"] += result.values.size


def _meter_edof(counts, args, result):
    counts["spectrum.edof_exact"] += result


def _meter_gain_map(counts, args, result):
    counts["beamfocus.probes"] += len(result)


def _meter_gain_csv(counts, args, result):
    counts["beamfocus.write.bytes"] += _file_bytes(args["path"])


def _meter_sweep_csv(counts, args, result):
    path = args["path"]
    sidecar = str(path) + ".spec.json" if args.get("spec") is not None else None
    counts["experiments.write.bytes"] += _file_bytes(path) + _file_bytes(sidecar)


METERS = {
    "channel.build_channel": _meter_channel,
    "spectrum.eigen_spectrum": _meter_decomp,
    "spectrum.edof_exact": _meter_edof,
    "beamfocus.gain_map": _meter_gain_map,
    "beamfocus.write_gain_map_csv": _meter_gain_csv,
    "experiments.write_sweep_csv": _meter_sweep_csv,
}


def public_functions(package):
    """(qualified name, function) for each public function of the traced modules."""
    found = []
    for short in TRACED_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found.append((f"{short}.{name}", obj))
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.counts = collections.Counter()
        self.op = None
        self._stack: list[int] = []
        self._installed: list = []  # (module, attribute, original)
        self._wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions(package)}

    def _wrap(self, name: str, fn):
        meter = METERS.get(name)
        signature = inspect.signature(fn) if meter else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.op)
            if meter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                meter(counts, bound.arguments, result)
            return result

        return traced

    def install(self):
        if self._installed:
            return
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self) -> dict:
        """Self time per layer (ns), call counts and meter counters, summed over all spans."""
        return summarize(self.spans, self.counts)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                )
                fh.write("\n")


def summarize(spans, counts) -> dict:
    child_ns = [0] * len(spans)
    layer_of_span = [None] * len(spans)
    for span_id, name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals = {f"{layer}.self_ns": 0 for layer in LAYERS}
    totals.update({metric: 0 for metric in CALLS_OF})
    calls_metric = {fn: metric for metric, fn in CALLS_OF.items()}
    # parents start before their children, so span order resolves inherited layers
    for span_id, name, start, end, parent, _ in spans:
        module = name.split(".", 1)[0]
        layer = LAYER_OF.get(name)
        if layer is None:
            parent_name = spans[parent][1] if parent is not None else ""
            if parent_name.split(".", 1)[0] == module:
                layer = layer_of_span[parent]
            else:
                layer = MODULE_LAYER[module]
        layer_of_span[span_id] = layer
        totals[f"{layer}.self_ns"] += end - start - child_ns[span_id]
        if name in calls_metric:
            totals[calls_metric[name]] += 1
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value
    return totals


def per_op_metrics(totals: dict, n_ops: int, traced_s: float, untraced_s: float) -> dict:
    """The PER_LAYER_METRICS values from summed totals over `n_ops` traced ops."""
    values = {}
    for name, unit, _ in PER_LAYER_METRICS:
        if name.endswith(".self_ms"):
            values[name] = totals.get(name[: -len("ms")] + "ns", 0) / 1e6 / n_ops
        elif name == "spectrum.edof_share":
            eigenvalues = totals.get("spectrum.eigenvalues", 0)
            values[name] = totals.get("spectrum.edof_exact", 0) / eigenvalues if eigenvalues else 0.0
        elif name == "trace.overhead_frac":
            values[name] = 1.0 - untraced_s / traced_s
        else:
            values[name] = totals.get(name, 0) / n_ops
    return values
