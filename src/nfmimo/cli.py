"""Command-line front end.

Subcommands: threshold, report, sweep, gainmap. Parameters come
from an optional JSON config file plus flag overrides (flags win). Lengths
may be given in meters or in wavelength multiples with a `lambda` suffix
(e.g. `12.65lambda`); they are resolved to meters exactly once, at config
load. Nothing in the pipeline is random. The closed-form gain check is
the `rho1_closed` and `rho1_phase_only` columns of any spacing sweep.

Exit codes: 0 success, 1 malformed input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import beamfocus, experiments, spectrum
from .beamfocus import GainMode
from .channel import build_channel  # noqa: F401  (benchmarks/test_benchmark.py traces it here)
from .experiments import SystemParams, coaxial_system, computing

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def parse_length(text, wavelength: float, name: str = "length") -> float:
    """Parse a length in meters or in wavelength multiples (`lambda` suffix).

    A value that is neither raises ValueError naming `name`.
    """
    try:
        if isinstance(text, (int, float)) and not isinstance(text, bool):
            return float(text)
        s = str(text).strip()
        if s.endswith("lambda"):
            return float(s[: -len("lambda")]) * wavelength
        return float(s)
    except (ValueError, OverflowError):
        raise ValueError(
            f"{name} must be a length in meters or wavelengths (e.g. 12.65lambda), got {text!r}"
        ) from None


# Each config field as a flag (dest -> help text). A subcommand takes the
# flags it reads; the JSON config file takes all, so one file serves all.
# Flag values arrive as strings and convert in load_config, as config strings do.
FLAGS = {
    "wavelength": "carrier wavelength in meters",
    "side_count": "antennas per side",
    "spacing": "antenna spacing (meters or e.g. 0.5lambda)",
    "separation": "plane separation (meters or e.g. 4000lambda)",
    "energy_fraction": "fraction of the Gram energy the exact EDoF captures "
    f"(default {spectrum.DEFAULT_ENERGY_FRACTION})",
    "power": "total transmit power at unit noise variance",
    "output": "output file path",
}
SYSTEM_FLAGS = ("wavelength", "side_count", "spacing", "separation")

DEFAULTS = {
    "wavelength": 0.01,
    "side_count": 25,
    "spacing": "0.5lambda",
    "separation": "4000lambda",
}


def _number(name, value, kind):
    """Quoted numbers, and ints for a float, convert to `kind`; SystemParams checks the rest."""
    if isinstance(value, str) or (kind is float and type(value) is int):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{name} must be {what}, got {value!r}") from None
    return value


def _read_json(path):
    """Decode a UTF-8 JSON file; malformed input, nesting too deep included, names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_config(args) -> tuple[SystemParams, str | None]:
    """Merge defaults, an optional JSON config file and flag overrides.

    Returns the validated parameters and the output path (None: the
    command's default).
    """
    merged = dict(DEFAULTS)
    if args.config:
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = set(data) - set(FLAGS)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        merged.update(data)
    for name in FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    output = merged.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError(f"output must be a path string, got {output!r}")

    # lengths in lambda need the wavelength before SystemParams can check it
    wavelength = _number("wavelength", merged["wavelength"], float)
    if not isinstance(wavelength, float):
        raise ValueError(f"wavelength must be a number, got {wavelength!r}")
    settings = ("energy_fraction", "power")
    params = SystemParams(
        wavelength=wavelength,
        side_count=_number("side_count", merged["side_count"], int),
        spacing=parse_length(merged["spacing"], wavelength, "spacing"),
        separation=parse_length(merged["separation"], wavelength, "separation"),
        **{name: _number(name, merged[name], float) for name in settings if name in merged},
    )
    return params, output


def _check_outputs(*paths) -> None:
    """Open each output path given for append, which creates a missing file and
    truncates none, so an unwritable path fails before any work."""
    for path in filter(None, paths):
        open(path, "a").close()


def cmd_threshold(args) -> int:
    params, _ = load_config(args)
    with computing(params):
        eps = beamfocus.paraxial_parameter(params)
        d_th = beamfocus.spacing_threshold(params)
    print(f"d_threshold = {d_th:.4g} m = {d_th / params.wavelength:.4g} lambda")
    print(f"configured spacing = {params.spacing:.4g} m -> epsilon = {eps:.4g}")
    return EXIT_OK


# report prints these fields of the one-point sweep record, plus energy_fraction
REPORT_FIELDS = (
    "n_dof", "n_edof_exact", "n_edof_fringes", "n_edof_trace", "capacity_full", "capacity_edof_exact"
)


def cmd_report(args) -> int:
    params, output = load_config(args)
    _check_outputs(output)
    with computing(params):
        record = experiments.point_metrics(params, params.spacing)
    payload = {name: getattr(record, name) for name in REPORT_FIELDS}
    payload["energy_fraction"] = params.energy_fraction
    encoded = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json:
        print(encoded, end="")
    else:
        print(f"n_dof           = {record.n_dof}")
        print(f"n_edof_exact    = {record.n_edof_exact}")
        print(f"n_edof_fringes  = {record.n_edof_fringes:.4g}")
        print(f"n_edof_trace    = {record.n_edof_trace:.4g}")
        print(f"energy_fraction = {params.energy_fraction:.4g}")
        print(f"capacity_full       = {record.capacity_full:.4g} bits/s/Hz")
        print(f"capacity_edof_exact = {record.capacity_edof_exact:.4g} bits/s/Hz")
    if output:
        with open(output, "w") as fh:
            fh.write(encoded)
    return EXIT_OK


def cmd_sweep(args) -> int:
    target = args.preset
    if target in experiments.PRESETS or not os.path.exists(target):
        payload = experiments.load_preset(target)
        default_output = f"{target}.csv"
    else:
        payload = experiments.SweepSpec.from_dict(_read_json(target))
        stem = os.path.splitext(target)[0]
        default_output = f"{stem}.out.csv"
    output = args.output or default_output

    if not isinstance(payload, experiments.SweepSpec):
        _check_outputs(output)
        with computing(payload):
            profile = experiments.eigen_profile(payload)
        experiments.write_profile_csv(profile, output)
        print(f"wrote {len(profile)} eigenvalues to {output}")
        return EXIT_OK

    sidecar = experiments.sidecar_path(output)
    _check_outputs(output, sidecar)
    records = experiments.run_sweep(payload)
    experiments.write_sweep_csv(records, output, spec=payload)
    print(f"wrote {len(records)} records to {output} (+ sidecar {sidecar})")
    return EXIT_OK


def cmd_gainmap(args) -> int:
    params, output = load_config(args)
    if not 1 <= args.points <= experiments.MAX_GRID_POINTS:
        raise ValueError(
            f"--points must be from 1 to {experiments.MAX_GRID_POINTS}, got {args.points}"
        )
    if args.extent is not None:
        extent = parse_length(args.extent, params.wavelength, "--extent")
        if not 0 < extent < np.inf:
            raise ValueError(f"--extent must be a positive finite length, got {args.extent}")
    output = output or "gainmap.csv"
    _check_outputs(output)
    mode = GainMode(args.mode)
    with computing(params):
        if args.extent is None:
            extent = 2 * beamfocus.spacing_threshold(params)
        coords = np.linspace(-extent, extent, args.points).tolist() if args.points > 1 else [0.0]
        setup = beamfocus.make_focus_setup(coaxial_system(params))
        gains = beamfocus.gain_map(setup, coords, mode)
    beamfocus.write_gain_map_csv(coords, mode, gains, output)
    print(f"wrote {len(gains)} probes to {output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad argument, so main reports it as one line with exit 1."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser per process, built on the first call: parse_args leaves it as it was."""
    parser = _Parser(
        prog="nfmimo",
        description="Near-field XL-MIMO channel metrics: EDoF, capacity, "
        "beam-focusing gains and the optimal antenna spacing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, summary, flags):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        for dest in flags:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=FLAGS[dest])
        return p

    add_parser("threshold", "print the optimal spacing threshold", SYSTEM_FLAGS)

    p_report = add_parser("report", "DoF/EDoF/capacity report for one configuration", FLAGS)
    p_report.add_argument("--json", action="store_true", help="print machine-readable JSON")

    p_sweep = sub.add_parser("sweep", help="run a preset or spec-file sweep to CSV")
    p_sweep.add_argument("preset", help=f"preset name ({', '.join(experiments.PRESETS)}) or spec file")
    p_sweep.add_argument("--output", help="output CSV path")

    p_map = add_parser(
        "gainmap", "focal-spot gain map over the receive plane",
        (*SYSTEM_FLAGS, "output"),
    )
    modes = [m.value for m in GainMode]
    p_map.add_argument("--mode", choices=modes, default="phase_only", help="gain model")
    p_map.add_argument("--extent", help="half-width of the probe grid (meters or lambda)")
    p_map.add_argument("--points", type=int, default=41, help="probes per axis")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up at call time, so a replaced module attribute (a tracer's) runs
        return globals()[f"cmd_{args.command}"](args)
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
