"""Command-line front end.

Subcommands: threshold, report, sweep, gainmap, validate. Parameters come
from an optional JSON config file plus flag overrides (flags win). Lengths
may be given in meters or in wavelength multiples with a `lambda` suffix
(e.g. `12.65lambda`); they are resolved to meters exactly once, at config
load. Nothing in the pipeline is random.

Exit codes: 0 success, 1 validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import beamfocus, experiments
from .beamfocus import GainMode
from .channel import build_channel  # noqa: F401  (benchmarks/test_benchmark.py traces it here)
from .experiments import SystemParams, coaxial_system

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
    "energy_fraction": None,
    "power": "total transmit power",
    "noise_variance": None,
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


def load_config(args) -> tuple[SystemParams, str | None]:
    """Merge defaults, an optional JSON config file and flag overrides.

    Returns the validated parameters and the output path (None: the
    command's default).
    """
    merged = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
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
    settings = ("energy_fraction", "power", "noise_variance")
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


def cmd_threshold(params: SystemParams) -> int:
    d_th = beamfocus.spacing_threshold(params.n_antennas, params.wavelength, params.separation)
    eps = beamfocus.paraxial_parameter(
        params.n_antennas, params.spacing, params.wavelength, params.separation
    )
    print(f"d_threshold = {d_th:.4g} m = {d_th / params.wavelength:.4g} lambda")
    print(f"configured spacing = {params.spacing:.4g} m -> epsilon = {eps:.4g}")
    return EXIT_OK


# report prints these fields of the one-point sweep record, plus energy_fraction
REPORT_FIELDS = (
    "n_dof", "n_edof_exact", "n_edof_fringes", "n_edof_trace", "capacity_full", "capacity_edof_exact"
)


def cmd_report(params: SystemParams, as_json: bool, output: str | None) -> int:
    _check_outputs(output)
    record = experiments.point_metrics(params, params.spacing)
    payload = {name: getattr(record, name) for name in REPORT_FIELDS}
    payload["energy_fraction"] = params.energy_fraction
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
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
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    target = args.preset
    if target in experiments.preset_names():
        kind, payload, notes = experiments.load_preset(target)
        default_output = f"{target}.csv"
    else:
        with open(target) as fh:
            data = json.load(fh)
        kind = "sweep"
        payload = experiments.SweepSpec.from_dict(data)
        notes = data.get("notes")
        stem = os.path.splitext(target)[0]
        default_output = f"{stem}.out.csv"
    output = args.output or default_output

    if kind == "profile":
        _check_outputs(output)
        profile = experiments.eigen_profile(payload)
        experiments.write_profile_csv(profile, output)
        print(f"wrote {len(profile)} eigenvalues to {output}")
        return EXIT_OK

    _check_outputs(output, f"{output}.spec.json")
    records = experiments.run_sweep(payload)
    experiments.write_sweep_csv(records, output, spec=payload, notes=notes)
    print(f"wrote {len(records)} records to {output} (+ sidecar {output}.spec.json)")
    return EXIT_OK


def cmd_gainmap(params: SystemParams, output: str | None, args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.extent is None:
        extent = 2 * beamfocus.spacing_threshold(
            params.n_antennas, params.wavelength, params.separation
        )
    else:
        extent = parse_length(args.extent, params.wavelength, "--extent")
        if not 0 < extent < np.inf:
            raise ValueError(f"--extent must be a positive finite length, got {args.extent}")
    output = output or "gainmap.csv"
    _check_outputs(output)
    geometry = coaxial_system(
        params.side_count, params.spacing, params.separation, params.wavelength
    )
    setup = beamfocus.make_focus_setup(geometry)
    coords = np.linspace(-extent, extent, args.points)
    probes = [(x, y) for x in coords for y in coords]
    rows = beamfocus.gain_map(setup, probes, GainMode(args.mode))
    beamfocus.write_gain_map_csv(rows, output)
    print(f"wrote {len(rows)} probes to {output}")
    return EXIT_OK


def cmd_validate(params: SystemParams) -> int:
    d_th = beamfocus.spacing_threshold(params.n_antennas, params.wavelength, params.separation)
    grid = [f * d_th for f in np.linspace(0.2, 1.0, 17)]
    report = experiments.validate_closed_form(
        [params.side_count], grid, params.wavelength, params.separation
    )
    print(f"max normalized closed-form error: {report['max_normalized_error']:.4g}")
    print("PASS" if report["passes"] else "FAIL")
    return EXIT_OK if report["passes"] else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad argument, so main reports it as one line with exit 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument("preset", help=f"preset name ({', '.join(experiments.preset_names())}) or spec file")
    p_sweep.add_argument("--output", help="output CSV path")

    p_map = add_parser(
        "gainmap", "focal-spot gain map over the receive plane", (*SYSTEM_FLAGS, "output")
    )
    p_map.add_argument("--mode", choices=[m.value for m in GainMode], default="phase_only")
    p_map.add_argument("--extent", help="half-width of the probe grid (meters or lambda)")
    p_map.add_argument("--points", type=int, default=41, help="probes per axis")

    validate_flags = ("wavelength", "side_count", "separation")
    add_parser("validate", "check the closed-form gain against the phasor sum", validate_flags)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "sweep":
            return cmd_sweep(args)
        params, output = load_config(args)
        if args.command == "threshold":
            return cmd_threshold(params)
        if args.command == "report":
            return cmd_report(params, args.json, output)
        if args.command == "gainmap":
            return cmd_gainmap(params, output, args)
        if args.command == "validate":
            return cmd_validate(params)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (np.linalg.LinAlgError, experiments.SweepError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
