"""Command-line front end.

Subcommands: threshold, report, sweep, gainmap. Each parameter is
a flag that carries its default. Lengths may be given in meters or in
wavelength multiples with a `lambda` suffix (e.g. `12.65lambda`); they are
resolved to meters exactly once, in load_params. Nothing in the pipeline
is random. The closed-form gain check is
the `rho1_closed` and `rho1_phase_only` columns of any spacing sweep.

Exit codes: 0 success, 1 malformed input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
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


def parse_length(text: str, wavelength: float, name: str = "length") -> float:
    """Parse a length in meters or in wavelength multiples (`lambda` suffix).

    A value that is neither raises ValueError naming `name`.
    """
    s = text.strip()
    try:
        if s.endswith("lambda"):
            return float(s[: -len("lambda")]) * wavelength
        return float(s)
    except ValueError:
        raise ValueError(
            f"{name} must be a length in meters or wavelengths (e.g. 12.65lambda), got {text!r}"
        ) from None


# Each parameter flag: dest -> (help text, default text); a subcommand takes the flags it
# reads. Values arrive as text and convert in load_params; a default of None leaves the
# SystemParams default.
FLAGS = {
    "wavelength": ("carrier wavelength in meters", "0.01"),
    "side_count": ("antennas per side", "25"),
    "spacing": ("antenna spacing (meters or e.g. 0.5lambda)", "0.5lambda"),
    "separation": ("plane separation (meters or e.g. 4000lambda)", "4000lambda"),
    "energy_fraction": (
        "fraction of the Gram energy the exact EDoF captures "
        f"(default {spectrum.DEFAULT_ENERGY_FRACTION})",
        None,
    ),
    "power": ("total transmit power at unit noise variance", None),
}
SYSTEM_FLAGS = ("wavelength", "side_count", "spacing", "separation")


def _number(name, text, kind):
    """Convert a flag's text to `kind`; SystemParams or the subcommand checks the rest."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


def _read_json(path):
    """Decode a UTF-8 JSON file; malformed input, nesting too deep included, names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_params(args) -> SystemParams:
    """The validated parameters of the flags, each as given or at its default."""
    # lengths in lambda need the wavelength before SystemParams can check it
    wavelength = _number("wavelength", args.wavelength, float)
    settings = {name: getattr(args, name, None) for name in ("energy_fraction", "power")}
    return SystemParams(
        wavelength=wavelength,
        side_count=_number("side_count", args.side_count, int),
        spacing=parse_length(args.spacing, wavelength, "spacing"),
        separation=parse_length(args.separation, wavelength, "separation"),
        **{name: _number(name, text, float) for name, text in settings.items() if text is not None},
    )


@contextlib.contextmanager
def _check_outputs(*paths):
    """Open each output path for append, creating a missing file and truncating none, so an
    unwritable path fails before the work inside; if anything fails, remove the files created."""
    created = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        yield
    except BaseException:
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise


def cmd_threshold(args) -> int:
    params = load_params(args)
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
    params = load_params(args)
    with computing(params):
        record = experiments.point_metrics(params, params.spacing)
    payload = {name: getattr(record, name) for name in REPORT_FIELDS}
    payload["energy_fraction"] = params.energy_fraction
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n_dof           = {record.n_dof}")
        print(f"n_edof_exact    = {record.n_edof_exact}")
        print(f"n_edof_fringes  = {record.n_edof_fringes:.4g}")
        print(f"n_edof_trace    = {record.n_edof_trace:.4g}")
        print(f"energy_fraction = {params.energy_fraction:.4g}")
        print(f"capacity_full       = {record.capacity_full:.4g} bits/s/Hz")
        print(f"capacity_edof_exact = {record.capacity_edof_exact:.4g} bits/s/Hz")
    return EXIT_OK


def cmd_sweep(args) -> int:
    target = args.preset
    if target in experiments.PRESETS:
        payload = experiments.PRESETS[target]
        default_output = f"{target}.csv"
    elif os.path.exists(target):
        payload = experiments.SweepSpec.from_dict(_read_json(target))
        default_output = f"{os.path.splitext(target)[0]}.out.csv"
    else:
        presets = ", ".join(experiments.PRESETS)
        raise ValueError(f"no preset or spec file {target!r}; presets: {presets}")
    output = default_output if args.output is None else args.output

    if not isinstance(payload, experiments.SweepSpec):
        with _check_outputs(output):
            with computing(payload):
                profile = experiments.eigen_profile(payload)
            experiments.write_profile_csv(profile, output)
        print(f"wrote {len(profile)} eigenvalues to {output}")
        return EXIT_OK

    sidecar = experiments.sidecar_path(output)
    with _check_outputs(output, sidecar):
        records = experiments.run_sweep(payload)
        experiments.write_sweep_csv(records, output, spec=payload)
    print(f"wrote {len(records)} records to {output} (+ sidecar {sidecar})")
    return EXIT_OK


def cmd_gainmap(args) -> int:
    params = load_params(args)
    points = _number("--points", args.points, int)
    if not 1 <= points <= experiments.MAX_GRID_POINTS:
        raise ValueError(f"--points must be from 1 to {experiments.MAX_GRID_POINTS}, got {points}")
    if args.extent is not None:
        extent = parse_length(args.extent, params.wavelength, "--extent")
        if not 0 < extent < np.inf:
            raise ValueError(f"--extent must be a positive finite length, got {args.extent}")
    output = "gainmap.csv" if args.output is None else args.output
    mode = GainMode(args.mode)
    with _check_outputs(output):
        with computing(params):
            if args.extent is None:
                extent = 2 * beamfocus.spacing_threshold(params)
            coords = np.linspace(-extent, extent, points).tolist() if points > 1 else [0.0]
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
        for dest in flags:
            text, default = FLAGS[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=text, default=default)
        return p

    add_parser("threshold", "print the optimal spacing threshold", SYSTEM_FLAGS)

    p_report = add_parser("report", "DoF/EDoF/capacity report for one configuration", FLAGS)
    p_report.add_argument("--json", action="store_true", help="print machine-readable JSON")

    p_sweep = sub.add_parser("sweep", help="run a preset or spec-file sweep to CSV")
    p_sweep.add_argument("preset", help=f"preset name ({', '.join(experiments.PRESETS)}) or spec file")
    p_sweep.add_argument("--output", help="output CSV path")

    p_map = add_parser("gainmap", "focal-spot gain map over the receive plane", SYSTEM_FLAGS)
    p_map.add_argument("--output", help="output CSV path")
    modes = [m.value for m in GainMode]
    p_map.add_argument("--mode", choices=modes, default="phase_only", help="gain model")
    p_map.add_argument("--extent", help="half-width of the probe grid (meters or lambda)")
    p_map.add_argument("--points", default="41", help="probes per axis")
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
