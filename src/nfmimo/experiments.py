"""Preset-driven sweep engine reproducing the reference figure datasets.

A sweep varies one of {spacing, antennas_per_side, separation} over a grid
while holding the rest of the system fixed, and emits one record per grid
point with every DoF / EDoF / gain / capacity metric. Sweeps are fully
deterministic: the same spec yields byte-identical CSV output.

When no transmit power is given it is resolved per point so that the
focused single-antenna SNR is 10 dB (the reference figures omit the SNR
setting, so capacity curves are shape-level reproductions only).

Every metric of one system comes from `point_metrics` on a validated
`SystemParams`; a sweep point and the CLI's `report` share that path.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import beamfocus, spectrum as sp
from .beamfocus import GainMode
from .channel import SystemGeometry, build_channel
from .geometry import build_upa

# swept variable -> the SystemParams field it sets
SWEPT_FIELD = {"spacing": "spacing", "antennas_per_side": "side_count", "separation": "separation"}
SWEPT_VARIABLES = tuple(SWEPT_FIELD)
DEFAULT_MAX_POINTS = 200
DEFAULT_FOCUSED_SNR_DB = 10.0


class SweepError(RuntimeError):
    """A sweep point failed; carries the offending grid value."""

    def __init__(self, swept_value, cause):
        super().__init__(f"sweep failed at grid value {swept_value!r}: {cause}")
        self.swept_value = swept_value


def _is_number(value) -> bool:
    """A finite real number that fits a float; bools and numeric strings are not numbers here."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


# field -> (what it must be, check)
FIELD_RULES = {
    "wavelength": ("a positive finite number", _is_positive),
    "side_count": ("an integer >= 1", _is_count),
    "spacing": ("a positive finite number", _is_positive),
    "separation": ("a positive finite number", _is_positive),
    "energy_fraction": ("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1),
    "power": ("null or a finite number >= 0", lambda v: v is None or (_is_number(v) and v >= 0)),
    "noise_variance": ("a positive finite number", _is_positive),
    "area_convention": (f"one of {sp.AREA_CONVENTIONS}", lambda v: v in sp.AREA_CONVENTIONS),
    "max_points": ("an integer >= 1", _is_count),
}


@dataclass(frozen=True, kw_only=True)
class SystemParams:
    """Two identical coaxial square UPAs and the metric settings (lengths in meters).

    The one validated parameter type: a wrong type, a non-finite number or
    an out-of-range value raises ValueError naming the field.
    """

    wavelength: float
    side_count: int
    spacing: float
    separation: float
    energy_fraction: float = sp.DEFAULT_ENERGY_FRACTION
    power: float | None = None  # None: auto, focused single-antenna SNR = 10 dB
    noise_variance: float = 1.0
    area_convention: str = "cell"

    def __post_init__(self):
        self._validate(swept=None)

    def _validate(self, swept: str | None) -> None:
        """Check every field against FIELD_RULES; the `swept` field must be None instead."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == swept:
                if value is not None:
                    raise ValueError(f"{swept} is swept and must not also be fixed")
            elif f.name in FIELD_RULES and not FIELD_RULES[f.name][1](value):
                raise ValueError(f"{f.name} must be {FIELD_RULES[f.name][0]}, got {value!r}")

    @property
    def n_antennas(self) -> int:
        return self.side_count**2


@dataclass(frozen=True, kw_only=True)
class SweepSpec(SystemParams):
    """One-variable sweep: SystemParams with the swept field unset, plus a grid."""

    swept_variable: str
    grid: tuple
    side_count: int | None = None
    spacing: float | None = None
    separation: float | None = None
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self):
        if self.swept_variable not in SWEPT_VARIABLES:
            raise ValueError(f"swept_variable must be one of {SWEPT_VARIABLES}")
        if not hasattr(self.grid, "__iter__"):
            raise ValueError(f"sweep grid must be a list of numbers, got {self.grid!r}")
        grid = tuple(self.grid)
        object.__setattr__(self, "grid", grid)
        self._validate(swept=SWEPT_FIELD[self.swept_variable])
        if len(grid) == 0:
            raise ValueError("sweep grid is empty")
        if len(grid) > self.max_points:
            raise ValueError(f"sweep grid has {len(grid)} points, cap is {self.max_points}")
        bad = [v for v in grid if not _is_number(v)]
        if bad:
            raise ValueError(f"sweep grid entries must be finite numbers, got {bad[0]!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        for value in grid:
            self.at(value)

    def at(self, value) -> SystemParams:
        """The parameters of the grid point `value`."""
        swept = SWEPT_FIELD[self.swept_variable]
        params = {f.name: getattr(self, f.name) for f in fields(SystemParams)}
        params[swept] = value if swept == "side_count" else float(value)
        return SystemParams(**params)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["grid"] = list(self.grid)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError("a sweep spec must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names - {"preset", "notes"}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing spec fields: {sorted(missing)}")
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class SweepRecord:
    swept_value: float
    n_dof: int
    n_edof_exact: int
    n_edof_fringes: float
    n_edof_trace: float
    rho1_closed: float
    rho1_phase_only: float
    capacity_full: float
    capacity_edof_exact: float
    capacity_edof_fringes: float
    capacity_edof_trace: float
    epsilon: float

    def as_row(self) -> tuple:
        return tuple(getattr(self, f) for f in RECORD_FIELDS)


RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))


def auto_power(n_antennas: int, separation: float, noise_variance: float) -> float:
    """Power making the focused single-antenna SNR equal 10 dB."""
    target = 10 ** (DEFAULT_FOCUSED_SNR_DB / 10)
    return target * noise_variance * (4 * math.pi * separation) ** 2 / n_antennas


def _estimator_truncation(estimate: float, n_values: int) -> int:
    """Map a real-valued EDoF estimate to a capacity truncation index."""
    return min(n_values, max(1, math.ceil(estimate)))


def coaxial_system(
    side_count: int, spacing: float, separation: float, wavelength: float
) -> SystemGeometry:
    """Two identical square UPAs, the transmitter at z = 0 and the receiver at z = separation."""
    tx = build_upa(side_count, spacing, 0.0)
    rx = build_upa(side_count, spacing, separation)
    return SystemGeometry(tx=tx, rx=rx, wavelength=wavelength)


def point_metrics(params: SystemParams, swept_value) -> SweepRecord:
    """Every DoF / EDoF / gain / capacity metric of one system."""
    p = params
    geometry = coaxial_system(p.side_count, p.spacing, p.separation, p.wavelength)
    spec_vals = sp.eigen_spectrum(build_channel(geometry))
    area_tx, area_rx = (sp.plane_area(a, p.area_convention) for a in (geometry.tx, geometry.rx))
    edof = sp.edof_report(spec_vals, area_tx, area_rx, p.wavelength, p.separation, p.energy_fraction)

    n = p.n_antennas
    setup = beamfocus.make_focus_setup(geometry)
    r1 = (p.spacing, 0.0, geometry.rx.plane_offset)
    power = p.power if p.power is not None else auto_power(n, p.separation, p.noise_variance)
    n_values = spec_vals.values.size

    def cap(truncate_to=None):
        return sp.capacity(spec_vals, power, p.noise_variance, n, truncate_to)

    return SweepRecord(
        swept_value=float(swept_value),
        n_dof=edof.n_dof,
        n_edof_exact=edof.n_edof_exact,
        n_edof_fringes=edof.n_edof_fringes,
        n_edof_trace=edof.n_edof_trace,
        rho1_closed=beamfocus.array_gain_closed_form(n, p.spacing, p.wavelength, p.separation),
        rho1_phase_only=beamfocus.array_gain(setup, r1, GainMode.PHASE_ONLY),
        capacity_full=cap(),
        capacity_edof_exact=cap(edof.n_edof_exact),
        capacity_edof_fringes=cap(_estimator_truncation(edof.n_edof_fringes, n_values)),
        capacity_edof_trace=cap(_estimator_truncation(edof.n_edof_trace, n_values)),
        epsilon=beamfocus.paraxial_parameter(n, p.spacing, p.wavelength, p.separation),
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Run the sweep, emitting records in grid order."""
    records = []
    for value in spec.grid:
        params = spec.at(value)  # cannot fail: the spec checked every grid value
        try:
            records.append(point_metrics(params, value))
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SweepError(value, exc) from exc
    return records


def eigen_profile(geometry: SystemGeometry) -> list[tuple[int, float]]:
    """Full descending Gram spectrum with 1-based indices."""
    spec_vals = sp.eigen_spectrum(build_channel(geometry))
    return [(i + 1, float(v)) for i, v in enumerate(spec_vals.values)]


def validate_closed_form(n_side_values, spacing_grid, wavelength, separation) -> dict:
    """Compare the Dirichlet closed form against the phase-only double sum.

    For each (side_count, spacing) pair reports |rho1_closed -
    rho1_phase_only| / N; passes when the worst error over points with
    epsilon <= 1 stays within 0.05. The grid must stay in the paraxial
    regime (epsilon <= 1.2).
    """
    rows = []
    for side in n_side_values:
        n = side * side
        for d in spacing_grid:
            eps = beamfocus.paraxial_parameter(n, d, wavelength, separation)
            if eps > 1.2:
                raise ValueError(
                    f"grid point side={side}, spacing={d} has epsilon={eps:.3f} > 1.2"
                )
            closed = beamfocus.array_gain_closed_form(n, d, wavelength, separation)
            setup = beamfocus.make_focus_setup(coaxial_system(side, d, separation, wavelength))
            phase_only = beamfocus.array_gain(setup, (d, 0.0, separation), GainMode.PHASE_ONLY)
            rows.append(
                {
                    "side_count": side,
                    "spacing": d,
                    "epsilon": eps,
                    "rho1_closed": closed,
                    "rho1_phase_only": phase_only,
                    "normalized_error": abs(closed - phase_only) / n,
                }
            )
    paraxial = [r["normalized_error"] for r in rows if r["epsilon"] <= 1.0]
    max_err = max(paraxial) if paraxial else 0.0
    return {
        "max_normalized_error": max_err,
        "passes": max_err <= 0.05,
        "rows": rows,
    }


def write_sweep_csv(records, path, spec: SweepSpec, notes=None) -> None:
    """Write records as CSV (17 significant digits) plus a JSON sidecar.

    The sidecar at <path>.spec.json holds the resolved spec; feeding it back
    through run_sweep reproduces the identical CSV.
    """

    def fmt(v):
        if isinstance(v, int):
            return str(v)
        return f"{v:.17g}"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for rec in records:
            fh.write(",".join(fmt(v) for v in rec.as_row()) + "\n")
    sidecar = spec.to_dict()
    if notes:
        sidecar["notes"] = notes
    with open(str(path) + ".spec.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_profile_csv(profile, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,eigenvalue\n")
        for idx, val in profile:
            fh.write(f"{idx},{val:.17g}\n")


def _fig5_grid(wavelength: float, separation: float, side_count: int):
    # quarter-wavelength steps plus the exact threshold point: the
    # half-wavelength grid misses the EDoF peak and aliases the secondary
    # gain null near epsilon = 2 into a spurious global maximum
    grid = set((np.arange(8, 80.001, 1) * 0.25 * wavelength).tolist())
    grid.add(beamfocus.spacing_threshold(side_count**2, wavelength, separation))
    return tuple(sorted(grid))


def _preset_fig2() -> tuple[SweepSpec, dict]:
    notes = {
        "inferred": "wavelength and separation are not given for this figure; "
        "the fig5 values (0.01 m, 40 m) are used"
    }
    spec = SweepSpec(
        swept_variable="antennas_per_side",
        grid=(5, 10, 20, 40),
        wavelength=0.01,
        spacing=0.005,
        separation=40.0,
    )
    return spec, notes


def _preset_fig3() -> tuple[SweepSpec, dict]:
    # 20 x 20 arrays with the spacing threshold at 3.2 lambda fixes
    # L = sqrt(N) d_threshold^2 / lambda = 2.048 m
    lam = 0.01
    sep = 20 * (3.2 * lam) ** 2 / lam
    notes = {
        "inferred": "separation is not given for this figure; it is derived from "
        "the stated threshold d = 3.2 lambda for 20x20 arrays (L = 2.048 m)"
    }
    spec = SweepSpec(
        swept_variable="spacing",
        grid=tuple((np.arange(4, 20.001, 1) * 0.25 * lam).tolist()),
        wavelength=lam,
        side_count=20,
        separation=sep,
    )
    return spec, notes


def _preset_fig5() -> tuple[SweepSpec, dict]:
    lam, sep, side = 0.01, 40.0, 25
    notes = {
        "grid": "0.25 lambda steps over [2, 20] lambda plus the exact threshold "
        "spacing, so the sweep samples the predicted EDoF peak"
    }
    spec = SweepSpec(
        swept_variable="spacing",
        grid=_fig5_grid(lam, sep, side),
        wavelength=lam,
        side_count=side,
        separation=sep,
    )
    return spec, notes


def _preset_xl() -> tuple[SweepSpec, dict]:
    lam, sep, largest = 0.01, 40.0, 100
    notes = {
        "grid": "the fig5 wavelength and separation at spacing sqrt(lambda L / 100) = 6.32 "
        "lambda, the threshold of the largest array, 100 x 100"
    }
    spec = SweepSpec(
        swept_variable="antennas_per_side",
        grid=(25, 50, 75, largest),
        wavelength=lam,
        spacing=beamfocus.spacing_threshold(largest**2, lam, sep),
        separation=sep,
    )
    return spec, notes


def _profile_spec(spacing_factor: float) -> SystemGeometry:
    lam, sep, side = 0.01, 40.0, 25
    d = spacing_factor * beamfocus.spacing_threshold(side**2, lam, sep)
    return coaxial_system(side, d, sep, lam)


SWEEP_PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig5": _preset_fig5,
    "fig6": _preset_fig5,
    "fig9": _preset_fig5,
    "xl": _preset_xl,
}

PROFILE_PRESETS = {
    "fig7": lambda: _profile_spec(0.8),
    "fig8": lambda: _profile_spec(1.5),
}


def preset_names() -> list[str]:
    return sorted(SWEEP_PRESETS) + sorted(PROFILE_PRESETS)


def load_preset(name: str):
    """Return ("sweep", SweepSpec, notes) or ("profile", SystemGeometry, notes)."""
    if name in SWEEP_PRESETS:
        spec, notes = SWEEP_PRESETS[name]()
        return "sweep", spec, notes
    if name in PROFILE_PRESETS:
        return "profile", PROFILE_PRESETS[name](), {}
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
