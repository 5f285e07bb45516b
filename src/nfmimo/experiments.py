"""Preset-driven sweep engine reproducing the reference figure datasets.

A sweep varies one of {spacing, antennas_per_side, separation} over a grid
while holding the rest of the system fixed, and emits one record per grid
point with every DoF / EDoF / gain / capacity metric. Sweeps are fully
deterministic: the same spec yields byte-identical CSV output.

Capacity depends on the power only through the SNR P / sigma^2, so `power`
is the transmit power at unit noise variance. When none is given it is
resolved per point so that the focused single-antenna SNR is 10 dB (the
reference figures omit the SNR setting, so capacity curves are shape-level
reproductions only). The fringe EDoF estimate uses each array's cell area
N d^2, with which it equals N at the spacing threshold.

Every metric of one system comes from `point_metrics` on a validated
`SystemParams`; a sweep point and the CLI's `report` share that path. Each
record holds the closed-form check: `rho1_closed` and the phasor-sum
`rho1_phase_only` of the same neighbour.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import MISSING, astuple, dataclass, field, fields

import numpy as np

from . import beamfocus, spectrum as sp
from .beamfocus import GainMode
from .channel import SystemGeometry, build_channel
from .geometry import build_upa

# swept variable -> the SystemParams field it sets
SWEPT_FIELD = {"spacing": "spacing", "antennas_per_side": "side_count", "separation": "separation"}
SWEPT_VARIABLES = tuple(SWEPT_FIELD)
MAX_GRID_POINTS = 200
DEFAULT_FOCUSED_SNR_DB = 10.0


def _is_number(value) -> bool:
    """A finite real number that fits a float; bools and numeric strings are not numbers here."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _plain(value):
    """A number as the Python int or float it equals, which JSON holds; anything else as is."""
    if not _is_number(value):
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


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
    power: float | None = None  # at unit noise variance; None: focused single-antenna SNR = 10 dB

    def __post_init__(self):
        for name, (what, check) in FIELD_RULES.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")

    @property
    def n_antennas(self) -> int:
        return self.side_count**2


class NumericalError(ArithmeticError):
    """Computing on accepted parameters failed; the message names them."""


@contextlib.contextmanager
def computing(params: SystemParams):
    """The numerical-failure boundary: inside it numpy raises FloatingPointError where it would
    warn of an overflow, a division by zero or an invalid value, and a ValueError,
    ArithmeticError or MemoryError raised inside (LinAlgError, FloatingPointError and a failed
    allocation included) comes from computing on accepted input and is re-raised as a
    NumericalError naming `params`; an inner boundary's passes through."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except NumericalError:
        raise
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise NumericalError(
            f"{str(exc) or type(exc).__name__} at wavelength {params.wavelength!r} m, spacing "
            f"{params.spacing!r} m and separation {params.separation!r} m, side count "
            f"{params.side_count}"
        ) from exc


@dataclass(frozen=True, kw_only=True)
class SweepSpec(SystemParams):
    """One-variable sweep: SystemParams with the swept field unset, plus a grid;
    every grid point must give valid SystemParams, which checks the fixed fields."""

    swept_variable: str
    grid: tuple
    side_count: int | None = None
    spacing: float | None = None
    separation: float | None = None
    notes: dict | None = field(default=None, compare=False)  # written to the sidecar; no result reads them

    def __post_init__(self):
        if self.swept_variable not in SWEPT_VARIABLES:
            raise ValueError(f"swept_variable must be one of {SWEPT_VARIABLES}")
        try:
            json.dumps(self.notes, sort_keys=True)  # as the sidecar writes them
        except (TypeError, ValueError) as exc:
            raise ValueError(f"notes must be JSON the sidecar can write: {exc}") from None
        if not isinstance(self.grid, (list, tuple, np.ndarray)):
            raise ValueError(f"sweep grid must be a list of numbers, got {self.grid!r}")
        grid = tuple(map(_plain, self.grid))
        object.__setattr__(self, "grid", grid)
        for f in fields(SystemParams):
            object.__setattr__(self, f.name, _plain(getattr(self, f.name)))
        swept = SWEPT_FIELD[self.swept_variable]
        if getattr(self, swept) is not None:
            raise ValueError(f"{swept} is swept and must not also be fixed")
        if len(grid) == 0:
            raise ValueError("sweep grid is empty")
        if len(grid) > MAX_GRID_POINTS:
            raise ValueError(f"sweep grid has {len(grid)} points, cap is {MAX_GRID_POINTS}")
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
        if not self.notes:
            del data["notes"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError("a sweep spec must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
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


RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))


def auto_power(n_antennas: int, separation: float) -> float:
    """Power making the focused single-antenna SNR equal 10 dB at unit noise variance."""
    target = 10 ** (DEFAULT_FOCUSED_SNR_DB / 10)
    return target * (4 * math.pi * separation) ** 2 / n_antennas


def _estimator_truncation(estimate: float, n_values: int) -> int:
    """Map a real-valued EDoF estimate to a capacity truncation index."""
    return min(n_values, max(1, math.ceil(estimate)))


def coaxial_system(params: SystemParams) -> SystemGeometry:
    """Two identical square UPAs, the transmitter at z = 0 and the receiver at z = separation."""
    tx = build_upa(params.side_count, params.spacing, 0.0)
    rx = build_upa(params.side_count, params.spacing, params.separation)
    return SystemGeometry(tx=tx, rx=rx, wavelength=params.wavelength)


def point_metrics(params: SystemParams, swept_value) -> SweepRecord:
    """Every DoF / EDoF / gain / capacity metric of one system."""
    p = params
    geometry = coaxial_system(p)
    spec_vals = sp.eigen_spectrum(build_channel(geometry))
    area_tx, area_rx = sp.plane_area(geometry.tx), sp.plane_area(geometry.rx)
    edof = sp.edof_report(spec_vals, area_tx, area_rx, p.wavelength, p.separation, p.energy_fraction)

    n = p.n_antennas
    power = p.power if p.power is not None else auto_power(n, p.separation)
    n_values = spec_vals.values.size

    def cap(truncate_to=None):
        return sp.capacity(spec_vals, power, 1.0, n, truncate_to)

    return SweepRecord(
        swept_value=float(swept_value),
        n_dof=edof.n_dof,
        n_edof_exact=edof.n_edof_exact,
        n_edof_fringes=edof.n_edof_fringes,
        n_edof_trace=edof.n_edof_trace,
        capacity_full=cap(),
        capacity_edof_exact=cap(edof.n_edof_exact),
        capacity_edof_fringes=cap(_estimator_truncation(edof.n_edof_fringes, n_values)),
        capacity_edof_trace=cap(_estimator_truncation(edof.n_edof_trace, n_values)),
        # the gain step, after the capacity reducers: rho1 at the focus' neighbour (d, 0, L)
        rho1_closed=beamfocus.array_gain_closed_form(p),
        rho1_phase_only=beamfocus.array_gain(
            beamfocus.make_focus_setup(geometry), (p.spacing, 0.0, geometry.rx.plane_offset),
            GainMode.PHASE_ONLY,
        ),
        epsilon=beamfocus.paraxial_parameter(p),
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Run the sweep, emitting records in grid order."""
    records = []
    for value in spec.grid:
        params = spec.at(value)  # cannot fail: the spec checked every grid value
        with computing(params):
            records.append(point_metrics(params, value))
    return records


def eigen_profile(params: SystemParams) -> list[tuple[int, float]]:
    """Full descending Gram spectrum with 1-based indices."""
    spec_vals = sp.eigen_spectrum(build_channel(coaxial_system(params)))
    return [(i + 1, float(v)) for i, v in enumerate(spec_vals.values)]


def sidecar_path(csv_path) -> str:
    """The path of a sweep CSV's JSON sidecar, which holds the resolved spec."""
    return f"{csv_path}.spec.json"


def _write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV: ints as written, floats with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in row) + "\n")


def write_sweep_csv(records, path, spec: SweepSpec) -> None:
    """Write records as CSV plus the spec, notes included, to the sidecar at sidecar_path(path);
    feeding the sidecar back through run_sweep reproduces the identical CSV."""
    _write_csv(path, RECORD_FIELDS, map(astuple, records))
    with open(sidecar_path(path), "w") as fh:
        fh.write(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")


def write_profile_csv(profile, path) -> None:
    _write_csv(path, ("index", "eigenvalue"), profile)


# The fig5 system, which fig5 to fig9 use: 25 x 25 UPAs at wavelength 0.01 m and separation 40 m
_FIG5_SYSTEM = {"wavelength": 0.01, "side_count": 25, "separation": 40.0}
# d_th reads no spacing, so the wavelength serves as one
_FIG5_THRESHOLD = beamfocus.spacing_threshold(SystemParams(spacing=0.01, **_FIG5_SYSTEM))
# quarter-wavelength steps plus the exact threshold point: the half-wavelength grid misses the
# EDoF peak and aliases the secondary gain null near epsilon = 2 into a spurious global maximum
_FIG5_GRID = tuple(sorted({*(np.arange(8, 80.001, 1) * 0.25 * 0.01).tolist(), _FIG5_THRESHOLD}))
_FIG5 = SweepSpec(
    swept_variable="spacing",
    grid=_FIG5_GRID,
    **_FIG5_SYSTEM,
    notes={
        "grid": "0.25 lambda steps over [2, 20] lambda plus the exact threshold "
        "spacing, so the sweep samples the predicted EDoF peak"
    },
)

# name -> payload, built once: a SweepSpec runs as a sweep and a plain SystemParams
# gives its eigenvalue profile; fig6 and fig9 are the fig5 sweep
PRESETS = {
    "fig2": SweepSpec(
        swept_variable="antennas_per_side",
        grid=(5, 10, 20, 40),
        wavelength=0.01,
        spacing=0.005,
        separation=40.0,
        notes={
            "inferred": "wavelength and separation are not given for this figure; "
            "the fig5 values (0.01 m, 40 m) are used"
        },
    ),
    # 20 x 20 arrays with the spacing threshold at 3.2 lambda fixes
    # L = sqrt(N) d_threshold^2 / lambda = 2.048 m
    "fig3": SweepSpec(
        swept_variable="spacing",
        grid=tuple((np.arange(4, 20.001, 1) * 0.25 * 0.01).tolist()),
        wavelength=0.01,
        side_count=20,
        separation=20 * (3.2 * 0.01) ** 2 / 0.01,
        notes={
            "inferred": "separation is not given for this figure; it is derived from "
            "the stated threshold d = 3.2 lambda for 20x20 arrays (L = 2.048 m)"
        },
    ),
    "fig5": _FIG5,
    "fig6": _FIG5,
    "fig7": SystemParams(spacing=0.8 * _FIG5_THRESHOLD, **_FIG5_SYSTEM),
    "fig8": SystemParams(spacing=1.5 * _FIG5_THRESHOLD, **_FIG5_SYSTEM),
    "fig9": _FIG5,
    "xl": SweepSpec(
        swept_variable="antennas_per_side",
        grid=(25, 50, 75, 100),
        wavelength=0.01,
        spacing=beamfocus.spacing_threshold(
            SystemParams(wavelength=0.01, side_count=100, spacing=0.01, separation=40.0)
        ),
        separation=40.0,
        notes={
            "grid": "the fig5 wavelength and separation at spacing sqrt(lambda L / 100) = 6.32 "
            "lambda, the threshold of the largest array, 100 x 100"
        },
    ),
}

