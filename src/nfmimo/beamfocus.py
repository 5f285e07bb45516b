"""Beam focusing: phase profiles, array gains and the spacing threshold.

The transmit array focuses on a receive point by conjugating the propagation
phase per antenna. Array gain at a probe point is evaluated in three modes:

- exact: true Green's amplitudes (normalized to the flat-amplitude
  reference) and exact propagation phases;
- phase_only: flat amplitude 1/(4 pi L), exact phases;
- fresnel: flat amplitude with second-order Taylor-expanded phases, the
  regime in which the Dirichlet-kernel closed form is derived.

The closed form for the gain at the focus's nearest neighbor has its first
zero at d = sqrt(lambda L / sqrt(N)), the optimal antenna spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import SystemGeometry


class GainMode(Enum):
    EXACT = "exact"
    PHASE_ONLY = "phase_only"
    FRESNEL = "fresnel"


@dataclass(frozen=True)
class FocusSetup:
    """Transmit phases steering a geometry toward a focus point: the exact ones, and
    the Fresnel-expanded ones that fresnel-mode gains use."""

    geometry: SystemGeometry
    phases: np.ndarray
    fresnel_phases: np.ndarray


def wrap_phase(phi):
    """Wrap angle(s) to (-pi, pi]."""
    return -((-np.asarray(phi) + np.pi) % (2 * np.pi) - np.pi)


def focusing_phases(geometry: SystemGeometry, focus_point) -> np.ndarray:
    """Per-antenna phases -k |focus - tx_j|, wrapped to (-pi, pi]."""
    fp = np.asarray(focus_point, dtype=float)
    if fp.shape != (3,) or not np.isfinite(fp).all():
        raise ValueError("focus_point must be a finite 3D point")
    dist = np.linalg.norm(fp - geometry.tx.positions, axis=1)
    if not (dist > 0).all():
        raise ValueError("focus point coincides with a transmit antenna")
    return wrap_phase(-geometry.wavenumber * dist)


def _fresnel_phase(points, probe, wavenumber):
    """Taylor-expanded propagation phase k (Lz + ((px-x)^2 + (py-y)^2) / (2 Lz))."""
    lz = probe[2] - points[0, 2]
    lateral_sq = (probe[0] - points[:, 0]) ** 2 + (probe[1] - points[:, 1]) ** 2
    return wavenumber * (lz + lateral_sq / (2 * lz))


def make_focus_setup(geometry: SystemGeometry) -> FocusSetup:
    """Build a FocusSetup focused on the receive-plane center (0, 0, L)."""
    fp = np.array([0.0, 0.0, geometry.rx.plane_offset])
    phases = focusing_phases(geometry, fp)
    fresnel_phases = -_fresnel_phase(geometry.tx.positions, fp, geometry.wavenumber)
    for array in (phases, fresnel_phases):
        array.setflags(write=False)
    return FocusSetup(geometry=geometry, phases=phases, fresnel_phases=fresnel_phases)


def array_gain(setup: FocusSetup, probe_point, mode: GainMode = GainMode.PHASE_ONLY) -> float:
    """Array gain (1/N) |sum_j a_j exp(i(phi_j + theta_j))|^2 at a probe point.

    In phase_only mode the gain at the focus point is exactly N. Exact mode
    weights each phasor by L / |probe - tx_j| so all modes share the
    flat-amplitude calibration.
    """
    if not isinstance(mode, GainMode):
        raise ValueError(f"unknown gain mode {mode!r}")
    probe = np.asarray(probe_point, dtype=float)
    if probe.shape != (3,) or not np.isfinite(probe).all():
        raise ValueError("probe_point must be a finite 3D point")
    tx = setup.geometry.tx.positions
    k = setup.geometry.wavenumber
    n = setup.geometry.tx.size

    dist = np.linalg.norm(probe - tx, axis=1)
    if not (dist > 0).all():
        raise ValueError("probe point coincides with a transmit antenna")

    if mode is GainMode.FRESNEL:
        # expand both the propagation and the focusing phase, per the
        # derivation regime; the stored exact phases are not used here
        prop = _fresnel_phase(tx, probe, k)
        steer = setup.fresnel_phases
        amp = 1.0
    else:
        prop = k * dist
        steer = setup.phases
        amp = setup.geometry.separation / dist if mode is GainMode.EXACT else 1.0

    total = np.sum(amp * np.exp(1j * (prop + steer)))
    return float(np.abs(total) ** 2 / n)


def _require_square(n_antennas: int) -> int:
    side = math.isqrt(n_antennas)
    if n_antennas < 1 or side * side != n_antennas:
        raise ValueError(f"n_antennas must be a perfect square >= 1, got {n_antennas}")
    return side


def array_gain_closed_form(
    n_antennas: int, spacing: float, wavelength: float, separation: float
) -> float:
    """Closed-form gain at the focus's nearest neighbor (d, 0, L).

    With x = d^2 / (lambda L): |sin(sqrt(N) pi x) / sin(pi x)|^2, equal to
    N sinc^2(sqrt(N) x) / sinc^2(x) wherever both are defined. Integer x is
    a removable singularity and returns the limit N.
    """
    side = _require_square(n_antennas)
    for name, v in (("spacing", spacing), ("wavelength", wavelength), ("separation", separation)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    x = spacing**2 / (wavelength * separation)
    den = math.sin(math.pi * x)
    if den == 0.0:
        return float(n_antennas)
    return (math.sin(side * math.pi * x) / den) ** 2


def spacing_threshold(n_antennas: int, wavelength: float, separation: float) -> float:
    """Optimal spacing sqrt(lambda L / sqrt(N)): first zero of the nearest-neighbor gain."""
    side = _require_square(n_antennas)
    if not wavelength > 0 or not separation > 0:
        raise ValueError("wavelength and separation must be positive")
    return math.sqrt(wavelength * separation / side)


def paraxial_parameter(
    n_antennas: int, spacing: float, wavelength: float, separation: float
) -> float:
    """epsilon = sqrt(N) d^2 / (lambda L); equals 1 at the spacing threshold."""
    side = _require_square(n_antennas)
    if not spacing > 0 or not wavelength > 0 or not separation > 0:
        raise ValueError("spacing, wavelength and separation must be positive")
    try:
        return side * spacing**2 / (wavelength * separation)
    except ArithmeticError:  # spacing**2 overflows, or lambda L underflows to 0
        raise ArithmeticError(
            f"epsilon = sqrt(N) d^2 / (lambda L) leaves the float range at spacing {spacing!r} m, "
            f"wavelength {wavelength!r} m and separation {separation!r} m"
        ) from None


def gain_map(setup: FocusSetup, probe_xy, mode: GainMode = GainMode.PHASE_ONLY):
    """Evaluate the gain at (x, y) probes on the receive plane.

    Returns a list of (probe_x, probe_y, mode, gain) rows.
    """
    z = setup.geometry.rx.plane_offset
    rows = []
    for x, y in probe_xy:
        g = array_gain(setup, (float(x), float(y), z), mode)
        rows.append((float(x), float(y), mode.value, g))
    return rows


def write_gain_map_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("probe_x,probe_y,mode,gain\n")
        for x, y, mode, g in rows:
            fh.write(f"{x:.17g},{y:.17g},{mode},{g:.17g}\n")
