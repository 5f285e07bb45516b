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
from typing import TYPE_CHECKING

import numpy as np

from .channel import SystemGeometry, _apart, _distance, _finite

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import SystemParams


class GainMode(Enum):
    EXACT = "exact"
    PHASE_ONLY = "phase_only"
    FRESNEL = "fresnel"


@dataclass(frozen=True)
class FocusSetup:
    """Transmit phases steering a geometry toward a focus point: the exact ones, and
    the Fresnel-expanded ones that fresnel-mode gains use.

    `fresnel_phases` is the Fresnel steering split per axis, (2, ...): -k x^2 / (2 Lz) and
    -k y^2 / (2 Lz), without the common -k Lz. Its columns are the axes of a grid transmit
    array (`PlanarArray.grid`), (2, S), and each antenna's x and y otherwise, (2, N), with
    the first antenna's z as the transmit plane.
    """

    geometry: SystemGeometry
    phases: np.ndarray
    fresnel_phases: np.ndarray


def make_focus_setup(geometry: SystemGeometry) -> FocusSetup:
    """Build a FocusSetup focused on the receive-plane center (0, 0, L): per-antenna phases
    -k |focus - tx_j|, wrapped to (-pi, pi]."""
    focus_z = geometry.rx.plane_offset
    dist = np.linalg.norm((0.0, 0.0, focus_z) - geometry.tx.positions, axis=1)
    _apart(dist, "focus point coincides with a transmit antenna")
    phases = -((geometry.wavenumber * dist + np.pi) % (2 * np.pi) - np.pi)
    xy, z = geometry.tx.grid or (geometry.tx.positions[:, :2].T, geometry.tx.positions[0, 2])
    # (0 - x)^2 == x * x, so at the focus each axis phase cancels bit for bit
    fresnel_phases = -(geometry.wavenumber * (xy * xy / (2 * (focus_z - z))))
    for array in (phases, fresnel_phases):
        array.setflags(write=False)
    return FocusSetup(geometry=geometry, phases=phases, fresnel_phases=fresnel_phases)


def array_gain(setup: FocusSetup, probe_point, mode: GainMode = GainMode.PHASE_ONLY) -> float:
    """Array gain (1/N) |sum_j a_j exp(i(phi_j + theta_j))|^2 at a probe point.

    In phase_only mode the gain at the focus point is exactly N. Exact mode
    weights each phasor by L / |probe - tx_j| so all modes share the
    flat-amplitude calibration. A grid transmit array takes its distances from 1-D offset
    tables, any other the per-pair route, the reference in the tests. A probe whose squared
    distances or phases leave the float range raises ArithmeticError.
    """
    if not isinstance(mode, GainMode):
        raise ValueError(f"unknown gain mode {mode!r}")
    probe = np.asarray(probe_point, dtype=float)
    if probe.shape != (3,) or not all(map(math.isfinite, probe.tolist())):
        raise ValueError("probe_point must be a finite 3D point")
    tx, k = setup.geometry.tx, setup.geometry.wavenumber
    xy, z = tx.grid or (tx.positions[:, :2].T, tx.positions[0, 2])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # offsets[0, n] = (p_x - x_n)^2 and offsets[1, m] = (p_y - y_m)^2, per antenna off a grid
        offsets = probe[:2, None] - xy
        offsets *= offsets
        dz = float(probe[2] - z)
        subject = "probe point coincides with a transmit antenna"
        if tx.grid is None:  # every antenna's distance, by one np.linalg.norm
            dist = np.linalg.norm(probe - tx.positions, axis=1)
            _apart(dist, subject)
        elif dz * dz == 0:  # float addition is monotone: with dz^2 > 0 no squared distance is 0
            _apart(offsets.min(axis=1).sum(), subject)
        if mode is not GainMode.FRESNEL:
            if tx.grid is not None:  # antenna (n, m) is row n * S + m, as in `positions`
                dist = _distance(offsets[0][:, None], offsets[1], dz).ravel()
            # |sum exp(1j (k dist + phases)) (L / dist in exact mode)|^2, in two new arrays
            angles = k * dist
            angles += setup.phases
            phasors = np.multiply(angles, 1j)
            np.exp(phasors, out=phasors)
            if mode is GainMode.EXACT:
                phasors *= np.divide(setup.geometry.separation, dist, out=angles)
            # np.abs, not abs(): on a numpy complex scalar the two round apart
            gain = np.abs(np.add.reduce(phasors)) ** 2
        else:
            # the expanded phase is k Lz plus, per axis, k (p_x - x)^2 / (2 Lz) and its
            # steering; k Lz - k L drops out of |.|^2. On a grid the phasor sum factors into
            # the product of one S-term sum per axis; per pair it is one row of N terms
            offsets /= 2 * dz
            phases = np.multiply(offsets, k, out=offsets)
            phases += setup.fresnel_phases
            if tx.grid is None:
                phases = np.add(phases[0], phases[1])[None]
            phasors = np.multiply(phases, 1j)
            np.exp(phasors, out=phasors)
            gain = math.prod((np.abs(np.add.reduce(phasors, axis=1)) ** 2).tolist())
        gain = float(gain / tx.size)
    if not math.isfinite(gain):
        raise ArithmeticError(
            f"the {mode.value} gain at probe {tuple(probe.tolist())} is not finite: "
            "its squared distances or phases leave the float range"
        )
    return gain


def array_gain_closed_form(params: SystemParams) -> float:
    """Closed-form gain at the focus's nearest neighbor (d, 0, L).

    With x = d^2 / (lambda L): |sin(sqrt(N) pi x) / sin(pi x)|^2, equal to
    N sinc^2(sqrt(N) x) / sinc^2(x) wherever both are defined. The ratio has period 1
    in x, so it is taken at r = x - round(x), which is exact in floats and is x itself
    for x <= 1/2. Integer x (r = 0) is a removable singularity and returns the limit N,
    as does a subnormal r, at which the limit is exact in floats and pi r too coarse.
    """
    x = _finite(
        "x = d^2 / (lambda L)", lambda: params.spacing**2 / (params.wavelength * params.separation)
    )
    r = math.remainder(x, 1.0)  # x - round(x), exactly
    if abs(r) < np.finfo(float).tiny:  # the smallest normal float
        return float(params.n_antennas)
    return (math.sin(params.side_count * math.pi * r) / math.sin(math.pi * r)) ** 2


def spacing_threshold(params: SystemParams) -> float:
    """Optimal spacing sqrt(lambda L / sqrt(N)), the first zero of the nearest-neighbor gain;
    unequal spacings take all N modes at the product d_tx d_rx = lambda L / sqrt(N). Reads no
    spacing: any valid one gives the threshold of the system's array and lengths."""
    return _finite(  # lambda L overflows, or underflows to a d_th of 0, which is no threshold
        "d_th = sqrt(lambda L / sqrt(N))",
        lambda: math.sqrt(params.wavelength * params.separation / params.side_count) or math.inf,
    )


def paraxial_parameter(params: SystemParams) -> float:
    """epsilon = sqrt(N) d^2 / (lambda L); equals 1 at the spacing threshold."""
    return _finite(
        "epsilon = sqrt(N) d^2 / (lambda L)",
        lambda: params.side_count * params.spacing**2 / (params.wavelength * params.separation),
    )


def gain_map(setup: FocusSetup, coords, mode: GainMode = GainMode.PHASE_ONLY) -> list[float]:
    """The gain at each receive-plane probe (x, y) of the grid `coords` x `coords`, x-major,
    one array_gain call each."""
    z = setup.geometry.rx.plane_offset
    return [array_gain(setup, (x, y, z), mode) for x in coords for y in coords]


def write_gain_map_csv(coords, mode: GainMode, gains, path) -> None:
    """Write gain_map's gains over `coords` x `coords` as CSV rows (probe_x, probe_y, mode,
    gain), every number with 17 significant digits; each coordinate is formatted once, and
    each row is written as it is formatted, so no more than one row is held as text."""
    cells = [f"{c:.17g}" for c in coords]
    probes = (f"{x},{y},{mode.value}," for x in cells for y in cells)
    with open(path, "w", newline="") as fh:
        fh.write("probe_x,probe_y,mode,gain\n")
        fh.writelines(f"{probe}{g:.17g}\n" for probe, g in zip(probes, gains, strict=True))
