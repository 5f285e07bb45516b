"""Free-space scalar Green's function and channel-matrix assembly.

The channel entry between a transmit antenna at r_S and a receive antenna
at r_R is -exp(ik|r_R - r_S|) / (4 pi |r_R - r_S|), evaluated with the exact
distance. No amplitude or phase approximation is applied here; approximate
propagation models live in `beamfocus` behind explicit mode labels.

Whether a channel has the coaxial twin-grid structure is decided once, here,
from the positions. When transmitter and receiver are one square grid
(antenna (n, m) at (c[n], c[m]) on both) centred bit for bit (c == -c[::-1])
in two planes of constant z, the distance depends only on the squared 1-D
offsets (c[n] - c[n'])^2 and (c[m] - c[m'])^2. `build_channel` then evaluates
the kernel once per distinct pair of them and gathers the matrix; the
distance is rounded as the dense assembly rounds it, so the entries are
bit-identical. Centring makes each offset's mirror image its exact negative,
so the gathered matrix is bitwise unchanged by the x-mirror, the y-mirror and
the x<->y swap, and `ChannelMatrix.grid` records c for `eigen_spectrum`. Any
other geometry, such as a shifted or rescaled receiver or unequal arrays,
takes the dense per-pair assembly, which is also the reference in the tests,
and leaves `grid` unset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanarArray


@dataclass(frozen=True)
class SystemGeometry:
    """Transmit and receive UPAs in parallel planes, plus the carrier wavelength."""

    tx: PlanarArray
    rx: PlanarArray
    wavelength: float

    def __post_init__(self):
        if not math.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.separation <= 0:
            raise ValueError(
                "receive plane must be strictly beyond the transmit plane "
                f"(separation {self.separation})"
            )

    @property
    def separation(self) -> float:
        return self.rx.plane_offset - self.tx.plane_offset

    @property
    def wavenumber(self) -> float:
        return 2 * np.pi / self.wavelength


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex (N_R, N_S) matrix of Green's-function coefficients.

    `grid` holds the 1-D coordinates c of the coaxial twin grid when
    `build_channel` gathered the matrix from it, which makes the matrix
    bitwise mirror- and swap-symmetric; it is None otherwise.
    """

    entries: np.ndarray
    geometry: SystemGeometry
    grid: np.ndarray | None = None

    @property
    def n_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


def greens(receive_point, source_point, wavelength: float) -> complex:
    """Scalar free-space Green's function between two points.

    Returns -exp(i k r) / (4 pi r) with k = 2 pi / wavelength and
    r the Euclidean distance. The magnitude is exactly 1 / (4 pi r).
    """
    if not math.isfinite(wavelength) or wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    rp = np.asarray(receive_point, dtype=float)
    sp = np.asarray(source_point, dtype=float)
    if rp.shape != (3,) or sp.shape != (3,):
        raise ValueError("points must be 3D")
    if not (np.isfinite(rp).all() and np.isfinite(sp).all()):
        raise ValueError("points must have finite coordinates")
    r = float(np.linalg.norm(rp - sp))
    if r == 0.0:
        raise ValueError("Green's function is singular for coincident points")
    k = 2 * np.pi / wavelength
    return complex(-np.exp(1j * k * r) / (4 * np.pi * r))


def _shared_grid(geometry: SystemGeometry) -> np.ndarray | None:
    """The 1-D coordinates c when both arrays put antenna (n, m) at (c[n], c[m]),
    c == -c[::-1] bit for bit and each array lies in a plane of constant z;
    None otherwise."""
    tx, rx = geometry.tx.positions, geometry.rx.positions
    side = math.isqrt(len(tx))
    if side == 0 or side * side != len(tx) or tx.shape != rx.shape:
        return None
    c = tx[:side, 1]
    x, y = np.meshgrid(c, c, indexing="ij")
    grid = np.column_stack([x.ravel(), y.ravel()])
    same_grid = np.array_equal(tx[:, :2], grid) and np.array_equal(rx[:, :2], grid)
    planar = (tx[:, 2] == tx[0, 2]).all() and (rx[:, 2] == rx[0, 2]).all()
    centred = np.array_equal(c, -c[::-1])
    return c if same_grid and planar and centred else None


def _kernel(r: np.ndarray, wavenumber: float) -> np.ndarray:
    if not (r > 0).all():
        raise ValueError("coincident transmit/receive antennas")
    return -np.exp(1j * wavenumber * r) / (4 * np.pi * r)


def build_channel(geometry: SystemGeometry) -> ChannelMatrix:
    """Assemble the exact Green's-function channel matrix.

    entries[i, j] couples receive antenna i to transmit antenna j, using
    the array ordering fixed by `geometry`'s PlanarArrays.
    """
    c = _shared_grid(geometry)
    if c is None:
        diff = geometry.rx.positions[:, None, :] - geometry.tx.positions[None, :, :]
        entries = _kernel(np.linalg.norm(diff, axis=2), geometry.wavenumber)
    else:
        # r = sqrt((dx^2 + dy^2) + dz^2), summed in np.linalg.norm's order
        offsets = c[:, None] - c[None, :]
        squares, index = np.unique(offsets * offsets, return_inverse=True)
        dz = geometry.rx.positions[0, 2] - geometry.tx.positions[0, 2]
        r = np.sqrt((squares[:, None] + squares[None, :]) + dz * dz)
        table = _kernel(r, geometry.wavenumber)
        side = c.size
        index = index.reshape(side, side)
        entries = table[index[:, None, :, None], index[None, :, None, :]].reshape(side**2, side**2)
    entries.setflags(write=False)
    return ChannelMatrix(entries=entries, geometry=geometry, grid=c)
