"""Uniform planar array geometry.

Arrays are square grids of point antennas lying in a plane z = const,
centered on the z axis. Positions are stored in meters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlanarArray:
    """Square uniform planar array of point antennas.

    `positions` has shape (side_count**2, 3) and is row-major in the grid
    indices (n, m): antenna (n, m) sits at flat index (n-1)*side_count + (m-1).
    This ordering is part of the public contract; channel-matrix indices
    depend on it. The array keeps a read-only float copy of the positions it is
    built with, so writes to the caller's array change nothing.

    Distances are taken from `positions`, while gain-map probes and the focus point sit at
    `plane_offset`, so a grid array (`grid` not None) whose plane is not `plane_offset`
    raises ValueError. Other positions, such as a tilted array, are not checked against
    `plane_offset`; `spacing` is never checked.
    """

    side_count: int
    spacing: float
    plane_offset: float
    positions: np.ndarray

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        shaped = self.side_count >= 1 and positions.shape == (self.size, 3)
        if not (shaped and np.isfinite(positions).all()):
            raise ValueError(
                "positions must be a finite (side_count**2, 3) array with side_count >= 1, "
                f"got shape {positions.shape} for side_count {self.side_count!r}"
            )
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        grid = self.grid
        if grid is not None and grid[1] != self.plane_offset:
            raise ValueError(
                f"positions lie in the plane z = {float(grid[1])!r}, "
                f"not at plane_offset {self.plane_offset!r}"
            )

    @property
    def size(self) -> int:
        return self.side_count**2

    @property
    def area(self) -> float:
        """Aperture area: each antenna owns a spacing x spacing cell."""
        return (self.side_count * self.spacing) ** 2

    @functools.cached_property
    def grid(self) -> tuple[np.ndarray, float] | None:
        """(xy, z) when antenna (n, m) sits at (xy[0, n], xy[1, m], z) bit for bit, with xy a
        read-only (2, S) array; None for other positions, such as a tilted or jittered array.
        Read from `positions` when the array is built and kept; an array built around shifted
        positions is a grid too."""
        grid = self.positions.reshape(self.side_count, self.side_count, 3)
        xy, z = np.stack([grid[:, 0, 0], grid[0, :, 1]]), grid[0, 0, 2]
        on_grid = (grid[..., 0] == xy[0][:, None]).all() and (grid[..., 1] == xy[1]).all()
        if not (on_grid and (grid[..., 2] == z).all()):
            return None
        xy.setflags(write=False)
        return xy, z


def build_upa(side_count: int, spacing: float, plane_offset: float = 0.0) -> PlanarArray:
    """Build a centered square UPA in the plane z = plane_offset."""
    if side_count < 1:
        raise ValueError(f"side_count must be >= 1, got {side_count}")
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be a positive finite number, got {spacing}")
    if not math.isfinite(plane_offset):
        raise ValueError(f"plane_offset must be finite, got {plane_offset}")

    coords = (np.arange(1, side_count + 1) - (side_count + 1) / 2) * spacing
    x, y = np.meshgrid(coords, coords, indexing="ij")
    positions = np.column_stack(
        [x.ravel(), y.ravel(), np.full(side_count**2, float(plane_offset))]
    )
    return PlanarArray(
        side_count=side_count,
        spacing=float(spacing),
        plane_offset=float(plane_offset),
        positions=positions,
    )
