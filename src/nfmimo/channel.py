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
the kernel once per distinct pair of them, and gathers the matrix from that
table only when `entries` is read; the distance is rounded as the dense
assembly rounds it, so the entries are bit-identical. Centring makes each
offset's mirror image its exact negative, so the matrix commutes with the
dihedral group D4 of the square: the x-mirror, the y-mirror and the x<->y
swap. `build_channel` folds the kernel table onto the even-even, even-odd and
odd-odd mirror-parity blocks (the odd-even one is the even-odd one with x and
y swapped, so it counts twice), and splits the even-even and odd-odd ones
into their swap-symmetric and swap-antisymmetric parts: five distinct blocks,
at 25 x 25 of 91, 78, 156 (twice), 78 and 66 rows. The even-odd block is the
two-dimensional irrep and splits no further.
Any other geometry, such as a shifted or rescaled receiver or unequal arrays,
takes the dense per-pair assembly, the reference in the tests, and no blocks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
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


class ChannelMatrix:
    """Complex (N_R, N_S) matrix of Green's-function coefficients, plus (block,
    multiplicity) pairs whose singular values, each repeated `multiplicity`
    times, are those of `entries`; empty when none are known.

    Built from `entries`, or from its `shape` and a `gather` that returns it; the
    matrix is then gathered on the first read of `entries` and kept, read-only.
    """

    def __init__(
        self,
        entries: np.ndarray | None = None,
        blocks: tuple[tuple[np.ndarray, int], ...] = (),
        *,
        shape: tuple[int, int] | None = None,
        gather: Callable[[], np.ndarray] | None = None,
    ):
        if entries is not None:
            self.__dict__["entries"] = entries  # fills the cached property below
            shape = entries.shape
        self.shape = tuple(shape)
        self.blocks = tuple(blocks)
        self._gather = gather
        spans = tuple(sum(m * b.shape[axis] for b, m in self.blocks) for axis in (0, 1))
        if self.blocks and spans != self.shape:
            raise ValueError(f"blocks span {spans}, but the entries are {self.shape}")

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = self._gather()
        entries.setflags(write=False)
        return entries


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


def _fold(values: np.ndarray, index: np.ndarray, even: bool) -> np.ndarray:
    """Fold values[..., index[n, n']] onto the mirror-even or mirror-odd subspace
    of (n, n'), over the half grid; `index` must be unchanged by reversing both axes.

    The basis vectors are (e_a +- e_{S-1-a}) / sqrt(2), and e_c alone for the centre c
    of an odd side S, so the even part's centre row and column carry an extra 1 / sqrt(2).
    """
    side = index.shape[0]
    half = (side + 1) // 2 if even else side // 2
    head, mirrored = values[..., index[:half, :half]], values[..., index[:half, ::-1][:, :half]]
    folded = head + mirrored if even else head - mirrored
    if even and side % 2:
        folded[..., -1, :] *= 1 / math.sqrt(2)
        folded[..., -1] *= 1 / math.sqrt(2)
    return folded


def _swap_parts(folded: np.ndarray) -> list[np.ndarray]:
    """The swap-symmetric and swap-antisymmetric blocks of folded[i, j, k, l], the
    matrix with rows (k, i) and columns (l, j), unchanged by swapping x and y halves.

    Rows and columns are the pairs (k, i) in np.triu_indices order: k <= i with basis
    (e_(k,i) + e_(i,k)) / sqrt(2), and e_(i,i) alone, for the symmetric part, so its
    diagonal rows and columns carry an extra 1 / sqrt(2); k < i for the antisymmetric one.
    """
    parts = []
    for symmetric in (True, False):
        k, i = np.triu_indices(folded.shape[0], 0 if symmetric else 1)
        same, swapped = folded[i[:, None], i, k[:, None], k], folded[i[:, None], k, k[:, None], i]
        part = same + swapped if symmetric else same - swapped
        if symmetric:
            diagonal = k == i
            part[diagonal] *= 1 / math.sqrt(2)
            part[:, diagonal] *= 1 / math.sqrt(2)
        parts.append(part)
    return parts


def _parity_blocks(table: np.ndarray, index: np.ndarray) -> tuple[tuple[np.ndarray, int], ...]:
    """The D4 blocks, with multiplicities, of the matrix whose entry for rx (i, k) and
    tx (j, l) is table[index[i, j], index[k, l]]: the even-even and odd-odd parity blocks,
    each split into its swap-symmetric and swap-antisymmetric parts, and the even-odd one,
    which stands for the odd-even one too."""
    blocks = []
    for even_x, even_y in ((True, True), (True, False), (False, False)):
        # the x-fold is [y offset, i, j], then the y-fold [i, j, k, l]
        folded = _fold(_fold(table.T, index, even_x).transpose(1, 2, 0), index, even_y)
        if even_x == even_y:
            blocks += [(part, 1) for part in _swap_parts(folded)]
        else:
            rows = folded.shape[0] * folded.shape[2]
            # rows (k, i), columns (l, j)
            blocks.append((folded.transpose(2, 0, 3, 1).reshape(rows, rows), 2))
    for block, _ in blocks:
        block.setflags(write=False)
    return tuple(blocks)


def build_channel(geometry: SystemGeometry) -> ChannelMatrix:
    """Assemble the exact Green's-function channel matrix.

    entries[i, j] couples receive antenna i to transmit antenna j, using
    the array ordering fixed by `geometry`'s PlanarArrays. A coaxial twin
    grid's matrix is gathered only when `entries` is read.
    """
    c = _shared_grid(geometry)
    if c is None:
        diff = geometry.rx.positions[:, None, :] - geometry.tx.positions[None, :, :]
        entries = _kernel(np.linalg.norm(diff, axis=2), geometry.wavenumber)
        entries.setflags(write=False)
        return ChannelMatrix(entries=entries)
    # r = sqrt((dx^2 + dy^2) + dz^2), summed in np.linalg.norm's order
    offsets = c[:, None] - c[None, :]
    squares, index = np.unique(offsets * offsets, return_inverse=True)
    dz = geometry.rx.positions[0, 2] - geometry.tx.positions[0, 2]
    r = np.sqrt((squares[:, None] + squares[None, :]) + dz * dz)
    table = _kernel(r, geometry.wavenumber)
    side = c.size
    index = index.reshape(side, side)

    def gather():
        return table[index[:, None, :, None], index[None, :, None, :]].reshape(side**2, side**2)

    return ChannelMatrix(shape=(side**2, side**2), gather=gather, blocks=_parity_blocks(table, index))
