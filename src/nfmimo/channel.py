"""Free-space scalar Green's function and channel-matrix assembly.

The channel entry between a transmit antenna at r_S and a receive antenna
at r_R is -exp(ik|r_R - r_S|) / (4 pi |r_R - r_S|), evaluated with the exact
distance. No amplitude or phase approximation is applied here; approximate
propagation models live in `beamfocus` behind explicit mode labels.

How a channel is assembled is decided once, here, from the positions. Every
route rounds the distance as np.linalg.norm rounds it, sqrt((dx^2 + dy^2) +
dz^2), so all of them give bit-identical entries:

- Grid arrays, as `PlanarArray.grid` finds them. `build_channel` broadcasts
  the two arrays' small squared-offset tables into distances one slab of rows
  at a time and evaluates the kernel of each slab into one complex array, so
  the float distance table never exists whole.
- Coaxial twins. When both grids have x == y == c, centred bit for bit
  (c == -c[::-1]), the squared offsets are (c[n] - c[n'])^2 on both axes.
  `build_channel` then evaluates the kernel once per distinct pair of them,
  and gathers the matrix from that table only when `entries` is read.
  Centring makes each offset's mirror image its exact negative, so the matrix
  commutes with the dihedral group D4 of the square: the x-mirror, the
  y-mirror and the x<->y swap. `build_channel` folds the kernel table onto the
  even-even, even-odd and odd-odd mirror-parity blocks (the odd-even one is
  the even-odd one with x and y swapped, so it counts twice), and splits the
  even-even and odd-odd ones into their swap-symmetric and swap-antisymmetric
  parts: five distinct blocks, at 25 x 25 of 91, 78, 156 (twice), 78 and 66
  rows. The even-odd block is the two-dimensional irrep and splits no further.
- Any other positions, such as a tilted or jittered array, take the per-pair
  assembly: one np.linalg.norm over every antenna pair, the tests' reference.

Both dense routes, the grid and the per-pair one, fill one C-order array that is
the column-major layout of the matrix's tall orientation, the one the spectrum
decomposes: G itself when N_R < N_S, else G^T. When that tall matrix has m >=
int(17 n / 9) rows for its n columns, LAPACK's SVD would QR-factor a copy of it
first; `build_channel` runs that step in place in the array, keeps only the
n x n factor R as the channel's one block, and re-assembles G when `entries` is
read. Every route returns a `ChannelMatrix`, built from the matrix, its one block,
or from blocks (a twin's, or R) with a gather; the channel flags what it holds
read-only.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geometry import PlanarArray

# bounds each gathered addend and each float slab of a dense grid's distances; a fold at
# S = 25 (at most 457 kB) is one slab
_SLAB_BYTES = 1 << 20


@dataclass(frozen=True)
class SystemGeometry:
    """Transmit and receive UPAs in parallel planes, plus the carrier wavelength and its
    wavenumber k = 2 pi / lambda, computed once when the geometry is built."""

    tx: PlanarArray
    rx: PlanarArray
    wavelength: float
    wavenumber: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.wavelength) or self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.separation <= 0:
            raise ValueError(
                "receive plane must be strictly beyond the transmit plane "
                f"(separation {self.separation})"
            )
        # below lambda ~ 3.5e-308, 2 pi / lambda overflows
        k = _finite("the wavenumber k = 2 pi / lambda", lambda: 2 * np.pi / self.wavelength)
        object.__setattr__(self, "wavenumber", k)

    @property
    def separation(self) -> float:
        return self.rx.plane_offset - self.tx.plane_offset


class ChannelMatrix:
    """Complex (N_R, N_S) matrix of Green's-function coefficients, plus (block,
    multiplicity) pairs whose singular values, each repeated `multiplicity` times, are
    those of `entries`: a coaxial twin's D4 blocks, a tall dense matrix's QR factor R, else
    `entries`.

    Built from `entries`, its one block, or from `blocks`, a `gather` that returns the
    matrix on the first read of `entries`, and the matrix's `shape`; any other combination
    raises ValueError. It flags its blocks and gathered matrix read-only and keeps a
    read-only view of given entries.
    """

    def __init__(
        self,
        entries: np.ndarray | None = None,
        blocks: tuple[tuple[np.ndarray, int], ...] = (),
        *,
        gather: Callable[[], np.ndarray] | None = None,
        shape: tuple[int, int] | None = None,
    ):
        if (bool(blocks), gather is not None, shape is not None) != ((entries is None),) * 3:
            raise ValueError(
                "a channel is built from its entries, or from its blocks and a gather with a shape"
            )
        if entries is not None:
            entries = self.__dict__["entries"] = entries.view()  # fills the cached property below
            blocks, shape = ((entries, 1),), entries.shape
        self.blocks, self._gather, self.shape = tuple(blocks), gather, tuple(shape)
        for block, _ in self.blocks:
            block.setflags(write=False)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = self._gather()
        entries.setflags(write=False)
        return entries


def greens(receive_point, source_point, wavelength: float) -> complex:
    """Scalar free-space Green's function between two points.

    Returns -exp(i k r) / (4 pi r) with k = 2 pi / wavelength and
    r the Euclidean distance. The magnitude is exactly 1 / (4 pi r).

    No module calls it: `build_channel` assembles every entry from shared offset
    tables. It stays as the package's per-pair definition of an entry, the
    reference that the tests and acceptance criterion 7 check the channel against.
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
    k = _finite("the wavenumber k = 2 pi / lambda", lambda: 2 * np.pi / wavelength)
    return complex(-np.exp(1j * k * r) / (4 * np.pi * r))


def _shared_grid(tx_xy: np.ndarray, rx_xy: np.ndarray) -> bool:
    """Whether both grids' x and y axes are one c with c == -c[::-1], bit for bit."""
    c = tx_xy[0]
    shared = all(np.array_equal(c, axis) for axis in (tx_xy[1], *rx_xy))
    return shared and np.array_equal(c, -c[::-1])


def _distance(dx2: np.ndarray, dy2: np.ndarray, dz: float) -> np.ndarray:
    """sqrt((dx2 + dy2) + dz^2), broadcast, in np.linalg.norm's order, in one new array."""
    r = np.add(dx2, dy2)
    r += dz * dz
    return np.sqrt(r, out=r)


def _apart(r, subject: str) -> None:
    """Raise ValueError naming `subject` unless every value in r, distances or a squared
    distance, is positive; nan counts as 0."""
    if not (r > 0).all():
        raise ValueError(f"{subject}, or their squared distance underflows to 0")


def _finite(quantity: str, compute: Callable[[], float]) -> float:
    """compute(), or ArithmeticError naming `quantity` if it raises one or gives inf or nan."""
    with contextlib.suppress(ArithmeticError):  # a ** overflow or a division by zero
        if math.isfinite(value := compute()):
            return value
    raise ArithmeticError(f"{quantity} leaves the float range")


def _kernel(r: np.ndarray, wavenumber: float, out: np.ndarray | None = None) -> np.ndarray:
    """-exp(i k r) / (4 pi r), rounded as that expression rounds it; overwrites r.

    The result goes in `out`, a complex array of r's shape, or in one new complex array
    when `out` is None. Both take the same ufunc calls in the same order, so the bits match.
    """
    _apart(r, "coincident transmit/receive antennas")
    g = np.multiply(1j * wavenumber, r, out=out)
    np.exp(g, out=g)
    np.negative(g, out=g)
    r *= 4 * np.pi
    return np.divide(g, r, out=g)


def _add_slabs(
    out: np.ndarray, gather: Callable[[slice], np.ndarray], even: bool, fixed: np.ndarray
) -> np.ndarray:
    """The symmetrise step of an involution a -> a': out + gather(:) if even, else
    out - gather(:), in out, where gather(rows) gives the partners of out[rows].

    Each of out's last two axes runs over the basis vectors (e_a +- e_a') / sqrt(2), and
    e_a alone at a fixed point a = a' (True in `fixed`), so the even block's fixed rows and
    columns carry an extra 1 / sqrt(2). One slab of rows of out is added at a time, so no
    gathered slab holds more than _SLAB_BYTES and the addend is never materialised whole.
    """
    step = max(1, _SLAB_BYTES // max(1, out[:1].nbytes))
    for start in range(0, len(out), step):
        rows = slice(start, start + step)
        (np.add if even else np.subtract)(out[rows], gather(rows), out=out[rows])
    if even:
        out[..., fixed, :] *= 1 / math.sqrt(2)
        out[..., fixed] *= 1 / math.sqrt(2)
    return out


def _fold(values: np.ndarray, index: np.ndarray, even: bool) -> np.ndarray:
    """Fold values[..., index[n, n']] onto the mirror-even or mirror-odd subspace
    of (n, n'), over the half grid; `index` must be unchanged by reversing both axes.
    The mirror a -> S-1-a fixes only the centre of an odd side S, where 2a = S-1."""
    side = index.shape[0]
    half = (side + 1) // 2 if even else side // 2
    folded = values[..., index[:half, :half]]
    mirrored = index[:half, ::-1][:, :half]
    centre = 2 * np.arange(half) == side - 1
    return _add_slabs(folded, lambda rows: values[rows][..., mirrored], even, centre)


def _swap_parts(folded: np.ndarray) -> list[np.ndarray]:
    """The swap-symmetric and swap-antisymmetric blocks of folded[i, j, k, l], the
    matrix with rows (k, i) and columns (l, j), unchanged by swapping x and y halves.

    Rows and columns are the pairs (k, i) in np.triu_indices order: k <= i for the
    symmetric part, whose fixed points are the diagonal pairs k == i; k < i for the
    antisymmetric one.
    """
    parts = []
    for symmetric in (True, False):
        k, i = np.triu_indices(folded.shape[0], 0 if symmetric else 1)
        part = folded[i[:, None], i, k[:, None], k]
        _add_slabs(part, lambda rows: folded[i[rows, None], k, k[rows, None], i], symmetric, k == i)
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
        del folded  # free this fold before the next one is gathered
    return tuple(blocks)


def _assemble(geometry: SystemGeometry) -> np.ndarray:
    """The N_R x N_S channel G, as a view whose tall orientation is column-major: the C-order
    G when N_R < N_S, else the transpose of a C-order G^T. G^T is filled from the same sums
    as G, since |t - r| rounds as |r - t|, so every entry keeps its bits."""
    wide = geometry.rx.size < geometry.tx.size
    short, long = (geometry.rx, geometry.tx) if wide else (geometry.tx, geometry.rx)
    k = geometry.wavenumber
    if short.grid is None or long.grid is None:
        diff = short.positions[:, None, :] - long.positions[None, :, :]
        r = np.linalg.norm(diff, axis=2)
        del diff
        buffer = _kernel(r, k)
    else:
        (short_xy, short_z), (long_xy, long_z) = short.grid, long.grid
        # dx2[a, n] and dy2[b, m] for short-side antenna (a, b) and long-side antenna (n, m)
        offsets = short_xy[:, :, None] - long_xy[:, None, :]
        (dx2, dy2), dz = offsets * offsets, long_z - short_z
        buffer = np.empty((short.size, long.size), complex)
        rows_of_x = buffer.reshape(len(dx2), -1)  # one row per short-side x
        step = max(1, _SLAB_BYTES // (8 * rows_of_x[0].size))  # bounds each float slab
        for start in range(0, len(dx2), step):
            rows = slice(start, start + step)
            r = _distance(dx2[rows, None, :, None], dy2[None, :, None, :], dz)
            _kernel(r, k, out=rows_of_x[rows].reshape(r.shape))
    return buffer if wide else buffer.T


def _dense(g: np.ndarray, gather: Callable[[], np.ndarray]) -> ChannelMatrix:
    """The channel G, given as a view whose tall orientation is column-major, as `_assemble`
    returns it; `gather` gives G again.

    With m rows and n columns in that orientation, LAPACK's `zgesdd` first QR-factors a
    matrix with m >= int(17 n / 9) and decomposes only the n x n factor R. Here that step
    runs in G's own buffer, overwriting it with numpy's own `zgeqrf` (a workspace query,
    then the optimal workspace), so the channel keeps R and gathers G again when `entries`
    is read: the singular values come out bit for bit as `zgesdd` gives them for G, unless
    the largest magnitude in G or in R is outside about [6.7e-139, 1.5e138], where `zgesdd`
    scales its input first and the two differ in the last bits. Below the cut-over,
    `zgesdd` bidiagonalises G directly, and G stays the one block `entries`.
    """
    tall = g if g.shape[0] >= g.shape[1] else g.T
    m, n = tall.shape
    if m < int(17 * n / 9):  # zgesdd's MNTHR1
        return ChannelMatrix(entries=g)
    # loaded here: at import, it raises the peak RSS of runs that never factor by 0.2 MB
    from numpy.linalg import lapack_lite

    tau, work = np.empty(n, complex), np.empty(1, complex)
    lapack_lite.zgeqrf(m, n, tall.T, m, tau, work, -1, 0)
    work = np.empty(int(work[0].real), complex)
    lapack_lite.zgeqrf(m, n, tall.T, m, tau, work, len(work), 0)
    return ChannelMatrix(blocks=((np.triu(tall[:n]), 1),), gather=gather, shape=g.shape)


def build_channel(geometry: SystemGeometry) -> ChannelMatrix:
    """Assemble the exact Green's-function channel matrix.

    entries[i, j] couples receive antenna i to transmit antenna j, using
    the array ordering fixed by `geometry`'s PlanarArrays. A coaxial twin
    grid's matrix, and a dense matrix that the spectrum decomposes through
    its QR factor, are gathered only when `entries` is read.
    """
    tx, rx = geometry.tx.grid, geometry.rx.grid
    if tx is None or rx is None or not _shared_grid(tx[0], rx[0]):
        return _dense(_assemble(geometry), functools.partial(_assemble, geometry))
    # the squared x offsets, which are also the y ones
    dx = rx[0][0][:, None] - tx[0][0][None, :]
    squares, index = np.unique(dx * dx, return_inverse=True)
    r = _distance(squares[:, None], squares[None, :], rx[1] - tx[1])
    table = _kernel(r, geometry.wavenumber)
    index = index.reshape(dx.shape)
    n = geometry.rx.size

    def gather():
        return table[index[:, None, :, None], index[None, :, None, :]].reshape(n, n)

    return ChannelMatrix(blocks=_parity_blocks(table, index), gather=gather, shape=(n, n))
