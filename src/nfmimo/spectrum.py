"""Eigenvalue spectrum of the channel Gram matrix and derived metrics.

mu_i^2 denotes the i-th largest eigenvalue of G G^H, i.e. the squared
singular values of the channel matrix G. DoF counts the numerically
nonzero eigenvalues; EDoF counts the eigenvalues needed to capture a
given fraction (default 99.9%) of the total energy. Two closed-form
estimators are provided: the fringe count A_S A_R / (lambda L)^2 and the
trace ratio tr^2(GG^H) / ||GG^H||_F^2.

Two identical coaxial square UPAs give a channel that, viewed as
t[i, k, j, l] (row antenna (i, k), column antenna (j, l)), is unchanged by
the x-mirror, the y-mirror and the x<->y swap of both arrays. That structure
is decided once, from the positions, in `channel.build_channel`, which sets
`ChannelMatrix.grid` only for a matrix it gathered with that symmetry bit for
bit. `eigen_spectrum` then folds it onto the even/odd mirror-parity
subspaces: four blocks (169, 156, 156 and 144 rows at 25 x 25), of which the
two mixed ones have one spectrum by the swap, so three small SVDs replace
one large one. Every other channel (off-axis, rectangular, or built by hand
from a matrix) takes the dense SVD, which is also the reference in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .geometry import PlanarArray

DEFAULT_ENERGY_FRACTION = 0.999
DEFAULT_DOF_FLOOR = 1e-12
AREA_CONVENTIONS = ("cell", "span")

# Eigenvalues of a PSD Gram matrix may come out slightly negative from an
# eigensolver; anything below this (relative to the largest eigenvalue)
# signals a broken decomposition rather than round-off.
NEGATIVE_CLAMP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues mu_i^2 of G G^H with dimension metadata."""

    values: np.ndarray
    total_energy: float
    source_dims: tuple[int, int]


@dataclass(frozen=True)
class EdofReport:
    """Flat summary of DoF / EDoF metrics for one channel."""

    n_dof: int
    n_edof_exact: int
    n_edof_fringes: float
    n_edof_trace: float
    energy_fraction_used: float

    def to_dict(self) -> dict:
        return {
            "n_dof": self.n_dof,
            "n_edof_exact": self.n_edof_exact,
            "n_edof_fringes": self.n_edof_fringes,
            "n_edof_trace": self.n_edof_trace,
            "energy_fraction": self.energy_fraction_used,
        }


def spectrum_from_eigenvalues(values, source_dims) -> EigenSpectrum:
    """Build an EigenSpectrum from raw Gram eigenvalues.

    Sorts descending and clamps tiny negative round-off to zero; negatives
    beyond the tolerance are a hard error.
    """
    vals = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    if vals.size == 0:
        raise ValueError("empty spectrum")
    top = vals[0]
    floor = -NEGATIVE_CLAMP_TOLERANCE * max(top, 0.0)
    if (vals < floor).any():
        raise ValueError(f"eigenvalue {vals.min()} below clamp tolerance {floor}")
    vals[vals < 0] = 0.0
    vals.setflags(write=False)
    return EigenSpectrum(
        values=vals,
        total_energy=float(vals.sum()),
        source_dims=(int(source_dims[0]), int(source_dims[1])),
    )


def _fold(t: np.ndarray, even: bool) -> np.ndarray:
    """Project the index pair (0, 2) of t[i, k, j, l] onto its mirror-even or
    mirror-odd subspace; t must be unchanged by reversing axes 0 and 2 together.

    The basis vectors are (e_a +- e_{S-1-a}) / sqrt(2), and e_c alone for the
    centre c of an odd side S, so the even part's centre row and column carry
    an extra 1 / sqrt(2).
    """
    side = t.shape[0]
    half = (side + 1) // 2 if even else side // 2
    head, mirrored = t[:half, :, :half], t[:half, :, ::-1][:, :, :half]
    folded = head + mirrored if even else head - mirrored
    if even and side % 2:
        folded[-1] *= 1 / math.sqrt(2)
        folded[:, :, -1] *= 1 / math.sqrt(2)
    return folded


def _parity_blocks(entries: np.ndarray, side: int) -> list[np.ndarray]:
    """The even-even, even-odd and odd-odd parity blocks of an S^2 x S^2 matrix
    (S = side) that is invariant under the x-mirror, the y-mirror and the
    x<->y swap. The odd-even block is the even-odd one with x and y swapped,
    so it has the same singular values."""
    t = entries.reshape(side, side, side, side)
    blocks = []
    for even_x, even_y in ((True, True), (True, False), (False, False)):
        # folding x, then y with the axes swapped, permutes rows and columns alike
        b = _fold(_fold(t, even_x).transpose(1, 0, 3, 2), even_y)
        rows = b.shape[0] * b.shape[1]
        blocks.append(b.reshape(rows, rows))
    return blocks


def eigen_spectrum(channel: ChannelMatrix) -> EigenSpectrum:
    """Spectrum of G G^H, computed as squared singular values of G.

    A channel that `build_channel` gathered from a coaxial twin grid is
    decomposed by parity block; any other takes one dense SVD.
    """
    if channel.entries.size == 0:
        raise ValueError("empty channel matrix")
    # numerical non-convergence raises np.linalg.LinAlgError; never truncated
    if channel.grid is None:
        singular = np.linalg.svd(channel.entries, compute_uv=False)
    else:
        blocks = _parity_blocks(channel.entries, channel.grid.size)
        even, mixed, odd = (np.linalg.svd(b, compute_uv=False) for b in blocks)
        singular = np.concatenate([even, mixed, mixed, odd])
    return spectrum_from_eigenvalues(singular**2, (channel.n_rx, channel.n_tx))


def count_dof(spectrum: EigenSpectrum, relative_floor: float = DEFAULT_DOF_FLOOR) -> int:
    """Number of eigenvalues at or above relative_floor times the largest."""
    if not 0 < relative_floor < 1:
        raise ValueError(f"relative_floor must be in (0, 1), got {relative_floor}")
    if spectrum.values.size == 0:
        raise ValueError("empty spectrum")
    return int(np.count_nonzero(spectrum.values >= relative_floor * spectrum.values[0]))


def edof_exact(spectrum: EigenSpectrum, fraction: float = DEFAULT_ENERGY_FRACTION) -> int:
    """Smallest n whose top-n eigenvalues hold >= fraction of the energy."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if spectrum.total_energy <= 0:
        raise ValueError("spectrum has zero total energy")
    cumulative = np.cumsum(spectrum.values) / spectrum.total_energy
    return int(np.searchsorted(cumulative, fraction) + 1)


def edof_fringes(area_tx: float, area_rx: float, wavelength: float, separation: float) -> float:
    """Intensity-fringe EDoF estimate A_S A_R / (lambda L)^2."""
    for name, v in (
        ("area_tx", area_tx),
        ("area_rx", area_rx),
        ("wavelength", wavelength),
        ("separation", separation),
    ):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    return (area_tx * area_rx) / (wavelength**2 * separation**2)


def plane_area(array: PlanarArray, convention: str = "cell") -> float:
    """Aperture area of a UPA.

    "cell": each antenna owns a spacing x spacing cell, area = N d^2. With
    this convention the fringe estimate equals N exactly at the spacing
    threshold. "span": area of the bounding square through the outermost
    antenna centers, ((side_count - 1) d)^2.
    """
    if convention == "cell":
        return array.area
    if convention == "span":
        return ((array.side_count - 1) * array.spacing) ** 2
    raise ValueError(f"unknown area convention {convention!r}")


def edof_trace(spectrum: EigenSpectrum) -> float:
    """Trace-ratio EDoF estimate (sum mu_i^2)^2 / sum mu_i^4.

    Exactly r for a spectrum with r equal nonzero values; scale invariant.
    """
    if spectrum.values.size == 0:
        raise ValueError("empty spectrum")
    if spectrum.total_energy <= 0:
        raise ValueError("spectrum has zero total energy")
    return float(spectrum.total_energy**2 / np.sum(spectrum.values**2))


def capacity(
    spectrum: EigenSpectrum,
    total_power: float,
    noise_variance: float,
    n_tx: int,
    truncate_to: int | None = None,
) -> float:
    """Channel capacity in bits/s/Hz with equal power per transmit antenna.

    sum over the top `truncate_to` eigenvalues (all when None) of
    log2(1 + P mu_i^2 / (sigma_n^2 N_S)).
    """
    if total_power < 0:
        raise ValueError(f"total_power must be >= 0, got {total_power}")
    if noise_variance <= 0:
        raise ValueError(f"noise_variance must be positive, got {noise_variance}")
    if n_tx < 1:
        raise ValueError(f"n_tx must be >= 1, got {n_tx}")
    n = spectrum.values.size
    if truncate_to is None:
        truncate_to = n
    if not 1 <= truncate_to <= n:
        raise ValueError(f"truncate_to {truncate_to} out of range [1, {n}]")
    snr_per_mode = total_power * spectrum.values[:truncate_to] / (noise_variance * n_tx)
    return float(np.sum(np.log2(1 + snr_per_mode)))


def edof_report(
    spectrum: EigenSpectrum,
    area_tx: float,
    area_rx: float,
    wavelength: float,
    separation: float,
    fraction: float = DEFAULT_ENERGY_FRACTION,
    relative_floor: float = DEFAULT_DOF_FLOOR,
) -> EdofReport:
    return EdofReport(
        n_dof=count_dof(spectrum, relative_floor),
        n_edof_exact=edof_exact(spectrum, fraction),
        n_edof_fringes=edof_fringes(area_tx, area_rx, wavelength, separation),
        n_edof_trace=edof_trace(spectrum),
        energy_fraction_used=fraction,
    )
