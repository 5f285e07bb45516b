"""Eigenvalue spectrum of the channel Gram matrix and derived metrics.

mu_i^2 denotes the i-th largest eigenvalue of G G^H, i.e. the squared
singular values of the channel matrix G. DoF counts the numerically
nonzero eigenvalues; EDoF counts the eigenvalues needed to capture a
given fraction (default 99.9%) of the total energy. Two closed-form
estimators are provided: the fringe count A_S A_R / (lambda L)^2 and the
trace ratio tr^2(GG^H) / ||GG^H||_F^2.
"""

from __future__ import annotations

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


def eigen_spectrum(channel: ChannelMatrix) -> EigenSpectrum:
    """Spectrum of G G^H, computed as squared singular values of G.

    One SVD per block of `channel.blocks`, whose singular values repeat by the
    block's multiplicity; a channel without blocks takes one dense SVD.
    """
    if 0 in channel.shape:
        raise ValueError("empty channel matrix")
    # numerical non-convergence raises np.linalg.LinAlgError; never truncated
    singular = []
    for block, multiplicity in channel.blocks or ((channel.entries, 1),):
        singular += [np.linalg.svd(block, compute_uv=False)] * multiplicity
    return spectrum_from_eigenvalues(np.concatenate(singular) ** 2, channel.shape)


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
) -> EdofReport:
    return EdofReport(
        n_dof=count_dof(spectrum),
        n_edof_exact=edof_exact(spectrum, fraction),
        n_edof_fringes=edof_fringes(area_tx, area_rx, wavelength, separation),
        n_edof_trace=edof_trace(spectrum),
        energy_fraction_used=fraction,
    )
