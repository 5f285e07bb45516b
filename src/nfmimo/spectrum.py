"""Eigenvalue spectrum of the channel Gram matrix and derived metrics.

mu_i^2 denotes the i-th largest eigenvalue of G G^H, i.e. the squared
singular values of the channel matrix G. DoF counts the numerically
nonzero eigenvalues; EDoF counts the eigenvalues needed to capture a
given fraction (default 99.9%) of the total energy. Two closed-form
estimators are provided: the fringe count A_S A_R / (lambda L)^2 and the
trace ratio tr^2(GG^H) / ||GG^H||_F^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import ChannelMatrix
from .geometry import PlanarArray

DEFAULT_ENERGY_FRACTION = 0.999
DOF_FLOOR = 1e-12


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues mu_i^2 of G G^H, kept as a read-only descending float copy, and their
    sum `total_energy`; raises ValueError unless that sum is positive and finite.

    `source_dims` is the decomposed channel's shape. No result reads it. It stays because
    the benchmark's off-axis capture records it and that workload's oracle checks it; it
    goes with a benchmark change that takes the shape from the channel instead.
    """

    values: np.ndarray
    source_dims: tuple[int, int]
    total_energy: float = field(init=False)

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float))[::-1].copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total_energy", float(values.sum()))
        if not 0 < self.total_energy < np.inf:  # an empty spectrum sums to 0
            raise ValueError(f"eigenvalues need a positive finite sum, got {self.total_energy!r}")


@dataclass(frozen=True)
class EdofReport:
    """Flat summary of DoF / EDoF metrics for one channel."""

    n_dof: int
    n_edof_exact: int
    n_edof_fringes: float
    n_edof_trace: float
    energy_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def eigen_spectrum(channel: ChannelMatrix) -> EigenSpectrum:
    """Spectrum of G G^H, computed as squared singular values of G.

    One SVD per block of `channel.blocks` (a coaxial twin's five D4 blocks, else
    `entries`), whose singular values repeat by the block's multiplicity.

    Each matrix reaches the SVD with at least as many rows as columns: a wide
    one (more transmit than receive antennas, say) goes in as its transpose
    view, which has the same singular values. LAPACK's divide-and-conquer SVD
    reduces a wide matrix through an LQ factorisation, which is slower than the
    QR route it takes for the transpose. Square and tall matrices go in as
    they are.
    """
    # numerical non-convergence raises np.linalg.LinAlgError; never truncated
    singular = []
    for block, multiplicity in channel.blocks:
        tall = block.T if block.shape[0] < block.shape[1] else block
        singular += [np.linalg.svd(tall, compute_uv=False)] * multiplicity
    return EigenSpectrum(np.concatenate(singular) ** 2, channel.shape)


def count_dof(spectrum: EigenSpectrum) -> int:
    """Number of eigenvalues at or above DOF_FLOOR times the largest."""
    return int(np.count_nonzero(spectrum.values >= DOF_FLOOR * spectrum.values[0]))


def edof_exact(spectrum: EigenSpectrum, fraction: float = DEFAULT_ENERGY_FRACTION) -> int:
    """Smallest n whose top-n eigenvalues hold >= fraction of the energy."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    cumulative = np.cumsum(spectrum.values) / spectrum.total_energy
    # the cumsum can end below 1 (total_energy is the pairwise sum), but all values hold it all
    return min(int(np.searchsorted(cumulative, fraction)) + 1, spectrum.values.size)


def edof_fringes(area_tx: float, area_rx: float, wavelength: float, separation: float) -> float:
    """Intensity-fringe EDoF estimate A_S A_R / (lambda L)^2; an area that underflows to 0 gives 0.0."""
    for name, v in (("area_tx", area_tx), ("area_rx", area_rx)):
        if not v >= 0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    for name, v in (("wavelength", wavelength), ("separation", separation)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    try:
        fringes = (area_tx * area_rx) / (wavelength**2 * separation**2)
    except ArithmeticError:  # a square overflows, or (lambda L)^2 underflows to 0
        fringes = math.inf
    if not math.isfinite(fringes):  # or the product or quotient overflows
        raise ArithmeticError("the fringe EDoF A_S A_R / (lambda L)^2 leaves the float range")
    return fringes


def plane_area(array: PlanarArray) -> float:
    """Aperture area of a UPA whose antennas each own a spacing x spacing cell,
    N d^2; with it the fringe estimate equals N exactly at the spacing threshold."""
    return array.area


def edof_trace(spectrum: EigenSpectrum) -> float:
    """Trace-ratio EDoF estimate (sum mu_i^2)^2 / sum mu_i^4.

    Exactly r for a spectrum with r equal nonzero values; scale invariant.
    """
    fourth = float(np.sum(spectrum.values**2))
    if not fourth > 0:  # every mu_i^4 underflows; dividing would warn and give nan or inf
        raise ArithmeticError(
            "the trace-ratio EDoF (sum mu_i^2)^2 / sum mu_i^4 leaves the float range: "
            f"sum mu_i^4 underflows to 0 at sum mu_i^2 = {spectrum.total_energy!r}"
        )
    return spectrum.total_energy**2 / fourth


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

    `noise_variance` is sigma_n^2. The package's one caller, `point_metrics`, passes 1,
    since `SystemParams.power` is the power at unit noise variance. The argument stays
    because the benchmark's off-axis workload passes it too; it goes with a benchmark
    change.
    """
    if not total_power >= 0:
        raise ValueError(f"total_power must be >= 0, got {total_power}")
    if not noise_variance > 0:
        raise ValueError(f"noise_variance must be positive, got {noise_variance}")
    if not n_tx >= 1:
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
        energy_fraction=fraction,
    )
