"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The Fig. 5 preset sweep
(74 points of two coaxial 25x25 UPAs) is computed once and shared.
"""

import numpy as np
import pytest

from nfmimo.beamfocus import GainMode, array_gain, make_focus_setup, spacing_threshold
from nfmimo.channel import SystemGeometry, build_channel, greens
from nfmimo.experiments import PRESETS, SystemParams, run_sweep
from nfmimo.geometry import build_upa
from nfmimo.spectrum import (
    EigenSpectrum,
    capacity,
    count_dof,
    edof_exact,
    edof_trace,
    eigen_spectrum,
)

LAM = 0.01
SEP = 40.0
SIDE = 25
N = SIDE * SIDE
D_TH = spacing_threshold(
    SystemParams(wavelength=LAM, side_count=SIDE, spacing=LAM, separation=SEP)
)


def report(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed{': ' + detail if detail else ''}"


@pytest.fixture(scope="module")
def fig5():
    spec = PRESETS["fig5"]
    return spec, run_sweep(spec)


def reference_system(spacing):
    tx = build_upa(SIDE, spacing, 0.0)
    rx = build_upa(SIDE, spacing, SEP)
    return SystemGeometry(tx=tx, rx=rx, wavelength=LAM)


def test_criterion_1_threshold_formula():
    ok = abs(D_TH - 12.65 * LAM) <= 0.005 * LAM
    report(1, "spacing threshold = 12.65 lambda", ok)


def test_criterion_2_fig5_reproduction(fig5):
    spec, records = fig5
    edofs = np.array([r.n_edof_exact for r in records])
    grid = np.array([r.swept_value for r in records])
    peak = int(np.argmax(edofs))

    ok_a = abs(grid[peak] - 12.65 * LAM) <= 0.5 * LAM
    report(2, "(a) EDoF argmax within 0.5 lambda of threshold", ok_a)

    ok_b = edofs[peak] >= 0.95 * N
    report(2, "(b) peak EDoF >= 0.95 N", ok_b)

    rho1 = np.array([r.rho1_closed for r in records])
    zeros = np.flatnonzero(rho1 < 1e-6)
    ok_c = zeros.size > 0 and abs(grid[zeros[0]] - D_TH) < 1e-12
    report(2, "(c) first zero of closed-form gain at the threshold", ok_c)

    after = edofs[peak : peak + 4]
    ok_d = after.size == 4 and (np.diff(after) < 0).all()
    report(2, "(d) EDoF strictly decreasing over 3 points after the peak", ok_d)


def test_criterion_3_closed_form_vs_oracle(fig5):
    # every sweep record holds both gains of the focus' nearest neighbour
    _, records = fig5
    paraxial = [r for r in records if r.epsilon <= 1.2]
    result = max(abs(r.rho1_closed - r.rho1_phase_only) / N for r in paraxial)
    ok = result <= 0.05
    report(3, "closed-form gain within 0.05 N of the phasor-sum oracle", ok,
           f"max error {result:.3g} N over {len(paraxial)} records")


def _points(eps, err, idx):
    return ", ".join(f"eps={eps[i]:.3f} err={err[i]:.3f}" for i in idx)


def test_criterion_4_estimator_validity_regime(fig5):
    # The gap has two causes: a real-valued estimate meets an integer count (no integer
    # is within 10% of 1.47), then the spectrum's transition band, narrowing as eps -> 1.
    spec, records = fig5

    def at_threshold(r):
        return abs(r.swept_value - D_TH) < 1e-12

    paraxial = [r for r in records if r.epsilon <= 1.0 or at_threshold(r)]
    th = [at_threshold(r) for r in paraxial].index(True)
    eps = np.array([r.epsilon for r in paraxial])
    err = np.array([abs(r.n_edof_trace - r.n_edof_exact) / r.n_edof_exact for r in paraxial])
    within = err <= 0.10

    report(4, "(a) trace estimator within 10% at the threshold", within[th],
           _points(eps, err, [th]))

    # the in-band run that ends at the threshold starts after its last miss
    misses = np.flatnonzero(~within[: th + 1])
    entry = misses[-1] + 1 if misses.size else 0
    strays = [i for i in np.flatnonzero(within) if not entry <= i <= th]
    entry_eps = eps[entry] if entry <= th else float("nan")
    report(
        4,
        f"(b) trace estimator within 10% on one run from epsilon {entry_eps:.3f} to the threshold",
        within[th] and not strays,
        _points(eps, err, strays),
    )

    eps_rank = np.argsort(np.argsort(eps))
    err_rank = np.argsort(np.argsort(err))
    rho = np.corrcoef(eps_rank, err_rank)[0, 1]
    rises = np.flatnonzero(np.diff(err) > 0) + 1
    report(4, f"(c) error falls as epsilon rises to 1 (Spearman {rho:.3f} <= -0.9)",
           rho <= -0.9, _points(eps, err, rises))


def test_criterion_4_estimator_failure_after_threshold(fig5):
    spec, records = fig5
    beyond = [r for r in records if r.epsilon >= 1.5]
    ok = any(
        abs(r.n_edof_trace - r.n_edof_exact) / r.n_edof_exact > 0.20 for r in beyond
    )
    report(4, "trace estimator off by >20% for some epsilon >= 1.5", ok)


@pytest.mark.parametrize(
    "factor,expect_plateau", [(0.8, True), (1.5, False)], ids=["before", "after"]
)
def test_criterion_5_spectrum_shape(factor, expect_plateau):
    spectrum = eigen_spectrum(build_channel(reference_system(factor * D_TH)))
    n_edof = edof_exact(spectrum)
    head = spectrum.values[: int(0.5 * n_edof)]
    plateau = (head / spectrum.values[0] >= 0.1).all()
    label = f"spectrum {'plateau' if expect_plateau else 'decay'} at {factor} d_threshold"
    report(5, label, plateau == expect_plateau)


def test_criterion_6_capacity_consistency(fig5):
    spec, records = fig5
    ok_trunc = all(r.capacity_edof_exact >= 0.95 * r.capacity_full for r in records)
    report(6, "EDoF-truncated capacity >= 0.95 full across the grid", ok_trunc)

    ok_det = True
    for side in (2, 3, 4):
        tx = build_upa(side, 0.006, 0.0)
        rx = build_upa(side, 0.006, 0.5)
        ch = build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        spectrum = eigen_spectrum(ch)
        n = side * side
        power, noise = 3.7e4, 1.0
        gram = ch.entries @ ch.entries.conj().T
        sign, logdet = np.linalg.slogdet(np.eye(n) + power / (noise * n) * gram)
        determinant_form = logdet / np.log(2)
        eigen_form = capacity(spectrum, power, noise, n)
        if sign <= 0 or abs(eigen_form - determinant_form) > 1e-10 * abs(determinant_form):
            ok_det = False
    report(6, "determinant and eigenvalue capacity forms agree to 1e-10", ok_det)


def test_criterion_7_property_suite():
    ch = build_channel(reference_system(6 * LAM))
    spectrum = eigen_spectrum(ch)

    frobenius = float(np.sum(np.abs(ch.entries) ** 2))
    ok = abs(spectrum.total_energy - frobenius) <= 1e-10 * frobenius
    report(7, "trace identity", ok)

    gram = ch.entries @ ch.entries.conj().T
    hermitian = np.allclose(gram, gram.conj().T, rtol=1e-12)
    # round-off floor for a 625-dim eigendecomposition, relative to the
    # largest eigenvalue
    psd = np.linalg.eigvalsh(gram).min() >= -1e-12 * spectrum.values[0]
    report(7, "Gram matrix Hermitian PSD", hermitian and psd)

    values = spectrum.values * abs(2.5 - 1.5j) ** 2
    scaled = EigenSpectrum(values, (N, N))
    ok_scale = np.isclose(edof_trace(scaled), edof_trace(spectrum), rtol=1e-12)
    rng = np.random.default_rng(0)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    base = np.linalg.svd(g, compute_uv=False) ** 2
    rotated = np.linalg.svd(q @ g, compute_uv=False) ** 2
    ok_unitary = np.allclose(base, rotated, rtol=1e-8)
    report(7, "trace estimator scale/unitary invariance", ok_scale and ok_unitary)

    ok_bounds = 1 <= edof_trace(spectrum) <= count_dof(spectrum)
    report(7, "1 <= trace estimator <= DoF", ok_bounds)

    ok_sym = np.allclose(ch.entries, ch.entries.T, rtol=1e-12)
    report(7, "coaxial identical arrays give a symmetric channel", ok_sym)

    g1 = greens((0, 0, 0), (0, 0, 1.0), 0.01)
    g2 = greens((0, 0, 0), (0, 0, 0.005), 0.01)
    g3 = greens((0, 0, 0), (0.03, 0.04, 0), 0.1)
    ok_greens = (
        np.isclose(g1, -1 / (4 * np.pi), rtol=1e-10)
        and np.isclose(g2, 1 / (2 * np.pi * 0.01), rtol=1e-10)
        and np.isclose(g3, 1 / (0.2 * np.pi), rtol=1e-10)
    )
    report(7, "Green's function trivial-phase cases", ok_greens)


def test_criterion_8_antenna_trend():
    spec = PRESETS["fig2"]
    records = run_sweep(spec)
    edofs = [r.n_edof_exact for r in records]
    ok_nondecreasing = all(b >= a for a, b in zip(edofs, edofs[1:]))
    ok_sublinear = all(b < 4 * a for a, b in zip(edofs, edofs[1:]))
    report(8, "EDoF nondecreasing and sublinear in antenna count", ok_nondecreasing and ok_sublinear)


def test_criterion_9_product_law():
    # unequal spacings: all N modes and the neighbour's gain null need only d_tx d_rx = d_th^2.
    # Arrays of unequal spacings share no grid, so their channels take the dense grid route
    def system(side, d_tx, d_rx):
        return SystemGeometry(build_upa(side, d_tx, 0.0), build_upa(side, d_rx, SEP), LAM)

    def threshold(side):
        return spacing_threshold(
            SystemParams(wavelength=LAM, side_count=side, spacing=LAM, separation=SEP)
        )

    def count(side, d_tx, d_rx):
        return edof_exact(eigen_spectrum(build_channel(system(side, d_tx, d_rx))))

    def neighbour_gain(side, d_tx, d_rx):
        # phase-only gain at the receive neighbour (d_rx, 0, L) of the focus, over N
        setup = make_focus_setup(system(side, d_tx, d_rx))
        return array_gain(setup, (d_rx, 0.0, SEP), GainMode.PHASE_ONLY) / side**2

    d_th = threshold(15)
    counts = [count(15, a * d_th, d_th / a) for a in (0.5, 0.6, 0.8, 0.9, 1.0)]
    report(9, "(a) n_edof_exact = N at every split d_tx d_rx = d_th^2", counts == [225] * 5,
           f"counts {counts}")

    nulls, contrasts = [], []
    for side in (15, 25):
        d_th = threshold(side)
        for a in (0.5, 0.8):
            nulls.append(neighbour_gain(side, a * d_th, d_th / a))
            contrasts.append(neighbour_gain(side, a * d_th, d_th))
    ok = max(nulls) < 1e-6 and min(contrasts) > 1e-2
    report(9, "(b) neighbour gain < 1e-6 N at the product split, > 1e-2 N at (a d_th, d_th)", ok,
           f"nulls {nulls}, contrasts {contrasts}")

    d_th = threshold(15)
    pairs = [(count(15, a * d_th, d_th), count(15, a**0.5 * d_th, a**0.5 * d_th)) for a in (0.5, 0.8)]
    ok = all(abs(unequal - square) <= 1 for unequal, square in pairs)
    report(9, "(c) count at (a d_th, d_th) within 1 of the square array's at epsilon = a", ok,
           f"(unequal, square) {pairs}")
