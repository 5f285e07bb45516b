import numpy as np
import pytest
from hypothesis import given, strategies as st

from nfmimo.channel import ChannelMatrix, SystemGeometry, build_channel
from nfmimo.experiments import auto_power, coaxial_system, load_preset
from nfmimo.geometry import PlanarArray, build_upa
from nfmimo.spectrum import (
    capacity,
    count_dof,
    edof_exact,
    edof_fringes,
    edof_trace,
    eigen_spectrum,
    plane_area,
    spectrum_from_eigenvalues,
)


def make_channel(side=3, spacing=0.005, wavelength=0.01, separation=0.1):
    tx = build_upa(side, spacing, 0.0)
    rx = build_upa(side, spacing, separation)
    return build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=wavelength))


def matrix_channel(entries):
    """Wrap a raw matrix so spectrum operations can run on synthetic inputs."""
    return ChannelMatrix(entries=np.asarray(entries, dtype=complex))


def synthetic(values, dims=None):
    values = np.asarray(values, dtype=float)
    if dims is None:
        dims = (values.size, values.size)
    return spectrum_from_eigenvalues(values, dims)


class TestEigenSpectrum:
    def test_scalar_channel(self):
        spec = eigen_spectrum(matrix_channel([[3 - 4j]]))
        np.testing.assert_allclose(spec.values, [25.0])

    def test_identity(self):
        spec = eigen_spectrum(matrix_channel(np.eye(2)))
        np.testing.assert_allclose(spec.values, [1.0, 1.0])

    def test_matches_independent_hermitian_eigensolver(self):
        # oracle: second decomposition path via eigvalsh on G G^H
        ch = make_channel(side=3)
        spec = eigen_spectrum(ch)
        gram = ch.entries @ ch.entries.conj().T
        oracle = np.sort(np.linalg.eigvalsh(gram))[::-1]
        # near-zero tail is dominated by round-off in either path; compare
        # relative to the spectrum scale
        np.testing.assert_allclose(spec.values, oracle, rtol=1e-8, atol=1e-8 * spec.values[0])

    def test_trace_identity(self):
        ch = make_channel(side=4)
        spec = eigen_spectrum(ch)
        frobenius = np.sum(np.abs(ch.entries) ** 2)
        assert spec.total_energy == pytest.approx(frobenius, rel=1e-10)

    def test_descending_and_nonnegative(self):
        spec = eigen_spectrum(make_channel(side=4))
        assert (np.diff(spec.values) <= 0).all()
        assert (spec.values >= 0).all()
        assert spec.values.size == 16
        assert spec.source_dims == (16, 16)

    def test_negative_roundoff_clamped(self):
        spec = synthetic([1.0, -1e-13])
        assert spec.values[-1] == 0.0

    def test_large_negative_is_hard_error(self):
        with pytest.raises(ValueError):
            synthetic([1.0, -1e-6])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        base = eigen_spectrum(matrix_channel(g))
        left = eigen_spectrum(matrix_channel(q @ g))
        right = eigen_spectrum(matrix_channel(g @ q))
        np.testing.assert_allclose(left.values, base.values, rtol=1e-10)
        np.testing.assert_allclose(right.values, base.values, rtol=1e-10)


def preset_systems(name):
    """Every geometry a figure preset computes: each sweep point, or the one profile."""
    kind, payload, _ = load_preset(name)
    if kind == "profile":
        return [payload]
    points = [payload.at(v) for v in payload.grid]
    return [coaxial_system(p.side_count, p.spacing, p.separation, p.wavelength) for p in points]


def dense_spectrum(ch):
    """Reference: one SVD of the whole matrix."""
    singular = np.linalg.svd(ch.entries, compute_uv=False)
    return spectrum_from_eigenvalues(singular**2, ch.entries.shape)


def sweep_metrics(spec, geo):
    """(integer metrics, float metrics) as a sweep record derives them."""
    n = spec.source_dims[1]
    power = auto_power(n, geo.separation, 1.0)
    n_edof = edof_exact(spec)
    floats = (
        spec.total_energy,
        edof_trace(spec),
        capacity(spec, power, 1.0, n),
        capacity(spec, power, 1.0, n, n_edof),
    )
    return (count_dof(spec), n_edof), floats


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd."""
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


class TestParityBlocks:
    """A channel with parity blocks takes one SVD per block; any other takes one dense SVD."""

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig5", "fig7", "fig8"])
    def test_matches_dense_svd_and_hermitian_eigensolver(self, preset):
        for geo in preset_systems(preset):
            ch = build_channel(geo)
            ints, floats = sweep_metrics(eigen_spectrum(ch), geo)
            gram = ch.entries @ ch.entries.conj().T
            oracles = (
                dense_spectrum(ch),
                spectrum_from_eigenvalues(np.linalg.eigvalsh(gram), ch.entries.shape),
            )
            for oracle in oracles:
                ref_ints, ref_floats = sweep_metrics(oracle, geo)
                assert ints == ref_ints
                np.testing.assert_allclose(floats, ref_floats, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "side, blocks",
        [
            (1, [(1, 1)]),
            (4, [(3, 3), (1, 1), (4, 4), (3, 3), (1, 1)]),
            (25, [(91, 91), (78, 78), (156, 156), (78, 78), (66, 66)]),
        ],
    )
    def test_symmetric_channel_takes_three_block_svds(self, svd_shapes, side, blocks):
        ch = make_channel(side=side, spacing=0.1265, separation=40.0)
        spec = eigen_spectrum(ch)
        # a 0 x 0 block stands for an empty subspace (all but the even-even symmetric one at side 1)
        assert [s for s in svd_shapes if s != (0, 0)] == blocks
        assert spec.values.size == side**2
        np.testing.assert_allclose(spec.values, dense_spectrum(ch).values, rtol=0, atol=1e-13 * spec.values[0])

    @pytest.mark.parametrize(
        "entries_perturbed",
        [
            [(0, 3, 1, 2)],
            # still bitwise swap-symmetric, no longer mirror-symmetric
            [(0, 3, 1, 2), (3, 0, 2, 1)],
            # still bitwise mirror-symmetric, no longer swap-symmetric
            [(0, 3, 1, 2), (4, 3, 3, 2), (0, 1, 1, 2), (4, 1, 3, 2)],
        ],
        ids=["one_entry", "mirror_broken", "swap_broken"],
    )
    def test_perturbed_matrix_takes_the_dense_path(self, svd_shapes, entries_perturbed):
        ch = make_channel(side=5)
        t = ch.entries.reshape(5, 5, 5, 5).copy()  # t[i, k, j, l]: rx (i, k), tx (j, l)
        for index in entries_perturbed:
            t[index] *= 1 + 1e-15
        perturbed = ChannelMatrix(entries=t.reshape(25, 25))
        spec = eigen_spectrum(perturbed)
        assert svd_shapes == [(25, 25)]
        np.testing.assert_array_equal(spec.values, dense_spectrum(perturbed).values)

    def test_offaxis_and_matrix_only_channels_take_the_dense_path(self, svd_shapes):
        tx = build_upa(4, 0.006, 0.0)
        grid = build_upa(4, 0.006, 0.2)
        rx = PlanarArray(
            side_count=4, spacing=0.006, plane_offset=0.2, positions=grid.positions + (0.003, 0.0, 0.0)
        )
        offaxis = build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=0.01))
        # both arrays moved by one lateral offset: still one grid, but not centred
        tx_moved, rx_moved = (
            PlanarArray(
                side_count=4, spacing=0.006, plane_offset=a.plane_offset, positions=a.positions + (0.004, 0.004, 0.0)
            )
            for a in (tx, grid)
        )
        shifted = build_channel(SystemGeometry(tx=tx_moved, rx=rx_moved, wavelength=0.01))
        symmetric = matrix_channel(make_channel(side=4).entries)  # no geometry
        for ch in (offaxis, shifted, symmetric):
            np.testing.assert_array_equal(eigen_spectrum(ch).values, dense_spectrum(ch).values)
        assert svd_shapes == [(16, 16)] * 6

    def test_all_nan_matrix_still_fails_to_converge(self):
        nan = ChannelMatrix(entries=np.full((9, 9), np.nan, dtype=complex))
        with pytest.raises(np.linalg.LinAlgError):
            eigen_spectrum(nan)


class TestCountDof:
    def test_zero_excluded(self):
        assert count_dof(synthetic([4.0, 1.0, 0.0])) == 2

    def test_all_equal(self):
        assert count_dof(synthetic([2.0] * 7)) == 7

    def test_floor_is_relative(self):
        assert count_dof(synthetic([1.0, 1e-6, 1e-14])) == 2
        assert count_dof(synthetic([1.0, 1e-6, 1e-14]), relative_floor=1e-15) == 3

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            count_dof(synthetic([1.0]), relative_floor=1.5)


class TestEdofExact:
    def test_single_dominant_value(self):
        assert edof_exact(synthetic([1.0, 0.0, 0.0])) == 1

    def test_flat_spectrum_needs_all(self):
        # any proper prefix of four equal values reaches at most 75%
        assert edof_exact(synthetic([1.0, 1.0, 1.0, 1.0])) == 4

    def test_monotone_in_fraction(self):
        spec = eigen_spectrum(make_channel(side=4))
        assert edof_exact(spec, 0.5) <= edof_exact(spec, 0.999)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            edof_exact(synthetic([0.0, 0.0]))

    def test_bounded_by_dof(self):
        spec = eigen_spectrum(make_channel(side=4))
        assert 1 <= edof_exact(spec) <= count_dof(spec) <= 16


class TestEdofFringes:
    def test_unit_areas(self):
        assert edof_fringes(1.0, 1.0, 0.01, 40.0) == pytest.approx(6.25)

    def test_threshold_spacing_gives_n(self):
        # at d^2 = lambda L / sqrt(N) the cell-area estimate is exactly N
        n, lam, sep = 625, 0.01, 40.0
        d = np.sqrt(lam * sep / np.sqrt(n))
        area = n * d * d
        assert edof_fringes(area, area, lam, sep) == pytest.approx(n, rel=1e-12)

    def test_reference_scale_point(self):
        # oracle: (625 * 0.06^2)^2 / (0.01 * 40)^2
        area = 625 * 0.06**2
        assert edof_fringes(area, area, 0.01, 40.0) == pytest.approx(31.640625)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            edof_fringes(0.0, 1.0, 0.01, 40.0)


class TestPlaneArea:
    def test_cell_convention(self):
        arr = build_upa(5, 0.2, 0.0)
        assert plane_area(arr) == pytest.approx(25 * 0.04)

    def test_span_convention(self):
        arr = build_upa(5, 0.2, 0.0)
        assert plane_area(arr, "span") == pytest.approx(0.64)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            plane_area(build_upa(2, 0.1, 0.0), "hexagon")


class TestEdofTrace:
    def test_single_value(self):
        assert edof_trace(synthetic([3.7])) == pytest.approx(1.0)

    def test_flat_spectrum_exact(self):
        # exact for r equal nonzero values
        for r in (1, 2, 5, 9):
            values = [2.5] * r + [0.0] * (9 - r)
            assert edof_trace(synthetic(values)) == pytest.approx(r, rel=1e-12)
            assert edof_exact(synthetic(values)) == r

    def test_four_one(self):
        assert edof_trace(synthetic([4.0, 1.0])) == pytest.approx(25 / 17)

    def test_scale_invariance(self):
        spec = eigen_spectrum(make_channel(side=3))
        scaled = spectrum_from_eigenvalues(spec.values * 7.3e-4, spec.source_dims)
        assert edof_trace(scaled) == pytest.approx(edof_trace(spec), rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30)
    )
    def test_cauchy_schwarz_bounds(self, values):
        spec = synthetic(sorted(values, reverse=True))
        assert 1.0 - 1e-9 <= edof_trace(spec) <= count_dof(spec, 1e-15) + 1e-9


class TestCapacity:
    def test_zero_power(self):
        spec = eigen_spectrum(make_channel(side=3))
        assert capacity(spec, 0.0, 1.0, 9) == 0.0

    def test_single_mode_unit_snr(self):
        spec = synthetic([1.0])
        assert capacity(spec, 4.0, 1.0, 4) == pytest.approx(1.0)

    def test_matches_determinant_form(self):
        # oracle: log2 det(I + (P/(sigma^2 N_S)) G G^H)
        ch = make_channel(side=4)
        spec = eigen_spectrum(ch)
        p, sigma2 = 2.5e5, 1.0
        c = p / (sigma2 * 16)
        gram = ch.entries @ ch.entries.conj().T
        sign, logdet = np.linalg.slogdet(np.eye(16) + c * gram)
        assert sign == pytest.approx(1.0)
        assert capacity(spec, p, sigma2, 16) == pytest.approx(logdet / np.log(2), rel=1e-10)

    def test_monotone_in_truncation(self):
        spec = eigen_spectrum(make_channel(side=4))
        caps = [capacity(spec, 1e3, 1.0, 16, t) for t in range(1, 17)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        assert capacity(spec, 1e3, 1.0, 16, edof_exact(spec)) <= caps[-1]

    def test_invalid_truncation(self):
        spec = synthetic([1.0, 1.0])
        with pytest.raises(ValueError):
            capacity(spec, 1.0, 1.0, 2, truncate_to=3)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            capacity(synthetic([1.0]), 1.0, 0.0, 1)
