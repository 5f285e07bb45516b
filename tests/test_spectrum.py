import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nfmimo import channel
from nfmimo.channel import ChannelMatrix, SystemGeometry, build_channel
from nfmimo.experiments import PRESETS, SweepSpec, auto_power, coaxial_system
from nfmimo.geometry import PlanarArray, build_upa
from nfmimo.spectrum import (
    EigenSpectrum,
    capacity,
    count_dof,
    edof_exact,
    edof_fringes,
    edof_trace,
    eigen_spectrum,
    plane_area,
)


def make_channel(side=3, spacing=0.005, wavelength=0.01, separation=0.1):
    tx = build_upa(side, spacing, 0.0)
    rx = build_upa(side, spacing, separation)
    return build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=wavelength))


def matrix_channel(entries):
    """Wrap a raw matrix so spectrum operations can run on synthetic inputs."""
    return ChannelMatrix(entries=np.asarray(entries, dtype=complex))


def synthetic(values, dims=None):
    """An EigenSpectrum of the given values, square dims of their count by default."""
    if dims is None:
        dims = (len(values), len(values))
    return EigenSpectrum(values, dims)


def eigvalsh_spectrum(gram, dims):
    """Oracle: the Gram matrix's eigenvalues from a Hermitian eigensolver, whose round-off can
    go below zero. Down to 1e-12 of the largest eigenvalue it clamps to 0; lower fails."""
    values = np.linalg.eigvalsh(gram)
    assert values.min() >= -1e-12 * max(values.max(), 0.0)
    return synthetic(np.clip(values, 0.0, None), dims)


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

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        base = eigen_spectrum(matrix_channel(g))
        left = eigen_spectrum(matrix_channel(q @ g))
        right = eigen_spectrum(matrix_channel(g @ q))
        np.testing.assert_allclose(left.values, base.values, rtol=1e-10)
        np.testing.assert_allclose(right.values, base.values, rtol=1e-10)


class TestEigenSpectrumInvariants:
    """An EigenSpectrum orders, totals and checks the values it is given."""

    def test_unsorted_input_is_stored_descending_and_read_only(self):
        given = np.array([1.0, 4.0, 0.0, 2.0])
        spec = EigenSpectrum(given, (4, 4))
        assert spec.values.tolist() == [4.0, 2.0, 1.0, 0.0]
        assert given.tolist() == [1.0, 4.0, 0.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            spec.values[0] = 5.0

    def test_total_energy_is_the_sum_of_the_stored_values(self):
        spec = EigenSpectrum([1.1] * 7 + [3], (8, 8))
        assert spec.total_energy == float(spec.values.sum())
        with pytest.raises(TypeError):
            EigenSpectrum(np.array([1.0]), 2.0, (1, 1))

    @pytest.mark.parametrize(
        "values",
        [[], [0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]],
        ids=["empty", "zero", "inf", "nan"],
    )
    def test_no_positive_finite_total_is_rejected_when_built(self, values):
        with pytest.raises(ValueError, match="positive finite sum"):
            EigenSpectrum(values, (2, 2))

    def test_unsorted_values_give_the_sorted_counts_and_capacity(self):
        spec = EigenSpectrum(np.array([0.0, 1.0]), (2, 2))
        assert count_dof(spec) == 1
        assert edof_exact(spec) == 1
        assert capacity(spec, 10.0, 1.0, 2, 1) == pytest.approx(math.log2(6), rel=1e-15)


def preset_systems(name):
    """Every geometry a figure preset computes: each sweep point, or the one profile."""
    payload = PRESETS[name]
    points = [payload.at(v) for v in payload.grid] if isinstance(payload, SweepSpec) else [payload]
    return [coaxial_system(p) for p in points]


def dense_spectrum(ch):
    """Reference: one SVD of the whole matrix."""
    singular = np.linalg.svd(ch.entries, compute_uv=False)
    return synthetic(singular**2, ch.entries.shape)


def sweep_metrics(spec, geo):
    """(integer metrics, float metrics) as a sweep record derives them."""
    n = spec.source_dims[1]
    power = auto_power(n, geo.separation)
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
                eigvalsh_spectrum(gram, ch.entries.shape),
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
    def test_symmetric_channel_takes_one_svd_per_d4_block(self, svd_shapes, side, blocks):
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


SEPARATION = 0.2


def offaxis_geometry(tx_side, rx_side, jittered=False):
    """A tx grid facing an rx grid shifted off the axis; `jittered` moves one rx antenna
    by 1 nm along x, so the pair is no grid pair and takes the per-pair assembly."""
    spacing = 0.018
    tx = build_upa(tx_side, spacing, 0.0)
    grid = build_upa(rx_side, spacing, SEPARATION)
    shifted = grid.positions + (0.009, 0.0, 0.0)
    if jittered:
        shifted[0, 0] += 1e-9
    rx = PlanarArray(side_count=rx_side, spacing=spacing, plane_offset=SEPARATION, positions=shifted)
    return SystemGeometry(tx=tx, rx=rx, wavelength=0.01)


def offaxis_channel(tx_side, rx_side):
    """The dense N_R x N_S channel of `offaxis_geometry`: no D4 blocks."""
    return build_channel(offaxis_geometry(tx_side, rx_side))


def norm_entries(geo):
    """Oracle: every distance by np.linalg.norm over all antenna pairs."""
    r = np.linalg.norm(geo.rx.positions[:, None, :] - geo.tx.positions[None, :, :], axis=2)
    return -np.exp(1j * geo.wavenumber * r) / (4 * np.pi * r)


def complex_normal(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def wide_block_channel():
    """Blocks of a 3 x 5 matrix twice and a 2 x 2 once, on their block diagonal."""
    wide, square = complex_normal(7, (3, 5)), complex_normal(8, (2, 2))
    entries = np.zeros((8, 12), dtype=complex)
    entries[0:3, 0:5] = entries[3:6, 5:10] = wide
    entries[6:8, 10:12] = square
    return ChannelMatrix(blocks=((wide, 2), (square, 1)), gather=lambda: entries, shape=(8, 12))


TALL_CASES = {
    # name: (channel, shapes np.linalg.svd receives); 36 >= int(17 * 16 / 9), so the
    # grid pairs reach it as their QR factor R
    "wide_grid_pair": lambda: (offaxis_channel(6, 4), [(16, 16)]),
    "tall_grid_pair": lambda: (offaxis_channel(4, 6), [(16, 16)]),
    "wide_matrix": lambda: (matrix_channel(complex_normal(5, (5, 9))), [(9, 5)]),
    "wide_block": lambda: (wide_block_channel(), [(5, 3), (2, 2)]),
}


class TestTallOrientation:
    """np.linalg.svd receives every matrix with at least as many rows as columns."""

    @pytest.mark.parametrize("case", TALL_CASES)
    def test_every_svd_input_is_tall(self, svd_shapes, case):
        ch, shapes = TALL_CASES[case]()
        eigen_spectrum(ch)
        assert svd_shapes == shapes
        assert all(rows >= cols for rows, cols in svd_shapes)

    @pytest.mark.parametrize("case", ["wide_grid_pair", "wide_matrix"])
    def test_wide_channel_equals_its_transpose_bitwise(self, case):
        ch, _ = TALL_CASES[case]()
        assert ch.shape[0] < ch.shape[1]
        np.testing.assert_array_equal(
            eigen_spectrum(ch).values, eigen_spectrum(matrix_channel(ch.entries.T)).values
        )

    def test_tall_channel_takes_the_dense_svd_unchanged(self):
        ch = offaxis_channel(4, 6)
        np.testing.assert_array_equal(eigen_spectrum(ch).values, dense_spectrum(ch).values)

    # (tx side, rx side): 16 antennas against 25 stay whole, as 25 < int(17 * 16 / 9) = 30;
    # against 36 they are QR-factored. Each in both orientations
    @pytest.mark.parametrize("jittered", [False, True], ids=["grid", "per_pair"])
    @pytest.mark.parametrize(
        "sides", [(5, 4), (4, 5), (6, 4), (4, 6)], ids=["16x25", "25x16", "16x36", "36x16"]
    )
    def test_dense_spectrum_is_the_svd_of_the_entries_bitwise(self, svd_shapes, sides, jittered):
        geo = offaxis_geometry(*sides, jittered=jittered)
        ch = build_channel(geo)
        values = eigen_spectrum(ch).values
        assert (geo.rx.grid is None) == jittered
        short, long = sorted(ch.shape)
        factored = long >= int(17 * short / 9)
        assert svd_shapes == [(short, short) if factored else (long, short)]
        [(block, multiplicity)] = ch.blocks
        assert multiplicity == 1 and (block is not ch.entries) == factored
        entries = ch.entries
        assert entries.shape == ch.shape == (geo.rx.size, geo.tx.size)
        assert not entries.flags.writeable
        assert np.array_equal(entries, norm_entries(geo))
        # a wide matrix's own SVD takes LAPACK's LQ route, whose bits differ; its transpose's
        tall = entries.T if entries.shape[0] < entries.shape[1] else entries
        np.testing.assert_array_equal(values, np.linalg.svd(tall, compute_uv=False) ** 2)

    @pytest.mark.parametrize("n", [1, 9, 90])
    def test_the_cut_over_is_zgesdds(self, svd_shapes, n):
        # zgesdd QR-factors an m x n matrix first from m = int(17 n / 9) rows on: there the
        # factored spectrum is np.linalg.svd's bit for bit, and one row fewer stays whole
        m = int(17 * n / 9)
        for rows in sorted({max(n, m - 1), m}):
            g = complex_normal(n, (rows, n))
            # column-major, as channel._assemble lays out a tall matrix
            ch = channel._dense(np.asfortranarray(g), lambda: g)
            values = eigen_spectrum(ch).values
            assert svd_shapes.pop() == ((n, n) if rows == m else (rows, n))
            np.testing.assert_array_equal(values, np.linalg.svd(g, compute_uv=False) ** 2)

    @pytest.mark.parametrize("case", TALL_CASES)
    def test_matches_dense_svd_and_smaller_gram(self, case):
        ch, _ = TALL_CASES[case]()
        geo = SimpleNamespace(separation=SEPARATION)  # sweep_metrics reads it for the auto power
        ints, floats = sweep_metrics(eigen_spectrum(ch), geo)
        g = ch.entries if ch.shape[0] <= ch.shape[1] else ch.entries.conj().T
        oracles = (
            dense_spectrum(ch),
            eigvalsh_spectrum(g @ g.conj().T, ch.shape),
        )
        for oracle in oracles:
            ref_ints, ref_floats = sweep_metrics(oracle, geo)
            assert ints == ref_ints
            np.testing.assert_allclose(floats, ref_floats, rtol=1e-12, atol=0)


class TestCountDof:
    def test_zero_excluded(self):
        assert count_dof(synthetic([4.0, 1.0, 0.0])) == 2

    def test_all_equal(self):
        assert count_dof(synthetic([2.0] * 7)) == 7

    def test_floor_is_relative(self):
        assert count_dof(synthetic([1.0, 1e-6, 1e-14])) == 2
        # the same ratios at a scale where every value is below 1e-12 absolute
        assert count_dof(synthetic([1e-20, 1e-26, 1e-34])) == 2


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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan])
    def test_fraction_outside_the_open_unit_interval_is_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\)"):
            edof_exact(synthetic([1.0, 1.0]), fraction)

    def test_bounded_by_dof(self):
        spec = eigen_spectrum(make_channel(side=4))
        assert 1 <= edof_exact(spec) <= count_dof(spec) <= 16

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=math.nextafter(1.0, 0.0), exclude_min=True)
        | st.just(math.nextafter(1.0, 0.0)),
    )
    # the cumulative sum of eight 1.1s ends below their pairwise sum, the total energy
    @example([1.1] * 8, math.nextafter(1.0, 0.0))
    def test_at_most_every_value(self, values, fraction):
        assert 1 <= edof_exact(synthetic(values), fraction) <= len(values)


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
        # a negative or NaN area, or a zero wavelength or separation
        for args in [(-1.0, 1.0, 0.01, 40.0), (1.0, math.nan, 0.01, 40.0),
                     (1.0, 1.0, 0.0, 40.0), (1.0, 1.0, 0.01, 0.0)]:
            with pytest.raises(ValueError):
                edof_fringes(*args)

    def test_zero_area_gives_zero(self):
        # an aperture whose (S d)^2 underflows to 0
        assert edof_fringes(0.0, 1.0, 0.01, 40.0) == 0.0

    @pytest.mark.parametrize(
        "args", [(1.0, 1.0, 1e-160, 1e-160), (1e200, 1e200, 1.0, 1.0)], ids=["underflow", "overflow"]
    )
    def test_leaving_the_float_range_names_the_fringe_edof(self, args):
        # (lambda L)^2 underflows to 0, or A_S A_R overflows to inf
        message = r"^the fringe EDoF A_S A_R / \(lambda L\)\^2 leaves the float range$"
        with pytest.raises(ArithmeticError, match=message):
            edof_fringes(*args)

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=4, max_size=4))
    def test_a_finite_estimate_keeps_its_bits(self, args):
        area_tx, area_rx, wavelength, separation = args
        try:
            expected = (area_tx * area_rx) / (wavelength**2 * separation**2)
        except ArithmeticError:
            expected = math.inf
        if math.isfinite(expected):
            assert edof_fringes(*args) == expected
        else:
            with pytest.raises(ArithmeticError, match="fringe EDoF"):
                edof_fringes(*args)


class TestPlaneArea:
    def test_cell_convention(self):
        arr = build_upa(5, 0.2, 0.0)
        assert plane_area(arr) == pytest.approx(25 * 0.04)


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
        scaled = synthetic(spec.values * 7.3e-4, spec.source_dims)
        assert edof_trace(scaled) == pytest.approx(edof_trace(spec), rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30)
    )
    def test_cauchy_schwarz_bounds(self, values):
        spec = synthetic(sorted(values, reverse=True))
        # every value is at least 1e-12 times the largest, so count_dof counts them all
        assert count_dof(spec) == len(values)
        assert 1.0 - 1e-9 <= edof_trace(spec) <= count_dof(spec) + 1e-9


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

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        truncate_to=st.none() | st.integers(min_value=1, max_value=16),
    )
    def test_depends_on_power_only_through_snr(self, scale, truncate_to):
        # the fact that lets the noise variance stay fixed at 1
        spec = eigen_spectrum(make_channel(side=4))
        base = capacity(spec, 2.5e5, 1.0, 16, truncate_to)
        scaled = capacity(spec, 2.5e5 * scale, scale, 16, truncate_to)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            capacity(synthetic([1.0]), 1.0, 0.0, 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 1.0, 2), "total_power must be >= 0"),
            ((1.0, math.nan, 2), "noise_variance must be positive"),
            ((1.0, 1.0, math.nan), "n_tx must be >= 1"),
            ((-1.0, 1.0, 2), "total_power must be >= 0"),
            ((1.0, 1.0, 0), "n_tx must be >= 1"),
        ],
        ids=["nan_power", "nan_noise", "nan_n_tx", "negative_power", "zero_n_tx"],
    )
    def test_rejected_inputs(self, args, message):
        with pytest.raises(ValueError, match=message):
            capacity(synthetic([1.0, 1.0]), *args)
