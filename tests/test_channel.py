import numpy as np
import pytest
from hypothesis import given, strategies as st

from nfmimo.channel import SystemGeometry, build_channel, greens
from nfmimo.beamfocus import spacing_threshold
from nfmimo.geometry import PlanarArray, build_upa


def make_system(side=3, spacing=0.005, wavelength=0.01, separation=0.1):
    tx = build_upa(side, spacing, 0.0)
    rx = build_upa(side, spacing, separation)
    return SystemGeometry(tx=tx, rx=rx, wavelength=wavelength)


class TestGreens:
    def test_unit_distance_phase_multiple_of_2pi(self):
        # k r = 200 pi -> phase factor 1, value -1/(4 pi)
        g = greens((0, 0, 0), (0, 0, 1.0), 0.01)
        assert g == pytest.approx(-1 / (4 * np.pi), rel=1e-12)
        assert abs(g.imag) < 1e-10

    def test_half_wavelength_distance(self):
        # k r = pi -> phase factor -1 cancels the leading minus
        g = greens((0, 0, 0), (0, 0, 0.005), 0.01)
        assert g == pytest.approx(1 / (2 * np.pi * 0.01), rel=1e-12)

    def test_3_4_5_triangle(self):
        # r = 0.05, k r = pi
        g = greens((0, 0, 0), (0.03, 0.04, 0), 0.1)
        assert g == pytest.approx(1 / (0.2 * np.pi), rel=1e-12)

    def test_magnitude_is_inverse_4pi_r(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q = rng.normal(size=3), rng.normal(size=3)
            r = np.linalg.norm(p - q)
            assert abs(greens(p, q, 0.03)) == pytest.approx(1 / (4 * np.pi * r), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            greens((0, 0, 0), (0, 0, 0), 0.01)
        with pytest.raises(ValueError):
            greens((0, 0, np.nan), (0, 0, 1), 0.01)
        with pytest.raises(ValueError):
            greens((0, 0, 0), (0, 0, 1), -0.01)


class TestSystemGeometry:
    def test_separation(self):
        geo = make_system(separation=0.25)
        assert geo.separation == pytest.approx(0.25)

    def test_rejects_nonpositive_separation(self):
        tx = build_upa(2, 0.005, 0.0)
        rx = build_upa(2, 0.005, 0.0)
        with pytest.raises(ValueError):
            SystemGeometry(tx=tx, rx=rx, wavelength=0.01)

    def test_rejects_bad_wavelength(self):
        tx = build_upa(2, 0.005, 0.0)
        rx = build_upa(2, 0.005, 1.0)
        with pytest.raises(ValueError):
            SystemGeometry(tx=tx, rx=rx, wavelength=0.0)


class TestBuildChannel:
    def test_single_pair_equals_greens(self):
        tx = build_upa(1, 0.0, 0.0)
        rx = build_upa(1, 0.0, 0.37)
        geo = SystemGeometry(tx=tx, rx=rx, wavelength=0.01)
        ch = build_channel(geo)
        assert ch.entries.shape == (1, 1)
        assert ch.entries[0, 0] == pytest.approx(greens((0, 0, 0.37), (0, 0, 0), 0.01))

    def test_coaxial_identical_arrays_symmetric(self):
        ch = build_channel(make_system(side=3))
        np.testing.assert_allclose(ch.entries, ch.entries.T, rtol=1e-12)

    def test_entries_match_per_pair_greens(self):
        # oracle: independent per-pair loop over the Green's function
        geo = make_system(side=2, spacing=0.005, wavelength=0.01, separation=0.1)
        ch = build_channel(geo)
        for i, rp in enumerate(geo.rx.positions):
            for j, sp_ in enumerate(geo.tx.positions):
                assert ch.entries[i, j] == pytest.approx(
                    greens(rp, sp_, geo.wavelength), rel=1e-12
                )

    def test_swap_arrays_transposes(self):
        tx = build_upa(2, 0.004, 0.0)
        rx = build_upa(3, 0.007, 0.2)
        fwd = build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=0.01))
        tx2 = build_upa(3, 0.007, 0.0)
        rx2 = build_upa(2, 0.004, 0.2)
        rev = build_channel(SystemGeometry(tx=tx2, rx=rx2, wavelength=0.01))
        np.testing.assert_allclose(fwd.entries, rev.entries.T, rtol=1e-12)

    def test_coordinate_scaling(self):
        # scaling all lengths and the wavelength by c scales entries by 1/c
        c = 3.0
        base = build_channel(make_system(side=2, spacing=0.005, wavelength=0.01, separation=0.1))
        scaled = build_channel(
            make_system(side=2, spacing=0.005 * c, wavelength=0.01 * c, separation=0.1 * c)
        )
        np.testing.assert_allclose(scaled.entries, base.entries / c, rtol=1e-12)

    def test_gram_is_hermitian_psd(self):
        ch = build_channel(make_system(side=3))
        gram = ch.entries @ ch.entries.conj().T
        np.testing.assert_allclose(gram, gram.conj().T, rtol=1e-12)
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() >= -np.finfo(float).eps * eigvals.max()


def dense_entries(geo):
    """Oracle: every distance by np.linalg.norm over all antenna pairs."""
    diff = geo.rx.positions[:, None, :] - geo.tx.positions[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    return -np.exp(1j * geo.wavenumber * r) / (4 * np.pi * r)


@pytest.fixture
def norm_shapes(monkeypatch):
    """Shapes passed to np.linalg.norm; of the two assemblies only the dense one calls it."""
    shapes = []
    norm = np.linalg.norm

    def recorded(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    return shapes


class TestGatheredAssembly:
    """Identical coaxial grids are gathered from a kernel table, bit for bit."""

    @pytest.mark.parametrize("side", range(1, 9))
    def test_bit_identical_to_dense(self, norm_shapes, side):
        geo = make_system(side=side, spacing=0.013 if side > 1 else 0.0, separation=3.7)
        entries = build_channel(geo).entries
        assert norm_shapes == []
        assert np.array_equal(entries, dense_entries(geo))

    def test_bit_identical_at_fig5_threshold(self, norm_shapes):
        d = spacing_threshold(625, 0.01, 40.0)
        geo = make_system(side=25, spacing=d, wavelength=0.01, separation=40.0)
        entries = build_channel(geo).entries
        assert norm_shapes == []
        assert np.array_equal(entries, dense_entries(geo))
        assert not entries.flags.writeable

    @given(
        side=st.integers(min_value=1, max_value=12),
        spacing=st.floats(min_value=1e-4, max_value=10.0),
        separation=st.floats(min_value=1e-2, max_value=1e3),
        wavelength=st.floats(min_value=1e-3, max_value=1.0),
        plane_offset=st.floats(min_value=-100.0, max_value=100.0).filter(bool),
    )
    def test_gathered_matrix_is_mirror_and_swap_symmetric(
        self, side, spacing, separation, wavelength, plane_offset
    ):
        tx = build_upa(side, spacing, plane_offset)
        rx = build_upa(side, spacing, plane_offset + separation)
        ch = build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=wavelength))
        assert ch.grid is not None
        # t[i, k, j, l]: rx antenna (i, k), tx antenna (j, l)
        t = ch.entries.reshape(side, side, side, side)
        assert np.array_equal(t, t.transpose(1, 0, 3, 2))
        assert np.array_equal(t, t[:, ::-1, :, ::-1])

    TILT = np.outer(np.arange(9), (0.0, 0.0, 1e-3))
    # (arrays moved, shift of their positions); side_count and spacing stay those of the grid
    MOVED = {
        "shifted_rx": (("rx",), (0.004, -0.002, 0.0)),
        "shifted_tx": (("tx",), (0.004, 0.0, 0.0)),
        # still one shared grid, but no longer centred
        "shifted_both": (("tx", "rx"), (0.004, 0.004, 0.0)),
        "tilted_rx": (("rx",), TILT),
        "tilted_tx": (("tx",), TILT),
    }

    @pytest.mark.parametrize("case", [*MOVED, "unequal_sides"])
    def test_other_geometries_take_the_dense_path(self, norm_shapes, case):
        arrays = {
            "tx": build_upa(3, 0.006, 0.0),
            "rx": build_upa(2 if case == "unequal_sides" else 3, 0.006, 0.15),
        }
        names, shift = self.MOVED.get(case, ((), None))
        for name in names:
            grid = arrays[name]
            arrays[name] = PlanarArray(
                side_count=grid.side_count,
                spacing=grid.spacing,
                plane_offset=grid.plane_offset,
                positions=grid.positions + shift,
            )
        tx, rx = arrays["tx"], arrays["rx"]
        geo = SystemGeometry(tx=tx, rx=rx, wavelength=0.01)
        ch = build_channel(geo)
        entries = ch.entries
        assert norm_shapes == [(rx.size, tx.size, 3)]
        assert ch.grid is None
        assert np.array_equal(entries, dense_entries(geo))
        for i, rp in enumerate(rx.positions):
            for j, sp_ in enumerate(tx.positions):
                assert entries[i, j] == pytest.approx(greens(rp, sp_, 0.01), rel=1e-12)

