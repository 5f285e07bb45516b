import dataclasses
import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import nfmimo
from nfmimo import channel, experiments
from nfmimo.channel import ChannelMatrix, SystemGeometry, build_channel, greens
from nfmimo.experiments import SystemParams, coaxial_system, point_metrics
from nfmimo.beamfocus import spacing_threshold
from nfmimo.geometry import PlanarArray, build_upa

FIG5 = SystemParams(wavelength=0.01, side_count=25, spacing=0.01, separation=40.0)
COINCIDENT = "^coincident transmit/receive antennas, or their squared distance underflows to 0$"


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

    def test_point_that_is_not_3d_rejected(self):
        with pytest.raises(ValueError, match="points must be 3D"):
            greens((0, 0), (0, 0, 1), 0.01)

    def test_wavenumber_overflow_is_named(self):
        # below lambda ~ 3.5e-308, 2 pi / lambda overflows, and the entry would be nan+nanj
        with pytest.raises(
            ArithmeticError, match=r"^the wavenumber k = 2 pi / lambda leaves the float range$"
        ):
            greens((0, 0, 0), (0, 0, 1), 1e-320)


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

    @pytest.mark.parametrize("wavelength", [1e-320, 1e-308])
    def test_wavenumber_overflow_is_named(self, wavelength):
        # 2 pi / lambda is inf below lambda ~ 3.5e-308; numpy would name no quantity
        with pytest.raises(
            ArithmeticError, match=r"^the wavenumber k = 2 pi / lambda leaves the float range$"
        ):
            make_system(side=2, spacing=1.0, wavelength=wavelength, separation=1.0)

    def test_smallest_wavelengths_keep_a_finite_wavenumber(self):
        geo = make_system(side=2, spacing=1.0, wavelength=4e-308, separation=1.0)
        assert geo.wavenumber == 2 * np.pi / 4e-308


class TestBuildChannel:
    def test_single_pair_equals_greens(self):
        tx = build_upa(1, 0.005, 0.0)
        rx = build_upa(1, 0.005, 0.37)
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

    def test_coaxial_grids_whose_squared_distances_underflow_rejected(self):
        # README's `report --wavelength 1e-300 --separation 1e-300 --spacing 1e-200`
        params = SystemParams(wavelength=1e-300, side_count=2, spacing=1e-200, separation=1e-300)
        with pytest.raises(ValueError, match=COINCIDENT):
            build_channel(coaxial_system(params))

    def test_receive_antenna_on_a_transmit_antenna_rejected(self):
        tx = build_upa(2, 0.005, 0.0)
        positions = tx.positions + (0.0, 0.0, 0.1)
        positions[0] = tx.positions[0]  # off the receive plane, so the per-pair route
        rx = PlanarArray(2, 0.005, 0.1, positions)
        assert rx.grid is None
        with pytest.raises(ValueError, match=COINCIDENT):
            build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=0.01))

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
    """Shapes passed to np.linalg.norm; of the three assemblies (grid, coaxial D4 and
    per-pair) only the per-pair one calls it."""
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
        geo = make_system(side=side, spacing=0.013, separation=3.7)
        entries = build_channel(geo).entries
        assert norm_shapes == []
        assert np.array_equal(entries, dense_entries(geo))

    def test_bit_identical_at_fig5_threshold(self, norm_shapes):
        d = spacing_threshold(FIG5)
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
        assert [m for _, m in ch.blocks] == [1, 1, 2, 1, 1]
        # t[i, k, j, l]: rx antenna (i, k), tx antenna (j, l)
        t = ch.entries.reshape(side, side, side, side)
        assert np.array_equal(t, t.transpose(1, 0, 3, 2))
        assert np.array_equal(t, t[:, ::-1, :, ::-1])

    @pytest.mark.parametrize("case", ["tilted_rx", "tilted_tx", "jittered_rx", "jittered_tx"])
    def test_other_geometries_take_the_dense_path(self, norm_shapes, case):
        geo = moved_system(case)
        tx, rx = geo.tx, geo.rx
        ch = build_channel(geo)
        entries = ch.entries
        assert norm_shapes == [(rx.size, tx.size, 3)]
        [(block, multiplicity)] = ch.blocks
        assert block is entries and multiplicity == 1
        assert np.array_equal(entries, dense_entries(geo))
        for i, rp in enumerate(rx.positions):
            for j, sp_ in enumerate(tx.positions):
                assert entries[i, j] == pytest.approx(greens(rp, sp_, 0.01), rel=1e-12)


TILT = np.outer(np.arange(9), (0.0, 0.0, 1e-3))
# the centre antenna off its grid line by 1 nm, along x or along y
JITTER_X, JITTER_Y = np.zeros((9, 3)), np.zeros((9, 3))
JITTER_X[4, 0] = JITTER_Y[4, 1] = 1e-9
# (arrays moved, shift of their positions); side_count and spacing stay those of the grid
MOVED = {
    "shifted_rx": (("rx",), (0.004, -0.002, 0.0)),
    "shifted_tx": (("tx",), (0.004, 0.0, 0.0)),
    # still one shared grid, but no longer centred
    "shifted_both": (("tx", "rx"), (0.004, 0.004, 0.0)),
    "tilted_rx": (("rx",), TILT),
    "tilted_tx": (("tx",), TILT),
    "jittered_rx": (("rx",), JITTER_X),
    "jittered_tx": (("tx",), JITTER_Y),
}


def moved_system(case):
    """A 3 x 3 transmit and a 3 x 3 (2 x 2 for "unequal_sides") receive UPA, 0.006 m
    apart in-plane and 0.15 m between planes; the arrays MOVED[case] names are shifted
    by its shift."""
    arrays = {
        "tx": build_upa(3, 0.006, 0.0),
        "rx": build_upa(2 if case == "unequal_sides" else 3, 0.006, 0.15),
    }
    names, shift = MOVED.get(case, ((), None))
    for name in names:
        arrays[name] = shifted(arrays[name], shift)
    return SystemGeometry(tx=arrays["tx"], rx=arrays["rx"], wavelength=0.01)


def shifted(array, shift):
    """`array` with its positions moved by `shift`; side_count and spacing unchanged."""
    return PlanarArray(
        side_count=array.side_count,
        spacing=array.spacing,
        plane_offset=array.plane_offset,
        positions=array.positions + shift,
    )


class TestGridAssembly:
    """Any two grid arrays, antenna (n, m) at (x[n], y[m], z), are assembled from their
    squared 1-D offset tables, bit for bit, with no np.linalg.norm call."""

    @pytest.mark.parametrize("case", ["shifted_rx", "shifted_tx", "shifted_both", "unequal_sides"])
    def test_grids_take_the_grid_path(self, norm_shapes, case):
        geo = moved_system(case)
        tx, rx = geo.tx, geo.rx
        ch = build_channel(geo)
        entries = ch.entries
        assert norm_shapes == []
        [(block, multiplicity)] = ch.blocks
        assert multiplicity == 1
        if case == "unequal_sides":  # 9 >= int(17 * 4 / 9): the block is R, 4 x 4
            assert block.shape == (rx.size, rx.size)
        else:
            assert block is entries
        assert entries.shape == (rx.size, tx.size)
        assert not entries.flags.writeable
        assert np.array_equal(entries, dense_entries(geo))
        for i, rp in enumerate(rx.positions):
            for j, sp_ in enumerate(tx.positions):
                assert entries[i, j] == pytest.approx(greens(rp, sp_, 0.01), rel=1e-12)

    @given(
        tx_side=st.integers(min_value=1, max_value=12),
        rx_side=st.integers(min_value=1, max_value=12),
        tx_spacing=st.floats(min_value=1e-4, max_value=10.0),
        rx_spacing=st.floats(min_value=1e-4, max_value=10.0),
        offset_x=st.floats(min_value=-50.0, max_value=50.0),
        offset_y=st.floats(min_value=-50.0, max_value=50.0),
        separation=st.floats(min_value=1e-2, max_value=1e3),
        wavelength=st.floats(min_value=1e-3, max_value=1.0),
        plane_offset=st.floats(min_value=-100.0, max_value=100.0),
    )
    @example(
        tx_side=16, rx_side=24, tx_spacing=0.13, rx_spacing=0.13, offset_x=0.0, offset_y=0.0,
        separation=40.0, wavelength=0.01, plane_offset=0.0,
    )
    def test_grid_pairs_are_bit_identical_to_dense(
        self, tx_side, rx_side, tx_spacing, rx_spacing, offset_x, offset_y, separation,
        wavelength, plane_offset,
    ):
        tx = build_upa(tx_side, tx_spacing, plane_offset)
        grid = build_upa(rx_side, rx_spacing, plane_offset + separation)
        rx = shifted(grid, (offset_x, offset_y, 0.0))
        geo = SystemGeometry(tx=tx, rx=rx, wavelength=wavelength)
        assert np.array_equal(build_channel(geo).entries, dense_entries(geo))

    def test_grid_build_peaks_within_two_and_a_half_entries(self):
        # the grid assembly holds one float and one complex N_R x N_S array (1.5 x the
        # entries' bytes, plus the r > 0 mask); the per-pair assembly's N_R x N_S x 3
        # difference and its squares peak at 4.00 x
        tx = build_upa(20, 0.006, 0.0)
        rx = shifted(build_upa(16, 0.008, 0.3), (0.011, -0.007, 0.0))
        geo = SystemGeometry(tx=tx, rx=rx, wavelength=0.01)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ch = build_channel(geo)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ch.entries.shape == (256, 400)
        assert peak <= 2.5 * ch.entries.nbytes

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the heap reuse checked here is glibc malloc's"
    )
    def test_repeated_dense_builds_keep_the_peak(self):
        # the complex output is allocated before the float distance table, so the freed
        # table is the heap's top block and the SVD's copy of the entries reuses its space;
        # the other order left a hole below the entries, and the peak grew by 7.2-7.3 MiB
        # over these builds
        child = """
import resource
from nfmimo.channel import SystemGeometry, build_channel
from nfmimo.geometry import PlanarArray, build_upa
from nfmimo.spectrum import eigen_spectrum

def peak_kib_after(tx_side, rx_side):
    tx = build_upa(tx_side, 0.01, 0.0)
    grid = build_upa(rx_side, 0.012, 30.0)
    rx = PlanarArray(
        side_count=rx_side, spacing=0.012, plane_offset=30.0,
        positions=grid.positions + (0.05, -0.03, 0.0),
    )
    eigen_spectrum(build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=0.01)))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

first = peak_kib_after(25, 40)
for sides in ((23, 38), (21, 36), (19, 34), (16, 31)):
    peak_kib_after(*sides)
print(peak_kib_after(25, 40) - first)
"""
        env = {
            **os.environ,
            "PYTHONPATH": str(pathlib.Path(nfmimo.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
        }
        run = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) <= 2048  # KiB, as Linux reports ru_maxrss

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_tall_dense_build_and_spectrum_peak_within_one_and_three_quarter_entries(self):
        # the 1600 x 625 matrix is QR-factored in its own buffer, and the SVD copies only R
        # (625 x 625): 1.51 x; an SVD copy of the whole matrix takes it to 2.12 x.
        # The child reads its own peak, VmHWM: its ru_maxrss would start at this process's,
        # which Linux carries over through fork and exec
        child = """
from nfmimo.channel import SystemGeometry, build_channel
from nfmimo.geometry import PlanarArray, build_upa
from nfmimo.spectrum import eigen_spectrum

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])

def spectrum(tx_side, rx_side):
    tx = build_upa(tx_side, 0.01, 0.0)
    grid = build_upa(rx_side, 0.012, 30.0)
    rx = PlanarArray(
        side_count=rx_side, spacing=0.012, plane_offset=30.0,
        positions=grid.positions + (0.05, -0.03, 0.0),
    )
    eigen_spectrum(build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=0.01)))

spectrum(4, 6)  # BLAS and LAPACK set up before the measurement
before = peak_kib()
spectrum(25, 40)
spectrum(40, 25)
print(peak_kib() - before)
"""
        env = {
            **os.environ,
            "PYTHONPATH": str(pathlib.Path(nfmimo.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
        }
        run = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) * 1024 <= 1.75 * 1600 * 625 * 16  # the entries' bytes


class TestLazyEntries:
    """A gathered channel assembles its N x N matrix only when `entries` is read."""

    def test_point_metrics_never_gathers_the_matrix(self, monkeypatch):
        built = []

        def recorded(geometry):
            built.append(build_channel(geometry))
            return built[-1]

        monkeypatch.setattr(experiments, "build_channel", recorded)
        d = spacing_threshold(FIG5)
        params = dataclasses.replace(FIG5, spacing=d)
        point_metrics(params, d)
        (ch,) = built
        assert "entries" not in vars(ch)
        assert ch.shape == (625, 625)
        entries = ch.entries
        assert np.array_equal(entries, dense_entries(coaxial_system(params)))
        assert not entries.flags.writeable
        assert ch.entries is entries


def fold(t, even):
    """Oracle: project the index pair (0, 2) of t[i, k, j, l] onto its mirror-even
    or mirror-odd subspace; t must be unchanged by reversing axes 0 and 2 together.

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


def fold_entries(entries, side):
    """Oracle: the even-even, even-odd and odd-odd parity blocks, folded from the
    whole S^2 x S^2 matrix (S = side)."""
    t = entries.reshape(side, side, side, side)
    blocks = []
    for even_x, even_y in ((True, True), (True, False), (False, False)):
        # folding x, then y with the axes swapped, permutes rows and columns alike
        b = fold(fold(t, even_x).transpose(1, 0, 3, 2), even_y)
        rows = b.shape[0] * b.shape[1]
        blocks.append(b.reshape(rows, rows))
    return blocks


def parity_basis(side, even):
    """Orthonormal columns (e_a +- e_{S-1-a}) / sqrt(2), and e_c for the centre
    c of an odd side in the even basis, in the order the folds use."""
    half = (side + 1) // 2 if even else side // 2
    basis = np.zeros((side, half))
    for a in range(half):
        basis[a, a] = 1.0
        basis[side - 1 - a, a] += 1.0 if even else -1.0
        basis[:, a] /= np.linalg.norm(basis[:, a])
    return basis


def swap_basis(half, symmetric):
    """Orthonormal columns (e_(k,i) +- e_(i,k)) / sqrt(2) over the pairs k <= i (k < i
    for the antisymmetric ones), e_(i,i) alone on the diagonal; pair (k, i) is row
    k * half + i, and the pairs run in np.triu_indices order."""
    pairs = [(k, i) for k in range(half) for i in range(k if symmetric else k + 1, half)]
    basis = np.zeros((half * half, len(pairs)))
    for col, (k, i) in enumerate(pairs):
        basis[k * half + i, col] = 1.0
        basis[i * half + k, col] += 1.0 if symmetric else -1.0
        basis[:, col] /= np.linalg.norm(basis[:, col])
    return basis


class TestBlocks:
    """`build_channel`'s blocks are the gathered channel in the D4 basis: the mirror-parity
    basis, and in the even-even and odd-odd blocks the x<->y swap parts of it."""

    @given(
        side=st.integers(min_value=1, max_value=12),
        spacing=st.floats(min_value=1e-4, max_value=10.0),
        separation=st.floats(min_value=1e-2, max_value=1e3),
        wavelength=st.floats(min_value=1e-3, max_value=1.0),
        plane_offset=st.floats(min_value=-100.0, max_value=100.0).filter(bool),
    )
    @example(side=1, spacing=0.01, separation=1.0, wavelength=0.01, plane_offset=1.0)
    @example(side=2, spacing=0.01, separation=1.0, wavelength=0.01, plane_offset=1.0)
    def test_blocks_are_the_channel_in_the_parity_basis(
        self, side, spacing, separation, wavelength, plane_offset
    ):
        tx = build_upa(side, spacing, plane_offset)
        rx = build_upa(side, spacing, plane_offset + separation)
        ch = build_channel(SystemGeometry(tx=tx, rx=rx, wavelength=wavelength))
        assert [m for _, m in ch.blocks] == [1, 1, 2, 1, 1]
        ee_sym, ee_anti, eo, oo_sym, oo_anti = (block for block, _ in ch.blocks)
        assert np.array_equal(eo, fold_entries(ch.entries, side)[1])
        if side <= 2:
            assert ee_anti.shape == oo_anti.shape == (0, 0)
        scale = np.abs(ch.entries).max()
        # (block, x parity, y parity, swap part: symmetric, antisymmetric or None for unsplit)
        cases = [
            (ee_sym, True, True, True),
            (ee_anti, True, True, False),
            (eo, True, False, None),
            (oo_sym, False, False, True),
            (oo_anti, False, False, False),
        ]
        for block, even_x, even_y, symmetric in cases:
            assert not block.flags.writeable
            # antenna (n, m) is row n * S + m; parity rows and columns are (y half, x half)
            px, py = parity_basis(side, even_x), parity_basis(side, even_y)
            q = np.einsum("ni,mk->nmki", px, py).reshape(side**2, -1)
            if symmetric is not None:
                q = q @ swap_basis(px.shape[1], symmetric)
            np.testing.assert_allclose(block, q.T @ ch.entries @ q, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("side", [7, 8])
    def test_blocks_do_not_depend_on_the_slab_size(self, monkeypatch, side):
        # every fold below S = 25 is one slab; one row per slab must give the same bits
        geo = make_system(side=side, spacing=0.013, separation=3.7)
        whole = build_channel(geo).blocks
        monkeypatch.setattr(channel, "_SLAB_BYTES", 1)
        for (a, m), (b, n) in zip(whole, build_channel(geo).blocks, strict=True):
            assert m == n and a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["twin", "shifted_rx", "unequal_sides", "jittered_tx"])
    def test_every_channel_lists_blocks_that_span_it(self, case):
        # a twin's blocks and a dense matrix span it; a tall one's R (unequal_sides) spans its
        # short side, one singular value per row of R
        geo = make_system() if case == "twin" else moved_system(case)
        ch = build_channel(geo)
        spans = tuple(sum(m * block.shape[axis] for block, m in ch.blocks) for axis in (0, 1))
        short = min(ch.shape)
        assert spans == ((short, short) if case == "unequal_sides" else ch.shape)
        assert ch.blocks and ch.shape == ch.entries.shape == (geo.rx.size, geo.tx.size)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"entries": np.eye(2, dtype=complex), "blocks": ((np.eye(2, dtype=complex), 1),)},
            {"blocks": ((np.eye(2, dtype=complex), 1),)},
            {"gather": lambda: np.eye(2, dtype=complex)},
            {"entries": np.eye(2, dtype=complex), "gather": lambda: np.eye(2, dtype=complex)},
            {"blocks": ((np.eye(2, dtype=complex), 1),), "gather": lambda: np.eye(2, dtype=complex)},
            {"entries": np.eye(2, dtype=complex), "shape": (2, 2)},
        ],
        ids=["nothing", "entries_and_blocks", "blocks_without_gather", "gather_without_blocks",
             "entries_and_gather", "gather_without_shape", "entries_and_shape"],
    )
    def test_a_channel_is_built_from_entries_or_from_blocks_and_a_gather(self, kwargs):
        with pytest.raises(ValueError, match="from its entries, or from its blocks and a gather"):
            ChannelMatrix(**kwargs)

    def test_hand_given_entries_stay_writable_behind_a_read_only_view(self):
        entries = np.eye(3, dtype=complex)
        ch = ChannelMatrix(entries=entries)
        assert entries.flags.writeable and not ch.entries.flags.writeable
        [(block, multiplicity)] = ch.blocks
        assert block is ch.entries and multiplicity == 1 and ch.shape == (3, 3)
        assert np.shares_memory(ch.entries, entries)  # a view: the channel copies nothing
