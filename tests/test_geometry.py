import numpy as np
import pytest
from hypothesis import given, strategies as st

from nfmimo.geometry import PlanarArray, build_upa


class TestBuildUpa:
    def test_single_antenna_at_origin(self):
        arr = build_upa(1, 0.005, 0.0)
        assert arr.positions.shape == (1, 3)
        np.testing.assert_allclose(arr.positions[0], [0.0, 0.0, 0.0])

    def test_two_by_two_corners(self):
        arr = build_upa(2, 1.0, 0.0)
        expected = {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}
        got = {(x, y) for x, y, _ in arr.positions}
        assert got == expected

    def test_25_side_span(self):
        # oracle: (1 - 13) * 0.1265 = -1.518
        arr = build_upa(25, 0.1265, 0.0)
        assert arr.size == 625
        assert arr.positions[:, 0].min() == pytest.approx(-1.518)
        assert arr.positions[:, 0].max() == pytest.approx(1.518)

    def test_row_major_ordering(self):
        side, spacing = 3, 1.0
        arr = build_upa(side, spacing, 0.0)
        # antenna (n, m) at flat index (n-1)*3 + (m-1)
        for n in range(1, 4):
            for m in range(1, 4):
                pos = arr.positions[(n - 1) * 3 + (m - 1)]
                assert pos[0] == pytest.approx((n - (side + 1) / 2) * spacing)
                assert pos[1] == pytest.approx((m - (side + 1) / 2) * spacing)

    @given(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_mirror_antisymmetry(self, side, spacing):
        # bitwise: build_channel takes its gathered path only for a centred grid
        c = build_upa(side, spacing, 0.0).positions[:side, 1]
        assert np.array_equal(c, -c[::-1])

    @pytest.mark.parametrize("side", [1, 2, 5, 8, 25])
    def test_centering(self, side):
        arr = build_upa(side, 0.013, 2.5)
        np.testing.assert_allclose(arr.positions[:, :2].mean(axis=0), [0, 0], atol=1e-15)
        assert (arr.positions[:, 2] == 2.5).all()

    def test_grid_pitch(self):
        arr = build_upa(4, 0.7, 0.0)
        grid = arr.positions.reshape(4, 4, 3)
        np.testing.assert_allclose(np.diff(grid[:, :, 0], axis=0), 0.7, atol=1e-12)
        np.testing.assert_allclose(np.diff(grid[:, :, 1], axis=1), 0.7, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_upa(0, 0.1, 0.0)
        with pytest.raises(ValueError):
            build_upa(3, -0.1, 0.0)
        with pytest.raises(ValueError):
            build_upa(3, float("nan"), 0.0)
        with pytest.raises(ValueError):
            build_upa(2, 0.0, 0.0)
        with pytest.raises(ValueError, match="spacing"):
            build_upa(1, 0.0, 0.0)

    def test_rejects_infinite_plane_offset(self):
        with pytest.raises(ValueError, match="plane_offset must be finite, got inf"):
            build_upa(3, 0.01, np.inf)

    def test_positions_are_read_only(self):
        arr = build_upa(3, 0.1, 0.0)
        with pytest.raises(ValueError):
            arr.positions[0, 0] = 1.0

    @pytest.mark.parametrize(
        "side_count, positions",
        [
            (2, np.zeros((9, 3))),
            (2, np.zeros((4, 2))),
            (2, np.zeros(12)),
            (0, np.zeros((0, 3))),
        ],
        ids=["9_for_2", "2d_points", "flat", "no_antenna"],
    )
    def test_positions_of_another_shape_rejected(self, side_count, positions):
        with pytest.raises(ValueError, match=r"positions must be a finite \(side_count\*\*2, 3\) array"):
            PlanarArray(side_count=side_count, spacing=0.01, plane_offset=0.0, positions=positions)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_rejected(self, value):
        positions = build_upa(2, 0.01).positions.copy()
        positions[3, 2] = value
        with pytest.raises(ValueError, match=r"got shape \(4, 3\) for side_count 2"):
            PlanarArray(side_count=2, spacing=0.01, plane_offset=0.0, positions=positions)

    @pytest.mark.parametrize("dtype", [int, float])
    def test_keeps_a_read_only_float_copy(self, dtype):
        # positions moved in place after the array is built and its grid read
        positions = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=dtype)
        arr = PlanarArray(side_count=2, spacing=1.0, plane_offset=1.0, positions=positions)
        xy, z = arr.grid
        positions[0] = (5, 5, 5)
        assert arr.positions.dtype == float and not arr.positions.flags.writeable
        assert np.array_equal(arr.positions[0], [0.0, 0.0, 1.0])
        assert np.array_equal(xy, [[0.0, 1.0], [0.0, 1.0]]) and z == 1.0

    def test_grid_off_its_plane_offset_rejected(self):
        # distances come from the positions, gain-map probes and the focus from plane_offset
        positions = build_upa(3, 0.02, 40.0).positions
        with pytest.raises(ValueError, match=r"plane z = 40\.0, not at plane_offset 1\.0"):
            PlanarArray(3, 0.02, 1.0, positions)

    def test_off_grid_positions_not_checked_against_plane_offset(self):
        positions = build_upa(3, 0.02, 40.0).positions.copy()
        positions[4, 2] += 1e-9
        arr = PlanarArray(3, 0.02, 1.0, positions)
        assert arr.grid is None and arr.plane_offset == 1.0

    def test_area_convention(self):
        arr = build_upa(5, 0.2, 0.0)
        assert arr.area == (5 * 0.2) ** 2  # bit for bit: the fringe estimate's input


def with_positions(array, positions):
    """A PlanarArray around writeable `positions`, as benchmarks/workloads.py builds one."""
    return PlanarArray(
        side_count=array.side_count,
        spacing=array.spacing,
        plane_offset=array.plane_offset,
        positions=positions,
    )


def upa_axis(side, spacing):
    """build_upa's coordinates, computed as it computes them."""
    return (np.arange(1, side + 1) - (side + 1) / 2) * spacing


class TestGrid:
    @given(
        side=st.integers(min_value=1, max_value=30),
        spacing=st.floats(min_value=1e-4, max_value=10.0),
        plane_offset=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_upa_gives_its_axes(self, side, spacing, plane_offset):
        xy, z = build_upa(side, spacing, plane_offset).grid
        assert xy.shape == (2, side) and not xy.flags.writeable
        c = upa_axis(side, spacing)
        assert np.array_equal(xy, [c, c]) and z == plane_offset

    def test_shifted_positions_are_a_grid(self):
        upa = build_upa(4, 0.02, 1.5)
        shifted = upa.positions + (0.3, -0.07, 0.0)
        assert shifted.flags.writeable
        arr = with_positions(upa, shifted)
        xy, z = arr.grid
        c = upa_axis(4, 0.02)
        assert np.array_equal(xy, [c + 0.3, c - 0.07]) and z == 1.5
        assert arr.grid is arr.grid  # detected once

    @pytest.mark.parametrize("side", [1, 2, 3, 7, 16, 24, 25])
    def test_unequal_side_counts_give_the_exact_axes(self, side):
        xy, z = build_upa(side, 0.013, -2.0).grid
        assert np.array_equal(xy, np.stack([upa_axis(side, 0.013)] * 2)) and z == -2.0

    def test_x_and_y_axes_kept_apart(self):
        x, y = upa_axis(3, 0.01), upa_axis(3, 0.02) + 0.5
        gx, gy = np.meshgrid(x, y, indexing="ij")
        positions = np.column_stack([gx.ravel(), gy.ravel(), np.full(9, 4.0)])
        xy, z = with_positions(build_upa(3, 0.01, 4.0), positions).grid
        assert np.array_equal(xy, [x, y]) and z == 4.0

    @pytest.mark.parametrize("case", ["jittered_x", "jittered_y", "jittered_z", "tilted"])
    def test_off_grid_positions_give_none(self, case):
        upa = build_upa(3, 0.02, 1.0)
        positions = upa.positions.copy()
        if case == "tilted":  # rotated 1 degree about the x axis: z varies with y
            angle = np.radians(1.0)
            y, z = positions[:, 1].copy(), positions[:, 2].copy()
            positions[:, 1] = y * np.cos(angle) - z * np.sin(angle)
            positions[:, 2] = y * np.sin(angle) + z * np.cos(angle)
        else:  # the centre antenna off its grid line by 1 nm
            positions[4, "xyz".index(case[-1])] += 1e-9
        assert with_positions(upa, positions).grid is None

    @pytest.mark.parametrize("count", [2, 3, 8, 12])
    def test_non_square_counts_give_none(self, count):
        # a row count other than side_count**2 is no PlanarArray at all
        positions = np.zeros((count, 3))
        positions[:, 0] = np.arange(count)
        with pytest.raises(ValueError, match=rf"got shape \({count}, 3\) for side_count 1"):
            with_positions(build_upa(1, 0.01), positions)

    def test_square_count_of_a_rectangle_gives_none(self):
        # 2 x 8 antennas: 16 positions, but not a 4 x 4 grid
        gx, gy = np.meshgrid(upa_axis(2, 0.01), upa_axis(8, 0.01), indexing="ij")
        positions = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(16)])
        assert with_positions(build_upa(4, 0.01), positions).grid is None
