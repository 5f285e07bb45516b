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
            build_upa(2, 0.0, 0.0)  # zero spacing only valid for a single antenna

    def test_positions_are_read_only(self):
        arr = build_upa(3, 0.1, 0.0)
        with pytest.raises(ValueError):
            arr.positions[0, 0] = 1.0

    def test_area_convention(self):
        arr = build_upa(5, 0.2, 0.0)
        assert arr.side_length == pytest.approx(1.0)
        assert arr.area == pytest.approx(1.0)
