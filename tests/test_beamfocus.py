import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from nfmimo.beamfocus import (
    GainMode,
    array_gain,
    array_gain_closed_form,
    gain_map,
    make_focus_setup,
    paraxial_parameter,
    spacing_threshold,
    write_gain_map_csv,
)
from nfmimo.channel import SystemGeometry
from nfmimo.experiments import NumericalError, SystemParams, computing
from nfmimo.geometry import PlanarArray, build_upa

LAM = 0.01
SEP = 40.0
PROBE_ON_ANTENNA = (
    "^probe point coincides with a transmit antenna, or their squared distance underflows to 0$"
)


def make_system(side=25, spacing=0.1265, wavelength=LAM, separation=SEP):
    tx = build_upa(side, spacing, 0.0)
    rx = build_upa(side, spacing, separation)
    return SystemGeometry(tx=tx, rx=rx, wavelength=wavelength)


def system(side=25, spacing=LAM, wavelength=LAM, separation=SEP):
    """The closed forms' input; d_th reads no spacing, so its default is arbitrary."""
    return SystemParams(
        wavelength=wavelength, side_count=side, spacing=spacing, separation=separation
    )


class TestMakeFocusSetup:
    def test_integer_wavelength_distance_wraps_to_zero(self):
        geo = make_system(side=1, spacing=0.02, separation=4000 * LAM)
        assert make_focus_setup(geo).phases[0] == pytest.approx(0.0, abs=1e-6)

    def test_mirror_symmetry(self):
        phases = make_focus_setup(make_system(side=5, spacing=0.02)).phases.reshape(5, 5)
        np.testing.assert_allclose(phases, phases[::-1, :], atol=1e-9)
        np.testing.assert_allclose(phases, phases[:, ::-1], atol=1e-9)

    def test_matches_per_antenna_distances(self):
        # oracle: the phasor of -k |focus - tx_j|, per antenna, unwrapped
        geo = make_system()
        phases = make_focus_setup(geo).phases
        focus = np.array([0.0, 0.0, SEP])
        k = 2 * np.pi / LAM
        for j in (0, 17, 312, 624):
            expected = np.exp(-1j * k * np.linalg.norm(focus - geo.tx.positions[j]))
            assert np.exp(1j * phases[j]) == pytest.approx(expected, abs=1e-9)

    def test_wrapped_to_half_open_interval(self):
        phases = make_focus_setup(make_system(side=7, spacing=0.033)).phases
        assert (phases > -np.pi).all() and (phases <= np.pi).all()

    def test_phases_are_read_only(self):
        setup = make_focus_setup(make_system(side=3, spacing=0.01))
        assert not setup.phases.flags.writeable
        assert not setup.fresnel_phases.flags.writeable

    def test_coincident_focus_rejected(self):
        geo = make_system(side=3, spacing=0.01, separation=1e-200)
        with pytest.raises(ValueError, match="^focus point coincides with a transmit antenna, "
                           "or their squared distance underflows to 0$"):
            make_focus_setup(geo)


class TestArrayGain:
    def test_focus_gain_is_n_phase_only(self):
        for side, d in [(5, 0.02), (25, 0.1265)]:
            setup = make_focus_setup(make_system(side=side, spacing=d))
            gain = array_gain(setup, (0, 0, SEP), GainMode.PHASE_ONLY)
            assert gain == pytest.approx(side**2, rel=1e-10)

    def test_single_antenna_gain_is_one(self):
        setup = make_focus_setup(make_system(side=1, spacing=0.02))
        for mode in (GainMode.PHASE_ONLY, GainMode.FRESNEL):
            assert array_gain(setup, (0.3, -0.2, SEP), mode) == pytest.approx(1.0, rel=1e-9)
        # exact mode keeps the true amplitude ratio, within 1e-4 at this scale
        assert array_gain(setup, (0.3, -0.2, SEP), GainMode.EXACT) == pytest.approx(1.0, rel=1e-4)

    def test_nearest_neighbor_null_at_threshold(self):
        d = spacing_threshold(system())
        setup = make_focus_setup(make_system(side=25, spacing=d))
        gain = array_gain(setup, (d, 0, SEP), GainMode.PHASE_ONLY)
        assert gain < 0.02 * 625

    def test_focus_is_maximal_on_receive_grid(self):
        setup = make_focus_setup(make_system(side=9, spacing=0.05))
        focus_gain = array_gain(setup, (0, 0, SEP), GainMode.PHASE_ONLY)
        for pos in setup.geometry.rx.positions[::7]:
            assert array_gain(setup, pos, GainMode.PHASE_ONLY) <= focus_gain + 1e-9

    def test_nearest_neighbors_equivalent_by_symmetry(self):
        d = 0.08
        setup = make_focus_setup(make_system(side=25, spacing=d))
        gains = [
            array_gain(setup, p, GainMode.PHASE_ONLY)
            for p in [(d, 0, SEP), (-d, 0, SEP), (0, d, SEP), (0, -d, SEP)]
        ]
        np.testing.assert_allclose(gains, gains[0], rtol=1e-9)

    def test_exact_vs_phase_only_at_focus(self):
        # amplitude taper at this scale is below 1%
        setup = make_focus_setup(make_system(side=25, spacing=0.1265))
        exact = array_gain(setup, (0, 0, SEP), GainMode.EXACT)
        flat = array_gain(setup, (0, 0, SEP), GainMode.PHASE_ONLY)
        assert abs(exact - flat) / flat < 0.01

    def test_fresnel_steering_cancels_the_expanded_phase_at_the_focus(self):
        setup = make_focus_setup(make_system(side=5, spacing=0.02))
        assert not setup.fresnel_phases.flags.writeable
        # the stored steering is the exact negative of the probe's expanded phase
        assert array_gain(setup, (0, 0, SEP), GainMode.FRESNEL) == 25

    def test_unknown_mode_rejected(self):
        setup = make_focus_setup(make_system(side=2, spacing=0.01))
        with pytest.raises(ValueError):
            array_gain(setup, (0, 0, SEP), "exact")

    @pytest.mark.parametrize("probe", [(0.0, 0.0), (np.nan, 0, 40)], ids=["2d", "nan"])
    def test_probe_that_is_no_finite_3d_point_rejected(self, probe):
        setup = make_focus_setup(make_system(side=2, spacing=0.01))
        with pytest.raises(ValueError, match="probe_point must be a finite 3D point"):
            array_gain(setup, probe)


def pair_route(setup):
    """The same setup on a copy of its transmit array that is not known as a grid, so
    array_gain takes the per-pair route and fresnel_phases has one column per antenna."""
    tx = copy.copy(setup.geometry.tx)
    tx.__dict__["grid"] = None  # fills the cached property
    return make_focus_setup(dataclasses.replace(setup.geometry, tx=tx))


def fresnel_tolerance(setup, probe):
    """2 N dphi, with dphi = 8 eps times the largest phase the unfactored Fresnel sum of
    the per-pair `setup` rounds; as the benchmark oracle, this bounds |delta gain| for N
    unit phasors."""
    positions, probe = setup.geometry.tx.positions, np.asarray(probe)
    lateral = (probe[:2, None] - positions[:, :2].T) ** 2
    propagation = setup.geometry.wavenumber * (lateral / (2 * (probe[2] - positions[0, 2])))
    phase = np.abs(propagation).sum(axis=0).max() + np.abs(setup.fresnel_phases).sum(axis=0).max()
    dphi = 8 * np.finfo(float).eps * phase
    return 2 * len(positions) * dphi


def jittered(array):
    """`array` with its centre antenna off its grid line by 1 nm in x."""
    positions = array.positions.copy()
    positions[len(positions) // 2, 0] += 1e-9
    return PlanarArray(array.side_count, array.spacing, array.plane_offset, positions)


class TestGridRoute:
    """A grid transmit array's gains come from its 1-D squared-offset tables: exact and
    phase_only bit for bit as the per-pair route, fresnel as two S-term sums."""

    @given(
        side=st.integers(min_value=1, max_value=12),
        spacing=st.floats(min_value=1e-3, max_value=0.5),
        separation=st.floats(min_value=1.0, max_value=100.0),
        plane_offset=st.floats(min_value=-10.0, max_value=10.0),
        probe_x=st.floats(min_value=-1.5, max_value=1.5),
        probe_y=st.floats(min_value=-1.5, max_value=1.5),
        probe_z=st.floats(min_value=0.5, max_value=2.0),
    )
    @example(side=5, spacing=0.02, separation=SEP, plane_offset=0.0, probe_x=0.02, probe_y=0.0, probe_z=1.0)
    def test_matches_the_per_pair_route(
        self, side, spacing, separation, plane_offset, probe_x, probe_y, probe_z
    ):
        tx = build_upa(side, spacing, plane_offset)
        rx = build_upa(side, spacing, plane_offset + separation)
        setup = make_focus_setup(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        assert setup.fresnel_phases.shape == (2, side)
        # probes up to 1.5 aperture widths off the axis, at 0.5 to 2 times the separation
        half = side * spacing
        probe = (probe_x * half, probe_y * half, plane_offset + probe_z * separation)
        reference = pair_route(setup)
        assert reference.geometry.tx.grid is None and reference.fresnel_phases.shape == (2, side**2)
        for mode in (GainMode.EXACT, GainMode.PHASE_ONLY):
            assert array_gain(setup, probe, mode) == array_gain(reference, probe, mode)
        fresnel = array_gain(setup, probe, GainMode.FRESNEL)
        unfactored = array_gain(reference, probe, GainMode.FRESNEL)
        assert abs(fresnel - unfactored) <= 1e-12 * unfactored + fresnel_tolerance(reference, probe)

    def test_grid_route_calls_no_norm(self, monkeypatch):
        setup = make_focus_setup(make_system(side=5, spacing=0.02))
        calls = []
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(args))
        for mode in GainMode:
            array_gain(setup, (0.01, -0.03, SEP), mode)
        assert calls == []

    def test_jittered_array_takes_the_per_pair_route(self, monkeypatch):
        grid = make_system(side=3, spacing=0.02)
        tx = jittered(grid.tx)
        positions = tx.positions
        setup = make_focus_setup(SystemGeometry(tx=tx, rx=grid.rx, wavelength=LAM))
        assert tx.grid is None and setup.fresnel_phases.shape == (2, 9)
        norm = np.linalg.norm
        calls = []

        def recorded(x, *args, **kwargs):
            calls.append(np.shape(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", recorded)
        probe = np.array([0.013, -0.004, SEP])
        k = 2 * np.pi / LAM
        dist = np.sqrt(((probe - positions) ** 2).sum(axis=1))
        focus = np.sqrt(((np.array([0.0, 0.0, SEP]) - positions) ** 2).sum(axis=1))
        lateral = ((probe[:2] - positions[:, :2]) ** 2).sum(axis=1) - (positions[:, :2] ** 2).sum(axis=1)
        phasors = {
            GainMode.EXACT: SEP / dist * np.exp(1j * k * (dist - focus)),
            GainMode.PHASE_ONLY: np.exp(1j * k * (dist - focus)),
            GainMode.FRESNEL: np.exp(1j * k * lateral / (2 * SEP)),
        }
        for mode, terms in phasors.items():
            expected = abs(terms.sum()) ** 2 / 9
            assert array_gain(setup, probe, mode) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert calls == [(9, 3)] * 3

    def test_per_pair_fresnel_sum_is_not_factored(self):
        # every antenna 1 to 3 mm off its grid point in x and y: the sum has no per-axis factors
        grid = make_system(side=3, spacing=0.02)
        offsets = np.random.default_rng(0).uniform(1e-3, 3e-3, (9, 2))
        positions = grid.tx.positions + np.column_stack([offsets, np.zeros(9)])
        tx = PlanarArray(3, 0.02, 0.0, positions)
        setup = make_focus_setup(SystemGeometry(tx=tx, rx=grid.rx, wavelength=LAM))
        probe = np.array([0.013, -0.004, SEP])
        lateral = ((probe[:2] - positions[:, :2]) ** 2).sum(axis=1) - (positions[:, :2] ** 2).sum(axis=1)
        expected = abs(np.exp(1j * (2 * np.pi / LAM) * lateral / (2 * SEP)).sum()) ** 2 / 9
        assert array_gain(setup, probe, GainMode.FRESNEL) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mode", list(GainMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("route", ["grid", "per_pair"])
    def test_probe_beyond_the_float_range_raises(self, route, mode):
        # (1e160)^2 overflows: the gain would be nan, with a numpy warning on the way
        geo = make_system(side=3, spacing=0.02)
        if route == "per_pair":
            geo = SystemGeometry(tx=jittered(geo.tx), rx=geo.rx, wavelength=LAM)
        setup = make_focus_setup(geo)
        with pytest.raises(ArithmeticError, match=r"probe \(1e\+160, -1e\+160, 40\.0\)"):
            array_gain(setup, (1e160, -1e160, SEP), mode)

    @pytest.mark.parametrize("route", ["grid", "per_pair"])
    def test_fresnel_probe_in_the_transmit_plane_raises(self, route):
        # the expanded phase divides by Lz = 0
        geo = make_system(side=3, spacing=0.02)
        if route == "per_pair":
            geo = SystemGeometry(tx=jittered(geo.tx), rx=geo.rx, wavelength=LAM)
        with pytest.raises(ArithmeticError, match="fresnel gain at probe"):
            array_gain(make_focus_setup(geo), (0.005, 0.003, 0.0), GainMode.FRESNEL)

    @given(
        side=st.integers(min_value=1, max_value=12),
        spacing=st.floats(min_value=1e-3, max_value=0.5),
        plane_offset=st.floats(min_value=-10.0, max_value=10.0),
        index=st.integers(min_value=0),
    )
    def test_probe_on_a_transmit_antenna_rejected(self, side, spacing, plane_offset, index):
        tx = build_upa(side, spacing, plane_offset)
        rx = build_upa(side, spacing, plane_offset + SEP)
        setup = make_focus_setup(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        antenna = tx.positions[index % tx.size]
        for route in (setup, pair_route(setup)):
            for mode in GainMode:
                with pytest.raises(ValueError, match=PROBE_ON_ANTENNA):
                    array_gain(route, antenna, mode)

    @pytest.mark.parametrize("mode", list(GainMode), ids=lambda mode: mode.value)
    def test_probe_whose_squared_height_underflows_rejected(self, mode):
        # the grid route checks for a coincident antenna only when dz^2 == 0
        setup = make_focus_setup(make_system(side=3, spacing=0.02))
        x, y, z = setup.geometry.tx.positions[5]
        for route in (setup, pair_route(setup)):
            with pytest.raises(ValueError, match=PROBE_ON_ANTENNA):
                array_gain(route, (x, y, z + 1e-200), mode)
            assert math.isfinite(array_gain(route, (x, y, z + 1e-100), mode))

    def test_probe_one_ulp_off_an_antenna_accepted(self):
        setup = make_focus_setup(make_system(side=4, spacing=0.02))
        x, y, z = setup.geometry.tx.positions[0]
        probe = (np.nextafter(x, np.inf), y, z)
        for mode in (GainMode.EXACT, GainMode.PHASE_ONLY):
            assert array_gain(setup, probe, mode) == array_gain(pair_route(setup), probe, mode)


class TestClosedForm:
    def test_zero_at_threshold(self):
        d = spacing_threshold(system())
        assert array_gain_closed_form(system(spacing=d)) < 1e-12

    def test_small_spacing_limit_is_n(self):
        assert array_gain_closed_form(system(spacing=1e-6)) == pytest.approx(625, rel=1e-6)

    def test_reference_scale_value(self):
        # oracle: 625 * sinc^2(0.15625) / sinc^2(0.00625), via numpy's sinc
        expected = 625 * (np.sinc(0.15625) / np.sinc(0.00625)) ** 2
        got = array_gain_closed_form(system(spacing=0.05))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(576.46, abs=0.01)

    def test_cross_validates_against_phase_only_sum(self):
        # within 5% of N in the paraxial regime
        got = array_gain_closed_form(system(spacing=0.05))
        setup = make_focus_setup(make_system(side=25, spacing=0.05))
        reference = array_gain(setup, (0.05, 0, SEP), GainMode.PHASE_ONLY)
        assert abs(got - reference) <= 0.05 * 625

    def test_fresnel_mode_matches_closed_form(self):
        # the Taylor-expanded phasor sum collapses to the Dirichlet kernel
        for d in (0.03, 0.07, 0.11):
            setup = make_focus_setup(make_system(side=25, spacing=d))
            fresnel = array_gain(setup, (d, 0, SEP), GainMode.FRESNEL)
            closed = array_gain_closed_form(system(spacing=d))
            assert fresnel == pytest.approx(closed, rel=1e-6, abs=1e-9)

    def test_integer_x_returns_n_exactly(self):
        # removable singularity: d^2 = lambda L -> x = 1
        d = np.sqrt(LAM * SEP)
        assert array_gain_closed_form(system(side=5, spacing=d)) == pytest.approx(25.0)
        assert np.isfinite(
            [
                array_gain_closed_form(system(side=5, spacing=f * d))
                for f in np.linspace(0.9, 1.1, 101)
            ]
        ).all()

    @pytest.mark.parametrize("side", [5, 20, 25, 100])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integer_x_gives_n_at_every_side(self, side, m):
        # d = sqrt(m lambda L) puts x = d^2 / (lambda L) at m, or an ulp off it; sin(pi m)
        # is not 0 in floats, so the ratio of the two sines used to be rounding error
        params = system(side=side, spacing=math.sqrt(m * LAM * SEP))
        assert array_gain_closed_form(params) == pytest.approx(side**2, rel=0, abs=1e-9)

    @given(x=st.floats(min_value=0.0, max_value=50.0), side=st.integers(min_value=1, max_value=100))
    @example(x=5e-324, side=25)  # a subnormal x, at which pi x keeps one significant bit
    @example(x=3.0, side=25)
    def test_gain_between_zero_and_n(self, x, side):
        spacing = math.sqrt(x)  # x = d^2 / (lambda L) with lambda = L = 1
        assume(spacing > 0)
        gain = array_gain_closed_form(system(side=side, spacing=spacing, wavelength=1.0, separation=1.0))
        assert 0 <= gain <= side**2 * (1 + 1e-12)

    def test_paraxial_integer_x_matches_fresnel_sum(self):
        # x = 1 with aperture / L = 0.008: the closed form used to give 16.08 for N = 625
        params = SystemParams(
            wavelength=0.01, side_count=25, spacing=31.622776601683793, separation=1e5
        )
        setup = make_focus_setup(make_system(25, params.spacing, params.wavelength, params.separation))
        fresnel = array_gain(setup, (params.spacing, 0.0, params.separation), GainMode.FRESNEL)
        assert array_gain_closed_form(params) == pytest.approx(fresnel, rel=0, abs=1e-9)

    def test_no_zero_before_threshold(self):
        d_th = spacing_threshold(system())
        gains = [
            array_gain_closed_form(system(spacing=f * d_th)) for f in np.linspace(0.01, 0.999, 500)
        ]
        assert min(gains) > 0.0

    @pytest.mark.parametrize(
        "lengths",
        [
            {"wavelength": 1e-300, "separation": 1e-300, "spacing": 1.0},  # lambda L underflows to 0
            {"spacing": 1e200},  # d^2 overflows
            {"wavelength": 1e-10, "separation": 1e-10, "spacing": 1e154},  # the quotient overflows
        ],
        ids=["underflow", "square_overflow", "quotient_overflow"],
    )
    def test_out_of_float_range_names_x(self, lengths):
        # these used to fail unnamed: float division by zero, (34, 'Numerical result out of
        # range') and math domain error. The boundary adds the system's lengths, once
        params = system(side=2, **lengths)
        quantity = re.escape("x = d^2 / (lambda L) leaves the float range")
        with pytest.raises(ArithmeticError, match=f"^{quantity}$"):
            array_gain_closed_form(params)
        with pytest.raises(NumericalError, match=f"^{quantity} at wavelength .*, side count 2$"):
            with computing(params):
                array_gain_closed_form(params)

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=3, max_size=3))
    def test_a_finite_x_keeps_its_bits(self, lengths):
        wavelength, separation, spacing = lengths
        params = system(side=7, spacing=spacing, wavelength=wavelength, separation=separation)
        try:
            x = spacing**2 / (wavelength * separation)
        except ArithmeticError:
            x = math.inf
        if math.isfinite(x):  # the range check leaves a finite x and its gain as they are
            r = math.remainder(x, 1.0)
            if abs(r) < np.finfo(float).tiny:
                expected = 49.0
            else:
                expected = (math.sin(7 * math.pi * r) / math.sin(math.pi * r)) ** 2
            assert array_gain_closed_form(params) == expected
        else:
            with pytest.raises(ArithmeticError, match="x = d"):
                array_gain_closed_form(params)


class TestSpacingThreshold:
    def test_reference_value(self):
        d = spacing_threshold(system())
        assert d == pytest.approx(0.1265, abs=5e-5)
        assert d / 0.01 == pytest.approx(12.65, abs=5e-3)

    def test_single_antenna_unit_product(self):
        single = system(side=1, wavelength=0.5, separation=2.0)
        assert spacing_threshold(single) == pytest.approx(1.0)

    def test_quadrupling_scaling(self):
        # 4x antennas divides the threshold by sqrt(2)... of the fourth root
        base = spacing_threshold(system(side=10))
        quad = spacing_threshold(system(side=20))
        assert quad == pytest.approx(base / np.sqrt(2), rel=1e-12)

    def test_reads_no_spacing(self):
        assert spacing_threshold(system(spacing=1e-9)) == spacing_threshold(system(spacing=1e9))

    @pytest.mark.parametrize("length", [1e300, 1e-300], ids=["overflow", "underflow"])
    def test_out_of_float_range_names_the_lengths(self, length):
        # lambda L is inf or 0 in float arithmetic, which raises nothing by itself. The error
        # names d_th only; the numerical-failure boundary adds the system's lengths, once
        params = system(wavelength=length, separation=length)
        quantity = re.escape("d_th = sqrt(lambda L / sqrt(N)) leaves the float range")
        with pytest.raises(ArithmeticError, match=f"^{quantity}$"):
            spacing_threshold(params)
        lengths = re.escape(f"at wavelength {length!r} m, spacing 0.01 m and separation {length!r} m")
        with pytest.raises(NumericalError, match=f"^{quantity} {lengths}, side count 25$"):
            with computing(params):
                spacing_threshold(params)


class TestParaxialParameter:
    def test_one_at_threshold(self):
        d = spacing_threshold(system())
        assert paraxial_parameter(system(spacing=d)) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_in_spacing(self):
        d = spacing_threshold(system())
        assert paraxial_parameter(system(spacing=d / 2)) == pytest.approx(0.25, rel=1e-12)

    def test_fig3_style_setup(self):
        # 20x20 array with threshold at 3.2 lambda implies L = 2.048 m
        lam, side = 0.01, 20
        sep = side * (3.2 * lam) ** 2 / lam
        params = system(side=side, spacing=3.2 * lam, wavelength=lam, separation=sep)
        assert paraxial_parameter(params) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "lengths",
        [
            {"wavelength": 1e-300, "separation": 1e-300, "spacing": 1.0},  # lambda L underflows to 0
            {"spacing": 1e200},  # d^2 overflows
            {"wavelength": 1e-10, "separation": 1e-10, "spacing": 1e150},  # the quotient overflows
        ],
        ids=["underflow", "square_overflow", "quotient_overflow"],
    )
    def test_out_of_float_range_names_epsilon(self, lengths):
        # the CLI's threshold checks this too; here the boundary adds the system's lengths, once
        params = system(side=2, **lengths)
        quantity = re.escape("epsilon = sqrt(N) d^2 / (lambda L) leaves the float range")
        with pytest.raises(ArithmeticError, match=f"^{quantity}$"):
            paraxial_parameter(params)
        with pytest.raises(NumericalError, match=f"^{quantity} at wavelength .*, side count 2$"):
            with computing(params):
                paraxial_parameter(params)


class TestGainMap:
    def test_rows_and_csv(self, tmp_path):
        setup = make_focus_setup(make_system(side=3, spacing=0.02))
        gains = gain_map(setup, [0.0, 0.02], GainMode.PHASE_ONLY)
        assert len(gains) == 4
        assert gains[0] == pytest.approx(9.0, rel=1e-10)
        path = tmp_path / "map.csv"
        write_gain_map_csv([0.0, 0.02], GainMode.PHASE_ONLY, gains, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "probe_x,probe_y,mode,gain"
        assert lines[1:3] == [f"0,0,phase_only,{gains[0]:.17g}", f"0,0.02,phase_only,{gains[1]:.17g}"]
        assert len(lines) == 5

    @pytest.mark.parametrize("mode", list(GainMode))
    def test_equals_array_gain_at_each_probe_x_major(self, mode):
        setup = make_focus_setup(make_system(side=4, spacing=0.03))
        coords = [-0.05, 0.0, 0.01, 0.07]
        z = setup.geometry.rx.plane_offset
        expected = [array_gain(setup, (x, y, z), mode) for x in coords for y in coords]
        assert list(map(float.hex, gain_map(setup, coords, mode))) == list(map(float.hex, expected))

    def test_csv_formats_each_row_as_the_reference(self, tmp_path):
        # the signed zeros print apart, and subnormal gains keep 17 digits
        coords = (-0.0, 0.0, 0.1 + 0.2, 0.1)
        gains = [1.5, 5e-324, 2.0 ** -1074 * 3, 0.0] * len(coords)
        path = tmp_path / "map.csv"
        write_gain_map_csv(coords, GainMode.EXACT, gains, path)
        probes = [(x, y) for x in coords for y in coords]
        reference = "".join(f"{x:.17g},{y:.17g},exact,{g:.17g}\n" for (x, y), g in zip(probes, gains))
        assert path.read_text() == "probe_x,probe_y,mode,gain\n" + reference
        written = {line.rsplit(",", 2)[0] for line in reference.splitlines()}
        assert {"-0,0", "0,-0", "-0,-0", "0,0"} <= written

    def test_csv_holds_one_row_of_text_at_a_time(self, tmp_path):
        # the file is about 250 kB; every row string and their join took about 700 kB
        coords = np.linspace(-0.3, 0.3, 61).tolist()
        gains = np.random.default_rng(39).random(len(coords) ** 2).tolist()
        path = tmp_path / "map.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_gain_map_csv(coords, GainMode.FRESNEL, gains, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
