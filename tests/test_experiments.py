import dataclasses
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfmimo import beamfocus, experiments
from nfmimo.experiments import (
    RECORD_FIELDS,
    NumericalError,
    SweepSpec,
    SystemParams,
    eigen_profile,
    PRESETS,
    load_preset,
    run_sweep,
    write_profile_csv,
    write_sweep_csv,
)

LAM = 0.01

# what json.load can return, small; integers reach past int64 and the float range
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 10**309, -(10**309)])
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# noise_variance, area_convention, max_points and preset are former fields, and bandwidth never was
SPEC_KEYS = st.sampled_from(
    ["swept_variable", "grid", "wavelength", "side_count", "spacing", "separation", "energy_fraction",
     "power", "noise_variance", "area_convention", "max_points", "preset", "notes", "bandwidth"]
)


def small_spec(**overrides):
    kwargs = dict(
        swept_variable="spacing",
        grid=(0.5 * LAM,),
        wavelength=LAM,
        side_count=2,
        separation=100 * LAM,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=())

    def test_rejects_unordered_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=(0.02, 0.01))

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=tuple(np.linspace(0.01, 0.02, 300)))

    def test_rejects_swept_also_fixed(self):
        with pytest.raises(ValueError):
            small_spec(spacing=0.01)

    def test_rejects_missing_fixed(self):
        with pytest.raises(ValueError):
            small_spec(side_count=None)

    def test_rejects_unknown_swept(self):
        with pytest.raises(ValueError):
            small_spec(swept_variable="frequency")

    def test_dict_roundtrip(self):
        spec = small_spec()
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["bandwidth"] = 1.0
        with pytest.raises(ValueError):
            SweepSpec.from_dict(data)

    def test_from_dict_rejects_preset(self):
        # accepted and dropped before: a setting that changed nothing
        data = {**small_spec().to_dict(), "preset": "fig5"}
        with pytest.raises(ValueError, match=r"unknown spec fields: \['preset'\]"):
            SweepSpec.from_dict(data)

    @pytest.mark.parametrize(
        "notes", [{"when": {1, 2}}, {1: "a", "b": 2}, {"x": object()}], ids=["set", "mixed_keys", "object"]
    )
    def test_rejects_notes_the_sidecar_cannot_write(self, notes):
        # a set used to pass, run the sweep and leave a truncated sidecar behind a TypeError
        with pytest.raises(ValueError, match="^notes must be JSON"):
            small_spec(notes=notes)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"wavelength": 10**400}, "^wavelength must be a positive finite number, got 1000"),
            ({"grid": (0.5 * LAM, 10**400)}, "^sweep grid entries must be finite numbers, got 1000"),
        ],
        ids=["wavelength", "grid"],
    )
    def test_int_beyond_the_float_range_names_its_field(self, overrides, message):
        # math.isfinite raises OverflowError on such an int; the spec reports it as a ValueError
        with pytest.raises(ValueError, match=message):
            small_spec(**overrides)

    @given(notes=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3))
    def test_accepts_notes_a_spec_file_can_hold(self, notes):
        assert small_spec(notes=notes).notes is notes

    @settings(max_examples=200, deadline=None)
    @given(overrides=st.dictionaries(SPEC_KEYS, JSON_VALUES, max_size=4), dropped=st.sets(SPEC_KEYS, max_size=2))
    def test_from_dict_builds_or_raises_value_error(self, overrides, dropped):
        # any JSON-like edit of a valid spec: a spec, or a ValueError naming the fault
        data = {**small_spec().to_dict(), **overrides}
        for key in dropped:
            data.pop(key, None)
        try:
            spec = SweepSpec.from_dict(data)
        except ValueError:
            return
        assert all(spec.at(v).n_antennas >= 1 for v in spec.grid)


class TestRunSweep:
    def test_single_point_smoke(self):
        records = run_sweep(small_spec())
        assert len(records) == 1
        rec = records[0]
        assert rec.swept_value == pytest.approx(0.5 * LAM)
        assert 1 <= rec.n_edof_exact <= rec.n_dof <= 4
        assert 1 - 1e-9 <= rec.n_edof_trace <= rec.n_dof + 1e-9
        assert rec.capacity_edof_exact <= rec.capacity_full + 1e-12
        assert rec.epsilon == pytest.approx(2 * (0.5 * LAM) ** 2 / (LAM * 100 * LAM))

    def test_records_in_grid_order(self):
        spec = small_spec(grid=(0.004, 0.006, 0.009))
        values = [r.swept_value for r in run_sweep(spec)]
        assert values == [0.004, 0.006, 0.009]

    def test_antenna_sweep(self):
        spec = SweepSpec(
            swept_variable="antennas_per_side",
            grid=(2, 3),
            wavelength=LAM,
            spacing=0.5 * LAM,
            separation=100 * LAM,
        )
        records = run_sweep(spec)
        assert [r.swept_value for r in records] == [2, 3]
        assert records[1].n_dof <= 9

    def test_separation_sweep(self):
        spec = SweepSpec(
            swept_variable="separation",
            grid=(0.5, 1.0),
            wavelength=LAM,
            side_count=2,
            spacing=0.5 * LAM,
        )
        assert len(run_sweep(spec)) == 2

    def test_failure_names_grid_value(self):
        # a grid value out of its field's range is malformed input, caught
        # when the spec is built rather than when its point runs
        with pytest.raises(ValueError, match=r"separation .*-1\.0"):
            SweepSpec(
                swept_variable="separation",
                grid=(-1.0, 1.0),
                wavelength=LAM,
                side_count=2,
                spacing=0.5 * LAM,
            )

    def test_numerical_failure_names_grid_value(self, monkeypatch):
        original = experiments.point_metrics

        def fail_at_second_point(params, value):
            if value == 0.008:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(params, value)

        monkeypatch.setattr(experiments, "point_metrics", fail_at_second_point)
        with pytest.raises(NumericalError, match="spacing 0.008 m") as err:
            run_sweep(small_spec(grid=(0.004, 0.008, 0.012)))
        assert err.value.params.spacing == 0.008
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_numerical_error_survives_pickling(self):
        params = small_spec().at(0.005)
        err = pickle.loads(pickle.dumps(NumericalError("boom", params)))
        assert isinstance(err, NumericalError) and isinstance(err, ArithmeticError)
        assert str(err) == "boom"
        assert err.params == params

    def test_an_outer_boundary_passes_the_inner_failure_through(self):
        spec = small_spec(grid=(0.004, 0.008))
        with pytest.raises(NumericalError, match="^x at wavelength 0.01 m, spacing 0.004 m ") as err:
            with experiments.computing(spec.at(0.008)):
                with experiments.computing(spec.at(0.004)):
                    raise FloatingPointError("x")
        assert err.value.params.spacing == 0.004
        assert isinstance(err.value.__cause__, FloatingPointError)

    def test_numpy_overflow_raises_numerical_error_without_warning(self):
        # the library sweep raises where `nfmimo report --power 1e308` exits 2: the capacity's
        # P mu_i^2 overflows, which numpy would otherwise warn about and return as inf
        spec = small_spec(grid=(0.002,), side_count=5, separation=0.05, power=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                run_sweep(spec)
        assert str(err.value) == (
            "overflow encountered in multiply at wavelength 0.01 m, spacing 0.002 m and "
            "separation 0.05 m, side count 5"
        )
        assert isinstance(err.value.__cause__, FloatingPointError)

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = small_spec(grid=(0.004, 0.008))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(spec), a, spec=spec)
        write_sweep_csv(run_sweep(spec), b, spec=spec)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_header_and_sidecar(self, tmp_path):
        spec = small_spec(notes={"k": "v"})
        path = tmp_path / "out.csv"
        write_sweep_csv(run_sweep(spec), path, spec=spec)
        header = path.read_text().split("\n", 1)[0]
        assert header == ",".join(RECORD_FIELDS)
        sidecar = json.loads((tmp_path / "out.csv.spec.json").read_text())
        assert sidecar["notes"] == {"k": "v"}
        assert SweepSpec.from_dict(sidecar) == spec

    def test_sidecar_roundtrip_reproduces_csv(self, tmp_path):
        spec = small_spec(grid=(0.004, 0.008))
        first = tmp_path / "first.csv"
        write_sweep_csv(run_sweep(spec), first, spec=spec)
        sidecar = json.loads((tmp_path / "first.csv.spec.json").read_text())
        again = SweepSpec.from_dict(sidecar)
        second = tmp_path / "second.csv"
        write_sweep_csv(run_sweep(again), second, spec=again)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "make", [lambda: load_preset("fig3"), lambda: small_spec(notes={"k": "v"})],
        ids=["fig3", "small_spec_notes"],
    )
    def test_notes_survive_the_sidecar_roundtrip(self, tmp_path, make):
        spec = make()
        first = tmp_path / "first.csv"
        write_sweep_csv(run_sweep(spec), first, spec=spec)
        again = SweepSpec.from_dict(json.loads((tmp_path / "first.csv.spec.json").read_text()))
        assert again.notes == spec.notes
        second = tmp_path / "second.csv"
        write_sweep_csv(run_sweep(again), second, spec=again)
        assert first.read_bytes() == second.read_bytes()
        sidecars = [(tmp_path / f"{name}.csv.spec.json").read_bytes() for name in ("first", "second")]
        assert sidecars[0] == sidecars[1]

    def test_notes_change_neither_equality_nor_hash(self):
        spec = load_preset("fig5")
        assert hash(spec) == hash(dataclasses.replace(spec, notes=None))
        assert dataclasses.replace(spec, notes={"x": 1}) == spec

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(swept_variable="antennas_per_side", grid=np.arange(2, 4), wavelength=0.01,
                      spacing=0.05, separation=1.0),
            small_spec(grid=np.array([0.004, 0.008]), side_count=np.int64(3), wavelength=np.float64(LAM)),
        ],
        ids=["numpy_grid", "numpy_fixed_fields"],
    )
    def test_numpy_numbers_write_a_sidecar_that_reruns(self, tmp_path, spec):
        first = tmp_path / "first.csv"
        write_sweep_csv(run_sweep(spec), first, spec=spec)
        again = SweepSpec.from_dict(json.loads((tmp_path / "first.csv.spec.json").read_text()))
        second = tmp_path / "second.csv"
        write_sweep_csv(run_sweep(again), second, spec=again)
        assert first.read_bytes() == second.read_bytes()
        sidecars = [(tmp_path / f"{name}.csv.spec.json").read_bytes() for name in ("first", "second")]
        assert sidecars[0] == sidecars[1]


class TestEigenProfile:
    def test_single_antenna_single_point(self):
        params = SystemParams(wavelength=LAM, side_count=1, spacing=0.01, separation=0.5)
        profile = eigen_profile(params)
        assert len(profile) == 1
        assert profile[0][0] == 1
        assert profile[0][1] == pytest.approx(1 / (4 * np.pi * 0.5) ** 2)

    def test_descending_with_one_based_indices(self):
        params = SystemParams(wavelength=LAM, side_count=3, spacing=0.02, separation=1.0)
        profile = eigen_profile(params)
        indices = [i for i, _ in profile]
        values = [v for _, v in profile]
        assert indices == list(range(1, 10))
        assert values == sorted(values, reverse=True)

    def test_profile_csv(self, tmp_path):
        params = SystemParams(wavelength=LAM, side_count=2, spacing=0.02, separation=1.0)
        profile = eigen_profile(params)
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5


def spacing_spec(side_count, grid, separation):
    return SweepSpec(
        swept_variable="spacing",
        grid=grid,
        wavelength=LAM,
        side_count=side_count,
        separation=separation,
    )


def closed_form_error(record, n_antennas):
    return abs(record.rho1_closed - record.rho1_phase_only) / n_antennas


class TestSweepGainStep:
    def test_single_antenna_error_is_zero(self):
        (record,) = run_sweep(spacing_spec(1, [0.01], 1.0))
        assert closed_form_error(record, 1) == pytest.approx(0.0, abs=1e-12)

    def test_threshold_point_when_epsilon_rounds_above_one(self):
        # 10 x 10 arrays at the default 0.01 m and 40 m: d_th = 0.2 m, epsilon(d_th) = 1 + 2^-52
        params = SystemParams(wavelength=LAM, side_count=10, spacing=LAM, separation=40.0)
        d_th = beamfocus.spacing_threshold(params)
        (record,) = run_sweep(spacing_spec(10, [d_th], 40.0))
        assert record.epsilon > 1.0
        assert 0.0 < closed_form_error(record, 100) <= 0.05


class TestPresets:
    SWEEPS = ("fig2", "fig3", "fig5", "fig6", "fig9", "xl")
    PROFILES = ("fig7", "fig8")

    def test_names(self):
        assert list(PRESETS) == ["fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "xl"]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="available: fig2, fig3, fig5, fig6, fig7, fig8, fig9, xl$"):
            load_preset("fig4")

    def test_fig6_fig9_are_the_fig5_entry(self):
        assert load_preset("fig6") is load_preset("fig5")
        assert load_preset("fig9") is load_preset("fig5")

    def test_payload_type_gives_the_output_kind(self):
        for name in self.SWEEPS:
            payload = load_preset(name)
            assert isinstance(payload, SweepSpec), name
            assert payload.notes, name
        for name in self.PROFILES:
            payload = load_preset(name)
            assert isinstance(payload, SystemParams), name
            assert not isinstance(payload, SweepSpec), name
            assert not hasattr(payload, "notes"), name

    def test_fig5_grid_contains_threshold(self):
        spec = load_preset("fig5")
        d_th = np.sqrt(LAM * 40.0 / 25)
        assert any(abs(g - d_th) < 1e-12 for g in spec.grid)
        assert spec.grid[0] == pytest.approx(2 * LAM)
        assert spec.grid[-1] == pytest.approx(20 * LAM)

    def test_fig3_threshold_at_3p2_lambda(self):
        spec = load_preset("fig3")
        d_th = np.sqrt(spec.wavelength * spec.separation / spec.side_count)
        assert d_th == pytest.approx(3.2 * LAM, rel=1e-12)
        assert "inferred" in spec.notes

    def test_xl_largest_array_sits_at_its_threshold(self):
        # the spec only: the 100 x 100 point takes about 22 s, so tier-1 never runs it
        spec = load_preset("xl")
        assert spec.swept_variable == "antennas_per_side"
        assert spec.grid == (25, 50, 75, 100)
        assert (spec.wavelength, spec.separation) == (LAM, 40.0)
        assert spec.spacing == pytest.approx(np.sqrt(LAM * 40.0 / 100), rel=1e-12)

    def test_fig7_fig8_profiles(self):
        params7 = load_preset("fig7")
        params8 = load_preset("fig8")
        d_th = np.sqrt(LAM * 40.0 / 25)
        assert params7.spacing == pytest.approx(0.8 * d_th)
        assert params8.spacing == pytest.approx(1.5 * d_th)
