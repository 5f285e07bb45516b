import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfmimo import experiments
from nfmimo.channel import SystemGeometry
from nfmimo.experiments import (
    RECORD_FIELDS,
    SweepError,
    SweepSpec,
    eigen_profile,
    load_preset,
    preset_names,
    run_sweep,
    validate_closed_form,
    write_profile_csv,
    write_sweep_csv,
)
from nfmimo.geometry import build_upa

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
        with pytest.raises(SweepError, match="0.008") as err:
            run_sweep(small_spec(grid=(0.004, 0.008, 0.012)))
        assert err.value.swept_value == 0.008
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = small_spec(grid=(0.004, 0.008))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(spec), a, spec=spec)
        write_sweep_csv(run_sweep(spec), b, spec=spec)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_header_and_sidecar(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "out.csv"
        write_sweep_csv(run_sweep(spec), path, spec=spec, notes={"k": "v"})
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


class TestEigenProfile:
    def test_single_antenna_single_point(self):
        tx = build_upa(1, 0.0, 0.0)
        rx = build_upa(1, 0.0, 0.5)
        profile = eigen_profile(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        assert len(profile) == 1
        assert profile[0][0] == 1
        assert profile[0][1] == pytest.approx(1 / (4 * np.pi * 0.5) ** 2)

    def test_descending_with_one_based_indices(self):
        tx = build_upa(3, 0.02, 0.0)
        rx = build_upa(3, 0.02, 1.0)
        profile = eigen_profile(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        indices = [i for i, _ in profile]
        values = [v for _, v in profile]
        assert indices == list(range(1, 10))
        assert values == sorted(values, reverse=True)

    def test_profile_csv(self, tmp_path):
        tx = build_upa(2, 0.02, 0.0)
        rx = build_upa(2, 0.02, 1.0)
        profile = eigen_profile(SystemGeometry(tx=tx, rx=rx, wavelength=LAM))
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5


class TestValidateClosedForm:
    def test_single_antenna_error_is_zero(self):
        report = validate_closed_form([1], [0.01], LAM, 1.0)
        assert report["max_normalized_error"] == pytest.approx(0.0, abs=1e-12)
        assert report["passes"]

    def test_paraxial_grid_passes(self):
        sep = 40.0
        grid = [f * 0.1265 for f in (0.3, 0.6, 0.9)]
        report = validate_closed_form([25], grid, LAM, sep)
        assert report["passes"]
        assert report["max_normalized_error"] <= 0.05

    def test_rejects_non_paraxial_grid(self):
        with pytest.raises(ValueError):
            validate_closed_form([25], [0.2], LAM, 40.0)  # epsilon = 2.5


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "xl"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            load_preset("fig4")

    def test_fig5_grid_contains_threshold(self):
        kind, spec, _ = load_preset("fig5")
        assert kind == "sweep"
        d_th = np.sqrt(LAM * 40.0 / 25)
        assert any(abs(g - d_th) < 1e-12 for g in spec.grid)
        assert spec.grid[0] == pytest.approx(2 * LAM)
        assert spec.grid[-1] == pytest.approx(20 * LAM)

    def test_fig3_threshold_at_3p2_lambda(self):
        _, spec, notes = load_preset("fig3")
        d_th = np.sqrt(spec.wavelength * spec.separation / spec.side_count)
        assert d_th == pytest.approx(3.2 * LAM, rel=1e-12)
        assert "inferred" in notes

    def test_xl_largest_array_sits_at_its_threshold(self):
        # the spec only: the 100 x 100 point takes about 22 s, so tier-1 never runs it
        kind, spec, _ = load_preset("xl")
        assert kind == "sweep"
        assert spec.swept_variable == "antennas_per_side"
        assert spec.grid == (25, 50, 75, 100)
        assert (spec.wavelength, spec.separation) == (LAM, 40.0)
        assert spec.spacing == pytest.approx(np.sqrt(LAM * 40.0 / 100), rel=1e-12)

    def test_fig7_fig8_profiles(self):
        kind7, geo7, _ = load_preset("fig7")
        kind8, geo8, _ = load_preset("fig8")
        assert kind7 == kind8 == "profile"
        d_th = np.sqrt(LAM * 40.0 / 25)
        assert geo7.tx.spacing == pytest.approx(0.8 * d_th)
        assert geo8.tx.spacing == pytest.approx(1.5 * d_th)
