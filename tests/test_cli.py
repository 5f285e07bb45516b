import argparse
import dataclasses
import json

import numpy as np
import pytest

import nfmimo
from nfmimo import beamfocus, experiments
from nfmimo.cli import (
    EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, load_params, main, parse_length
)
from nfmimo.experiments import SweepSpec, SystemParams, run_sweep


class TestParseLength:
    def test_meters(self):
        assert parse_length("0.1265", 0.01) == pytest.approx(0.1265)

    def test_lambda_suffix(self):
        assert parse_length("12.65lambda", 0.01) == pytest.approx(0.1265)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_length("twelve", 0.01)


class TestLoadParams:
    """What the parsed flags of a subcommand resolve to."""

    DEFAULT = SystemParams(wavelength=0.01, side_count=25, spacing=0.005, separation=40.0)

    @staticmethod
    def resolve(*argv):
        return load_params(build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", ["threshold", "report", "gainmap"])
    def test_no_flags_give_the_fig5_system(self, command):
        assert self.resolve(command) == self.DEFAULT

    def test_padded_lambda_length(self):
        assert self.resolve("threshold", "--spacing", " 3lambda ").spacing == 3 * 0.01

    def test_meter_length(self):
        assert self.resolve("threshold", "--separation", "40").separation == 40.0

    def test_settings_change_only_their_fields(self):
        params = self.resolve("report", "--energy-fraction", "0.5", "--power", "3e4")
        assert params == dataclasses.replace(self.DEFAULT, energy_fraction=0.5, power=3e4)


class TestThreshold:
    def test_default_configuration(self, capsys):
        code = main(["threshold"])  # defaults are the 25x25, lambda=0.01, L=40 m setup
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "12.65 lambda" in out

    def test_single_antenna_unit_product(self, capsys):
        code = main(
            ["threshold", "--side-count", "1", "--wavelength", "1.0",
             "--separation", "1.0", "--spacing", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "d_threshold = 1 m" in out

    def test_epsilon_echoed_at_threshold(self, capsys):
        code = main(["threshold", "--spacing", "12.649110640673516lambda"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "epsilon = 1" in out

    def test_validation_failure_exit_code(self, capsys):
        assert main(["threshold", "--side-count", "0"]) == EXIT_VALIDATION
        assert "side_count" in capsys.readouterr().err


class TestReport:
    def test_single_antenna(self, capsys):
        code = main(["report", "--json", "--side-count", "1", "--spacing", "1lambda"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_dof"] == 1
        assert payload["n_edof_exact"] == 1
        assert set(payload) == {
            "n_dof",
            "n_edof_exact",
            "n_edof_fringes",
            "n_edof_trace",
            "energy_fraction",
            "capacity_full",
            "capacity_edof_exact",
        }

    def test_fraction_monotonicity(self, capsys):
        args = ["report", "--json", "--side-count", "5", "--spacing", "4lambda",
                "--separation", "400lambda"]
        main(args)
        full = json.loads(capsys.readouterr().out)
        main(args + ["--energy-fraction", "0.5"])
        half = json.loads(capsys.readouterr().out)
        assert half["n_edof_exact"] <= full["n_edof_exact"]

    def test_fraction_one_ulp_below_one_takes_every_value(self, capsys):
        # the cumulative energy ends below this fraction, which once asked for 626 values
        code = main(["report", "--energy-fraction", "0.9999999999999999",
                     "--spacing", "0.029230769230769234"])
        assert code == EXIT_OK
        assert "n_edof_exact    = 625\n" in capsys.readouterr().out

    def test_aperture_whose_area_underflows(self, capsys):
        # (S d)^2 underflows to 0, so the fringe estimate A_S A_R / (lambda L)^2 is 0
        code = main(["report", "--json", "--side-count", "2", "--spacing", "1e-170"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_edof_fringes"] == 0.0


class TestSweep:
    def test_spec_file_sweep(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "swept_variable": "spacing",
                    "grid": [0.005, 0.01],
                    "wavelength": 0.01,
                    "side_count": 2,
                    "separation": 1.0,
                }
            )
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(spec_file), "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("swept_value,")
        assert (tmp_path / "sweep.csv.spec.json").exists()

    def test_sidecar_roundtrip_identical_csv(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "swept_variable": "spacing",
                    "grid": [0.005, 0.01],
                    "wavelength": 0.01,
                    "side_count": 2,
                    "separation": 1.0,
                }
            )
        )
        first = tmp_path / "first.csv"
        assert main(["sweep", str(spec_file), "--output", str(first)]) == EXIT_OK
        second = tmp_path / "second.csv"
        code = main(["sweep", str(first) + ".spec.json", "--output", str(second)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("notes", [{}, None], ids=["empty", "absent"])
    def test_sidecar_holds_no_empty_notes(self, tmp_path, capsys, notes):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC if notes is None else {**SPEC, "notes": notes}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec_file), "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert "notes" not in json.loads((tmp_path / "sweep.csv.spec.json").read_text())

    def test_empty_grid_is_validation_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "swept_variable": "spacing",
                    "grid": [],
                    "wavelength": 0.01,
                    "side_count": 2,
                    "separation": 1.0,
                }
            )
        )
        out = tmp_path / "never.csv"
        assert main(["sweep", str(spec_file), "--output", str(out)]) == EXIT_VALIDATION
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec_path, default_output",
        [
            ("spec.json", "spec.out.csv"),
            ("runs/v1.2/spec", "runs/v1.2/spec.out.csv"),
            ("./spec", "spec.out.csv"),
        ],
        ids=["extension", "dotted_directory", "dot_slash"],
    )
    def test_default_output_drops_only_the_file_extension(
        self, tmp_path, monkeypatch, capsys, spec_path, default_output
    ):
        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / spec_path
        spec_file.parent.mkdir(parents=True, exist_ok=True)
        spec_file.write_text(
            json.dumps(
                {
                    "swept_variable": "spacing",
                    "grid": [0.005],
                    "wavelength": 0.01,
                    "side_count": 2,
                    "separation": 1.0,
                }
            )
        )
        assert main(["sweep", spec_path]) == EXIT_OK
        capsys.readouterr()
        written = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv")]
        assert written == [default_output]

    def test_unknown_preset(self, capsys):
        # neither a preset nor an existing path
        assert main(["sweep", "fig4"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: no preset or spec file 'fig4'; presets: fig2, fig3, fig5, fig6, fig7, fig8, "
            "fig9, xl\n"
        )

    def test_missing_spec_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "runs/missing.json"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: no preset or spec file 'runs/missing.json'; presets: fig2, ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_profile_preset(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        code = main(["sweep", "fig7", "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 626


class TestNumericalErrors:
    """A numerical failure exits 2 with one `numerical error:` line and no traceback."""

    def assert_numerical(self, code, capsys, *fragments):
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert len(err.splitlines()) == 1 and err.startswith("numerical error: ")
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in err
        return err

    # the 1e-300 case is the threshold_underflow case of the lengths test below
    @pytest.mark.parametrize("value", ["1e300"], ids=["overflow"])
    def test_threshold_out_of_float_range(self, capsys, value):
        code = main(["threshold", "--wavelength", value, "--separation", value])
        self.assert_numerical(code, capsys, "epsilon", f"wavelength {float(value)!r} m")

    def test_threshold_epsilon_overflows(self, capsys):
        # spacing**2 is finite; sqrt(N) d^2 is not
        code = main(["threshold", "--spacing", "1e154"])
        self.assert_numerical(code, capsys, "epsilon", "spacing 1e+154 m")

    def test_threshold_d_th_overflows(self, capsys):
        # epsilon is 0 and finite here; d_th = inf used to be printed with exit 0
        code = main(["threshold", "--wavelength", "1e300", "--separation", "1e300", "--spacing", "1"])
        self.assert_numerical(
            code, capsys, "d_th", "wavelength 1e+300 m, spacing 1.0 m and separation 1e+300 m"
        )

    def test_report_trace_edof_underflows(self, capsys):
        # every mu_i^4 underflows to 0; a numpy warning would fail the suite
        code = main(["report", "--separation", "1e150", "--side-count", "2", "--spacing", "1"])
        self.assert_numerical(code, capsys, "trace-ratio EDoF", "underflows to 0")

    @pytest.mark.parametrize(
        "lengths",
        [("1e-154", "1e-154", "1e-154"), ("1e-5", "1e75", "1e-5")],
        ids=["underflow", "overflow"],
    )
    def test_fringe_edof_out_of_float_range_names_the_lengths(self, capsys, lengths):
        # (lambda L)^2 underflows to 0, or the estimate overflows to inf
        wavelength, spacing, separation = lengths
        code = main(["report", "--wavelength", wavelength, "--spacing", spacing,
                     "--separation", separation, "--side-count", "2"])
        err = self.assert_numerical(
            code, capsys, "the fringe EDoF A_S A_R / (lambda L)^2 leaves the float range at "
            f"wavelength {float(wavelength)!r} m, spacing {float(spacing)!r} m and separation "
            f"{float(separation)!r} m, side count 2"
        )
        for name in ("wavelength", "spacing", "separation"):
            assert err.count(f"{name} ") == 1

    @pytest.mark.parametrize("mode", ["exact", "phase_only", "fresnel"])
    def test_gainmap_extent_overflows(self, tmp_path, capsys, mode):
        # the corner probes' squared offsets overflow; a numpy warning would fail the suite
        output = tmp_path / "map.csv"
        code = main(["gainmap", "--extent", "1e160", "--points", "3", "--mode", mode,
                     "--output", str(output)])
        self.assert_numerical(code, capsys, f"{mode} gain at probe (-1e+160, -1e+160, 40.0)")
        assert not output.exists()  # created by the writability check, removed on the failure

    @pytest.mark.parametrize(
        "existing",
        [(), ("spec.out.csv",), ("spec.out.csv", "spec.out.csv.spec.json")],
        ids=["none", "csv", "csv_and_sidecar"],
    )
    def test_failed_sweep_leaves_no_new_file(self, tmp_path, monkeypatch, capsys, existing):
        # the output check creates the CSV and its sidecar before the grid value overflows;
        # it removes what it created and leaves a file that was there as it was
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps({**SPEC, "grid": [1e154]}))
        for name in existing:
            (tmp_path / name).write_text("kept\n")
        self.assert_numerical(main(["sweep", "spec.json"]), capsys, "spacing 1e+154 m")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", *existing]
        for name in existing:
            assert (tmp_path / name).read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv, lengths",
        [
            (["report", "--spacing", "1e160"], "wavelength 0.01 m, spacing 1e+160 m and separation 40.0 m"),
            (
                ["gainmap", "--spacing", "1e160", "--points", "3"],
                "wavelength 0.01 m, spacing 1e+160 m and separation 40.0 m",
            ),
            (
                ["report", "--wavelength", "1e300", "--separation", "1e300", "--spacing", "1"],
                "wavelength 1e+300 m, spacing 1.0 m and separation 1e+300 m",
            ),
        ],
        ids=["report_spacing", "gainmap_spacing", "report_wavelength"],
    )
    def test_lengths_whose_squares_overflow(self, tmp_path, monkeypatch, capsys, argv, lengths):
        # numpy overflows while the channel or the focusing phases are built; each would
        # print RuntimeWarnings before the error line if the subcommand ran without errstate.
        # numpy's message names no input, so the line names the system's lengths
        monkeypatch.chdir(tmp_path)
        self.assert_numerical(main(argv), capsys, "overflow encountered", f" at {lengths}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "changes, value",
        [
            ({"grid": [1e154]}, "spacing 1e+154 m"),
            ({"grid": [1e160]}, "spacing 1e+160 m"),
            (
                {"swept_variable": "separation", "separation": None, "spacing": 1.0, "grid": [1e150]},
                "separation 1e+150 m",
            ),
        ],
        ids=["spacing_1e154", "spacing_1e160", "separation_1e150"],
    )
    def test_spec_file_sweep_names_the_grid_value_of_every_failure(
        self, tmp_path, capsys, changes, value
    ):
        # numpy overflows for the spacings; the trace-ratio EDoF underflows at 1e150 m
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**SPEC, **changes}))
        code = main(["sweep", str(spec_file), "--output", str(tmp_path / "out.csv")])
        self.assert_numerical(code, capsys, " at wavelength 0.01 m, ", value)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report"], "coincident transmit/receive antennas, or their squared distance "
             "underflows to 0"),
            # a given extent, since the default one is 2 d_th, which underflows to 0
            (
                ["gainmap", "--points", "2", "--extent", "1e-200"],
                "focus point coincides with a transmit antenna, or their squared distance "
                "underflows to 0",
            ),
        ],
        ids=["report", "gainmap"],
    )
    def test_accepted_input_that_underflows(self, tmp_path, monkeypatch, capsys, argv, message):
        # every distance underflows to 0; no numpy warning, unlike an overflowing separation
        flags = ["--wavelength", "1e-300", "--separation", "1e-300", "--side-count", "2",
                 "--spacing", "1e-200"]
        monkeypatch.chdir(tmp_path)
        self.assert_numerical(main([*argv, *flags]), capsys, message, " at wavelength 1e-300 m, ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, cause, lengths",
        [
            (
                ["gainmap", "--separation", "1e-200", "--points", "2"],
                "focus point coincides with a transmit antenna, or their squared distance "
                "underflows to 0",
                "wavelength 0.01 m, spacing 0.005 m and separation 1e-200 m",
            ),
            (
                ["gainmap", "--wavelength", "1e300", "--separation", "1e300", "--points", "2"],
                "d_th = sqrt(lambda L / sqrt(N)) leaves the float range",
                "wavelength 1e+300 m, spacing 5e+299 m and separation 1e+300 m",
            ),
            (
                ["gainmap", "--wavelength", "1e-300", "--separation", "1e-300", "--points", "2"],
                "d_th = sqrt(lambda L / sqrt(N)) leaves the float range",
                "wavelength 1e-300 m, spacing 5e-301 m and separation 1e-300 m",
            ),
            (
                ["threshold", "--wavelength", "1e300", "--separation", "1e300"],
                "epsilon = sqrt(N) d^2 / (lambda L) leaves the float range",
                "wavelength 1e+300 m, spacing 5e+299 m and separation 1e+300 m",
            ),
            (
                ["threshold", "--wavelength", "1e300", "--separation", "1e300", "--spacing", "1"],
                "d_th = sqrt(lambda L / sqrt(N)) leaves the float range",
                "wavelength 1e+300 m, spacing 1.0 m and separation 1e+300 m",
            ),
            (
                ["threshold", "--spacing", "1e154"],
                "epsilon = sqrt(N) d^2 / (lambda L) leaves the float range",
                "wavelength 0.01 m, spacing 1e+154 m and separation 40.0 m",
            ),
            (
                ["threshold", "--wavelength", "1e-300", "--separation", "1e-300"],
                "epsilon = sqrt(N) d^2 / (lambda L) leaves the float range",
                "wavelength 1e-300 m, spacing 5e-301 m and separation 1e-300 m",
            ),
        ],
        ids=[
            "gainmap_coincident",
            "gainmap_overflow",
            "gainmap_underflow",
            "threshold_epsilon",
            "threshold_d_th",
            "threshold_spacing",
            "threshold_underflow",
        ],
    )
    def test_threshold_out_of_float_range_names_the_lengths(
        self, tmp_path, monkeypatch, capsys, argv, cause, lengths
    ):
        # d_th or epsilon is 0, inf or so small that the focus coincides with a transmit
        # antenna; each failure is numerical, not a fault of a grid or probe the user gave
        monkeypatch.chdir(tmp_path)
        err = self.assert_numerical(main(argv), capsys, f"{cause} at {lengths}, side count 25")
        for name in ("wavelength", "spacing", "separation"):
            assert err.count(f"{name} ") == 1

    @pytest.fixture
    def svd_fails(self, monkeypatch):
        # a monkeypatch, since a real non-converging input also raises numpy warnings,
        # which pytest turns into errors
        def fail(params, swept_value):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(experiments, "point_metrics", fail)

    def test_report_linalg_error(self, svd_fails, capsys):
        # LinAlgError is a ValueError; it must not be reported as a validation failure
        self.assert_numerical(main(["report"]), capsys, "SVD did not converge")

    def test_spec_file_sweep_names_the_grid_value(self, svd_fails, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "swept_variable": "spacing",
                    "grid": [0.005, 0.01],
                    "wavelength": 0.01,
                    "side_count": 2,
                    "separation": 1.0,
                }
            )
        )
        code = main(["sweep", str(spec_file), "--output", str(tmp_path / "out.csv")])
        self.assert_numerical(code, capsys, "spacing 0.005 m")

    @pytest.fixture
    def out_of_memory(self, monkeypatch):
        # a monkeypatch: a real failed allocation needs a memory limit on the whole process
        def fail(geometry):
            raise MemoryError()

        monkeypatch.setattr(experiments, "build_channel", fail)

    def test_report_out_of_memory(self, out_of_memory, capsys):
        self.assert_numerical(main(["report"]), capsys, "MemoryError at wavelength 0.01 m")

    def test_spec_file_sweep_out_of_memory_names_the_grid_value(self, out_of_memory, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC))
        code = main(["sweep", str(spec_file), "--output", str(tmp_path / "out.csv")])
        self.assert_numerical(code, capsys, "MemoryError at wavelength 0.01 m, spacing 0.005 m")


class TestGainmap:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code = main(
            ["gainmap", "--side-count", "3", "--spacing", "2lambda",
             "--separation", "100lambda", "--points", "5", "--extent", "4lambda",
             "--output", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 26
        assert lines[0] == "probe_x,probe_y,mode,gain"

    def test_one_point_probes_the_focus(self, tmp_path, capsys):
        # np.linspace(-e, e, 1) is [-e], the corner; one probe belongs at the focus (0, 0, L)
        out = tmp_path / "map.csv"
        assert main(["gainmap", "--points", "1", "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote 1 probes to {out}\n"
        assert out.read_text() == "probe_x,probe_y,mode,gain\n0,0,phase_only,625\n"


SPEC = {
    "swept_variable": "spacing",
    "grid": [0.005, 0.01],
    "wavelength": 0.01,
    "side_count": 2,
    "separation": 1.0,
}


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


class TestInputChecks:
    """Malformed input gives a one-line error and exit 1, before any point runs."""

    @pytest.mark.parametrize("command", ["sweep"])
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        # deep enough that the JSON decoder raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(deep)]) == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == [deep]

    @pytest.mark.parametrize("command", ["sweep"])
    @pytest.mark.parametrize(
        "content", [b'{"side_count": 5,', b"\xff\xfe"], ids=["truncated", "not_utf8"]
    )
    def test_malformed_json_names_its_file(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"side_count": 5.5},
            {"wavelength": "0.01"},
            {"area_convention": "bogus"},
            {"grid": [0.005, "NaN"]},
            # json.dumps writes a float nan as the bare NaN that json.load accepts
            {"grid": [0.005, float("nan")]},
            {"swept_variable": "separation", "separation": None, "spacing": 0.005, "grid": [-1.0, 1.0]},
            {"swept_variable": "antennas_per_side", "side_count": None, "spacing": 0.005, "grid": [2.2, 2.7]},
            {"noise_variance": 1.0},
            {"max_points": 500},
            # SPEC's sidecar as written before these three settings were removed
            {"area_convention": "cell", "energy_fraction": 0.999, "max_points": 200,
             "noise_variance": 1.0, "power": None, "spacing": None},
        ],
        ids=[
            "side_count_5.5", "wavelength_string", "area_convention_bogus", "grid_nan_string",
            "grid_nan_json", "grid_separation_negative", "grid_side_count_fractional",
            "noise_variance", "max_points", "old_sidecar",
        ],
    )
    def test_spec_rejected_at_load(self, tmp_path, capsys, overrides):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**SPEC, **overrides}))
        out = tmp_path / "never.csv"
        assert main(["sweep", str(spec_file), "--output", str(out)]) == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--side-count", "abc"],
            ["threshold", "--bogus", "1"],
            # each subcommand takes only the flags its handler reads
            ["threshold", "--power", "5"],
            ["threshold", "--output", "x"],
            ["report", "--output", "x"],
            ["validate"],  # an unknown subcommand exits 1 like an unknown flag
            ["gainmap", "--side-count", "2", "--points", "3", "--energy-fraction", "0.5"],
            ["gainmap", "--side-count", "2", "--points", "3", "--extent=-1lambda"],
            ["gainmap", "--side-count", "2", "--points", "3", "--extent", "0"],
            # threshold, report and gainmap read no parameter file: flags set every value
            ["threshold", "--config", "c.json"],
            ["report", "--config", "c.json"],
            ["gainmap", "--config", "c.json"],
        ],
        ids=[
            "bad_int", "unknown_flag", "threshold_power", "threshold_output", "report_output",
            "validate_removed",
            "gainmap_energy_fraction", "gainmap_extent_negative", "gainmap_extent_zero",
            "threshold_config", "report_config", "gainmap_config",
        ],
    )
    def test_bad_argv(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report", "--spacing", "twelve"], "spacing must be a length in meters or wavelengths"),
            (["gainmap", "--points", "3", "--extent", "twelve"], "--extent must be a length"),
            (["report", "--side-count", "abc"], "side_count must be an integer, got 'abc'"),
            (["threshold", "--wavelength", "x"], "wavelength must be a number, got 'x'"),
            (["report", "--power", "abc"], "power must be a number, got 'abc'"),
            (["gainmap", "--points", "abc"], "--points must be an integer, got 'abc'"),
            (["gainmap", "--points", "1e3"], "--points must be an integer, got '1e3'"),
        ],
        ids=[
            "flag_spacing", "flag_extent", "flag_side_count", "flag_wavelength", "flag_power",
            "flag_points_text", "flag_points_float",
        ],
    )
    def test_non_numeric_value_names_its_field(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, output",
        [
            (["sweep", "fig5"], "missing/x.csv"),
            (["sweep", "fig5"], "out.csv"),  # its sidecar path is a directory
            (["sweep", "fig7"], "missing/x.csv"),
            (["gainmap", "--points", "61"], "missing/g.csv"),
        ],
        ids=["sweep_csv", "sweep_sidecar", "sweep_profile", "gainmap"],
    )
    def test_unwritable_output_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv, output):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        for name in ("point_metrics", "eigen_profile"):
            monkeypatch.setattr(experiments, name, no_work)
        monkeypatch.setattr(beamfocus, "gain_map", no_work)
        (tmp_path / "out.csv").write_text("kept\n")
        (tmp_path / "out.csv.spec.json").mkdir()
        assert main([*argv, "--output", str(tmp_path / output)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        # opening for append created nothing and truncated nothing
        assert (tmp_path / "out.csv").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.spec.json"]

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "fig5"], ["sweep", "fig7"], ["sweep", "spec.json"], ["gainmap", "--points", "3"]],
        ids=["preset_sweep", "preset_profile", "spec_file", "gainmap"],
    )
    def test_empty_output_is_a_path_that_cannot_be_opened(self, tmp_path, monkeypatch, capsys, argv):
        # not the default path, which would overwrite a file of that name in the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(SPEC))
        assert main([*argv, "--output", ""]) == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--separation" in capsys.readouterr().out

    @pytest.mark.parametrize("points", ["0", "201"])  # 201 is one past the sweep grid's cap
    def test_gainmap_zero_points(self, tmp_path, capsys, points):
        out = tmp_path / "map.csv"
        code = main(["gainmap", "--side-count", "2", "--points", points, "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.05", {"a": 1}], ids=["string", "object"])
    def test_spec_grid_that_is_no_list_is_named_whole(self, tmp_path, capsys, grid):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**SPEC, "grid": grid}))
        out = tmp_path / "never.csv"
        assert main(["sweep", str(spec_file), "--output", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: sweep grid must be a list of numbers, got {grid!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, data, message",
        [("sweep", [1, 2], "a sweep spec must be a JSON object")],
        ids=["spec"],
    )
    def test_json_file_that_holds_no_object(self, tmp_path, monkeypatch, capsys, command, data, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert main([command, str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]


def test_subcommand_flags():
    """Each subcommand takes exactly the options its handler reads."""
    system = {"wavelength", "side_count", "spacing", "separation"}
    expected = {
        "threshold": system,
        "report": system | {"energy_fraction", "power", "json"},
        "sweep": {"preset", "output"},
        "gainmap": system | {"output", "mode", "extent", "points"},
    }
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        name: {a.dest for a in parser._actions if a.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert dests == expected
    assert sum(map(len, dests.values())) == 21


def test_every_flag_has_help():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            assert action.help, f"{name} {action.dest}"


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process, so a flag given to one call must not stay set
    system = ["--side-count", "3", "--spacing", "0.02", "--separation", "1.0"]
    exact, plain = tmp_path / "exact.csv", tmp_path / "plain.csv"
    assert main(["gainmap", "--mode", "exact", "--points", "3", *system, "--output", str(exact)]) == EXIT_OK
    assert build_parser() is build_parser()
    assert main(["gainmap", "--points", "3", *system, "--output", str(plain)]) == EXIT_OK
    assert {line.split(",")[2] for line in exact.read_text().splitlines()[1:]} == {"exact"}
    assert {line.split(",")[2] for line in plain.read_text().splitlines()[1:]} == {"phase_only"}
    capsys.readouterr()
    assert main(["report", "--json", *system]) == EXIT_OK
    json.loads(capsys.readouterr().out)
    assert main(["report", *system]) == EXIT_OK
    assert capsys.readouterr().out.startswith("n_dof           = ")


def test_main_runs_the_subcommand_function_of_the_module(monkeypatch):
    # looked up when main runs, so a tracer that replaces module attributes sees the call
    monkeypatch.setattr(nfmimo.cli, "cmd_threshold", lambda args: 7)
    assert main(["threshold"]) == 7


def test_report_is_the_one_point_sweep(capsys):
    args = ["--side-count", "3", "--spacing", "0.02", "--separation", "1.0"]
    assert main(["report", "--json", *args]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    spec = SweepSpec(
        swept_variable="spacing", grid=(0.02,), wavelength=0.01, side_count=3, separation=1.0
    )
    (record,) = run_sweep(spec)
    assert payload.pop("energy_fraction") == spec.energy_fraction
    for key, value in payload.items():
        assert value == getattr(record, key), key
