import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nfmimo
from nfmimo import beamfocus, experiments
from nfmimo.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, main, parse_length
from nfmimo.experiments import SweepSpec, run_sweep


class TestParseLength:
    def test_meters(self):
        assert parse_length("0.1265", 0.01) == pytest.approx(0.1265)

    def test_lambda_suffix(self):
        assert parse_length("12.65lambda", 0.01) == pytest.approx(0.1265)

    def test_numeric_passthrough(self):
        assert parse_length(0.02, 0.01) == 0.02

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_length("twelve", 0.01)


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

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["report", "--side-count", "2", "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(out.read_text())["n_dof"] >= 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side_count": 3, "spacing": "0.5lambda"}))
        code = main(["report", "--json", "--config", str(cfg), "--side-count", "1"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_dof"] == 1

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frequency": 30e9}))
        assert main(["report", "--config", str(cfg)]) == EXIT_VALIDATION
        capsys.readouterr()


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
        assert main(["sweep", "fig4"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_profile_preset(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        code = main(["sweep", "fig7", "--output", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 626


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


class TestValidate:
    def test_default_configuration_passes(self, capsys):
        code = main(["validate", "--side-count", "25"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out


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

    def test_config_fractional_side_count(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side_count": 5.5}))
        assert main(["report", "--config", str(cfg), "--spacing", "1lambda"]) == EXIT_VALIDATION
        assert_one_line_error(capsys)

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
        ],
        ids=[
            "side_count_5.5", "wavelength_string", "area_convention_bogus", "grid_nan_string",
            "grid_nan_json", "grid_separation_negative", "grid_side_count_fractional",
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
            ["validate", "--spacing", "1lambda"],
            ["gainmap", "--side-count", "2", "--points", "3", "--energy-fraction", "0.5"],
            ["gainmap", "--side-count", "2", "--points", "3", "--extent=-1lambda"],
            ["gainmap", "--side-count", "2", "--points", "3", "--extent", "0"],
        ],
        ids=[
            "bad_int", "unknown_flag", "threshold_power", "threshold_output", "validate_spacing",
            "gainmap_energy_fraction", "gainmap_extent_negative", "gainmap_extent_zero",
        ],
    )
    def test_bad_argv(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ({"side_count": "abc"}, ["threshold"], "side_count must be an integer, got 'abc'"),
            ({"wavelength": "abc"}, ["threshold"], "wavelength must be a number, got 'abc'"),
            ({"power": "abc"}, ["report"], "power must be a number, got 'abc'"),
            ({"wavelength": 10**400}, ["threshold"], "wavelength must be a number, got 1000"),
            ({"spacing": True}, ["threshold"], "spacing must be a length in meters or wavelengths"),
            ({}, ["report", "--spacing", "twelve"], "spacing must be a length in meters or wavelengths"),
            ({}, ["gainmap", "--points", "3", "--extent", "twelve"], "--extent must be a length"),
            ({}, ["report", "--side-count", "abc"], "side_count must be an integer, got 'abc'"),
            ({}, ["threshold", "--wavelength", "x"], "wavelength must be a number, got 'x'"),
        ],
        ids=[
            "config_side_count", "config_wavelength", "config_power", "config_wavelength_overflow",
            "config_spacing_bool", "flag_spacing", "flag_extent", "flag_side_count", "flag_wavelength",
        ],
    )
    def test_non_numeric_value_names_its_field(self, tmp_path, monkeypatch, capsys, config, argv, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        workdir = tmp_path / "run"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main([*argv, "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize(
        "subcommand, output",
        [
            ("report", 2),
            ("report", True),
            ("report", {"a": 1}),
            ("report", [1]),
            ("report", 1.5),
            ("threshold", 2),
            ("gainmap", [1]),
            ("validate", True),
        ],
        ids=[
            "report_int", "report_bool", "report_object", "report_list", "report_float",
            "threshold_int", "gainmap_list", "validate_bool",
        ],
    )
    def test_config_output_must_be_a_path_string(self, tmp_path, subcommand, output):
        # in a child process: an int or bool output would be opened as a file
        # descriptor of the process that runs the command, and closed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": output}))
        workdir = tmp_path / "run"
        workdir.mkdir()
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nfmimo.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "nfmimo.cli", subcommand, "--config", str(cfg), "--side-count", "2"],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_VALIDATION
        assert run.stdout == ""
        assert run.stderr == f"error: output must be a path string, got {output!r}\n"
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, output",
        [
            (["report", "--side-count", "2", "--spacing", "1lambda", "--separation", "1"], "missing/x.json"),
            (["sweep", "fig5"], "missing/x.csv"),
            (["sweep", "fig5"], "out.csv"),  # its sidecar path is a directory
            (["sweep", "fig7"], "missing/x.csv"),
            (["gainmap", "--points", "61"], "missing/g.csv"),
        ],
        ids=["report", "sweep_csv", "sweep_sidecar", "sweep_profile", "gainmap"],
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

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--separation" in capsys.readouterr().out

    def test_gainmap_zero_points(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code = main(["gainmap", "--side-count", "2", "--points", "0", "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert_one_line_error(capsys)
        assert not out.exists()


def test_subcommand_flags():
    """Each subcommand takes exactly the options its handler reads."""
    system = {"config", "wavelength", "side_count", "spacing", "separation"}
    expected = {
        "threshold": system,
        "report": system | {"energy_fraction", "power", "noise_variance", "output", "json"},
        "sweep": {"preset", "output"},
        "gainmap": system | {"output", "mode", "extent", "points"},
        "validate": system - {"spacing"},
    }
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        name: {a.dest for a in parser._actions if a.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert dests == expected
    assert sum(map(len, dests.values())) == 30


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
