import json

import pytest

from corrsense.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeploy:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        out = tmp_path / "dep.txt"
        code, _, _ = run_cli(capsys, "deploy", "--seed", "7",
                             "--out", str(out))
        assert code == 0
        first = out.read_bytes()
        run_cli(capsys, "deploy", "--seed", "7", "--out", str(out))
        assert out.read_bytes() == first
        assert first.startswith(b"field,120.000000,120.000000\nseed,7\n")

    def test_stdout_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "deploy", "--seed", "1",
                               "--normals", "3", "--grid-rows", "1",
                               "--grid-cols", "1")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("CH,")) == 1
        assert sum(1 for l in lines if l.startswith("N,")) == 3
        assert sum(1 for l in lines if l.startswith("T,")) == 1


class TestCluster:
    def test_pipeline_partition(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--seed", "7", "--out", str(dep))
        code, out, _ = run_cli(capsys, "cluster", "--deployment", str(dep))
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "head,members"
        assert len(rows) == 26
        members = [int(i) for row in rows[1:] if row.split(",")[1]
                   for i in row.split(",")[1].split(";")]
        assert sorted(members) == list(range(1, 101))

    def test_json_format(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--seed", "7", "--out", str(dep))
        code, out, _ = run_cli(capsys, "cluster", "--deployment", str(dep),
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 25


class TestAccuracy:
    def test_closed_form_reports(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--seed", "7", "--out", str(dep))
        code, out, _ = run_cli(capsys, "accuracy", "--deployment", str(dep))
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "head_id,m,method,d_a,distortion,std_err,samples"
        assert len(rows) == 26

    def test_monte_carlo_json(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--seed", "3", "--grid-rows", "2",
                "--grid-cols", "2", "--normals", "8", "--out", str(dep))
        code, out, _ = run_cli(capsys, "accuracy", "--deployment", str(dep),
                               "--method", "monte_carlo", "--samples", "2000",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 4
        assert all(r["mc_samples"] == 2000 for r in payload["reports"])


class TestExperiment:
    def test_setup1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "setup1")
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "head,members,d_a"
        assert len(body) == 26

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "experiment", "fig5", "--out", str(a))
        run_cli(capsys, "experiment", "fig5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "setup1",
                               "--seed", "42", "--theta1", "200")
        assert code == 0
        assert "seed=42" in out and "theta1=200" in out

    def test_runs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "setup2", "--runs", "3")
        assert code == 0
        assert "runs=3" in out


class TestConfigFile:
    def test_file_supplies_flags(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 42\ntheta1 = 200  # wide kernel\n")
        code, out, _ = run_cli(capsys, "experiment", "setup1",
                               "--config", str(conf))
        assert code == 0
        assert "seed=42" in out and "theta1=200" in out

    def test_explicit_flag_wins(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 42\n")
        code, out, _ = run_cli(capsys, "experiment", "setup1",
                               "--config", str(conf), "--seed", "9")
        assert code == 0
        assert "seed=9" in out

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("method = monte_carlo\nsampels = 500\n")
        code, out, err = run_cli(capsys, "accuracy", "--config", str(conf))
        assert code == 2
        assert out == ""
        assert err.startswith("corrsense: error:") and "sampels" in err

    def test_removed_workers_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("workers = 3\n")
        code, _, err = run_cli(capsys, "experiment", "setup1",
                               "--config", str(conf))
        assert code == 2
        assert err.startswith("corrsense: error:") and "workers" in err

    def test_malformed_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed 42\n")
        code, _, err = run_cli(capsys, "experiment", "setup1",
                               "--config", str(conf))
        assert code != 0
        assert "error" in err


class TestFailures:
    def test_missing_deployment_file(self, capsys):
        code, _, err = run_cli(capsys, "cluster", "--deployment", "/nope.txt")
        assert code != 0
        assert err.startswith("corrsense: error:")

    def test_repeated_node_id(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        dep.write_text("field,10,10\nCH,1,2,2\nCH,1,8,8\nN,1,1,1\nN,1,9,9\n")
        code, out, err = run_cli(capsys, "cluster", "--deployment", str(dep))
        assert code == 2
        assert out == ""
        assert "head id 1 appears more than once" in err

    @pytest.mark.parametrize("record", ["CH,1,2", "CH,1,2,3,4"])
    def test_wrong_record_length(self, tmp_path, capsys, record):
        dep = tmp_path / "dep.txt"
        dep.write_text(f"field,10,10\n{record}\nN,1,1,1\n")
        code, out, err = run_cli(capsys, "cluster", "--deployment", str(dep))
        assert code == 2
        assert out == ""
        assert err.startswith("corrsense: error:")
        assert repr(record) in err

    def test_invalid_theta(self, capsys):
        code, _, err = run_cli(capsys, "accuracy", "--theta1", "-5")
        assert code != 0
        assert "theta1" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def exit_code(capsys, *argv):
    """Exit code of main, counting argparse's usage errors (SystemExit)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNoIgnoredOptions:
    @pytest.mark.parametrize("argv", [
        ("deploy", "--format", "json"),
        ("deploy", "--theta1", "-5"),
        ("deploy", "--noise-profile", "noiseless"),
        ("cluster", "--noise-profile", "noiseless"),
        ("cluster", "--theta1", "50"),
        ("accuracy", "--runs", "5"),
        ("accuracy", "--epsilon", "0.1"),
        ("accuracy", "--samples", "500"),  # the closed form draws none
        ("experiment", "setup1", "--runs", "5"),
        ("experiment", "fig6", "--runs", "-4"),
        ("experiment", "fig6", "--runs", "4"),
        ("experiment", "fig5", "--seed", "3"),
        ("experiment", "fig5", "--theta1", "70"),  # sweeps use theta1_values
        ("experiment", "fig8", "--width", "50"),
        ("experiment", "setup2", "--epsilon", "0.1"),
        ("experiment", "setup1", "--samples", "500"),
        ("experiment", "setup1", "--deployment", "dep.txt"),
    ])
    def test_flag_the_command_ignores_exits_2(self, capsys, argv):
        code, out, err = exit_code(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "corrsense: error:" in err or ("usage:" in err and "error:" in err)

    @pytest.mark.parametrize("flags", [
        ("--width", "50"), ("--grid-rows", "2"), ("--normals", "3")])
    @pytest.mark.parametrize("command", ["cluster", "accuracy"])
    def test_field_flags_with_deployment_file_exit_2(self, tmp_path, capsys,
                                                      command, flags):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--out", str(dep))
        code, out, err = exit_code(capsys, command, "--deployment", str(dep),
                                   *flags)
        assert code == 2 and out == ""
        assert err.startswith("corrsense: error:") and flags[0] in err

    def test_seed_used_by_monte_carlo_on_deployment_file(self, tmp_path,
                                                         capsys):
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", "--grid-rows", "1", "--grid-cols", "1",
                "--normals", "4", "--out", str(dep))
        argv = ("accuracy", "--deployment", str(dep), "--method",
                "monte_carlo", "--samples", "200")
        code, first, _ = run_cli(capsys, *argv, "--seed", "1")
        assert code == 0
        assert run_cli(capsys, *argv, "--seed", "2")[1] != first
        assert run_cli(capsys, "accuracy", "--deployment", str(dep),
                       "--seed", "1")[0] == 2

    @pytest.mark.parametrize("command,line", [
        ("experiment", "samples = 5"),
        ("experiment", "method = monte_carlo"),
        ("deploy", "theta1 = 50"),
        ("deploy", "format = json"),
        ("cluster", "noise_profile = noiseless"),
        ("accuracy", "runs = 5"),
    ])
    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys,
                                                       command, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        argv = [command] + (["setup1"] if command == "experiment" else [])
        code, out, err = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 2 and out == ""
        assert err.startswith("corrsense: error:")
        assert line.split(" =")[0] in err

    def test_config_value_outside_choices_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("format = xml\n")
        code, _, err = run_cli(capsys, "cluster", "--config", str(conf))
        assert code == 2 and "xml" in err

    @pytest.mark.parametrize("argv", [
        ("experiment", "setup2", "--runs", "0"),
        ("experiment", "optimal", "--epsilon", "0"),
        ("experiment", "setup1", "--width", "inf"),
        ("experiment", "setup1", "--grid-rows", "0"),
        ("experiment", "setup1", "--normals", "-1"),
    ])
    def test_invalid_experiment_setting_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("corrsense: error:")


class TestFieldOptions:
    FIELD = {"seed": "5", "width": "60", "height": "40", "grid_rows": "2",
             "grid_cols": "3", "normals": "30"}

    @pytest.mark.parametrize("command", ["cluster", "accuracy"])
    def test_field_flags_equal_config_file(self, tmp_path, capsys, command):
        conf = tmp_path / "field.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in self.FIELD.items()))
        flags = [a for k, v in self.FIELD.items()
                 for a in (f"--{k.replace('_', '-')}", v)]
        code, by_flags, _ = run_cli(capsys, command, *flags)
        assert code == 0
        code, by_file, _ = run_cli(capsys, command, "--config", str(conf))
        assert code == 0
        assert by_flags == by_file
        dep = tmp_path / "dep.txt"
        run_cli(capsys, "deploy", *flags, "--out", str(dep))
        assert run_cli(capsys, command, "--deployment", str(dep))[1] == by_flags
        assert len(by_flags.splitlines()) == 1 + 6


class TestRegistry:
    def test_experiment_choices_are_the_registry(self):
        import argparse

        from corrsense.cli import build_parser
        from corrsense.experiments import EXPERIMENTS
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        name = next(a for a in sub.choices["experiment"]._actions
                    if a.dest == "name")
        assert tuple(name.choices) == tuple(EXPERIMENTS)

    def test_experiment_options_reach_the_config(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "setup1", "--width", "60",
                               "--height", "30", "--grid-rows", "2",
                               "--grid-cols", "2", "--normals", "10",
                               "--tau", "0.5", "--noise-profile", "noiseless")
        assert code == 0
        assert "# field=60x30 grid=2x2 normals=10" in out
        assert " tau=0.5\n" in out and "# noise=noiseless " in out
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 4
