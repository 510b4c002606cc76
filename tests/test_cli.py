import hashlib
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

    def test_tracing_point_without_head(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        dep.write_text("field,10,10\nCH,1,5,5\nN,1,1,1\nT,1,5,5\nT,99,2,2\n")
        code, out, err = run_cli(capsys, "accuracy", "--deployment", str(dep))
        assert code == 2
        assert out == ""
        assert "tracing point 99 names no head" in err

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

    def test_infinite_theta1_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "accuracy", "--theta1", "inf",
                                 "--grid-rows", "1", "--grid-cols", "1",
                                 "--normals", "3")
        assert code == 2
        assert out == ""
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
        ("accuracy", "--tau", "0.5"),  # no run reads tau
        ("experiment", "setup1", "--tau", "0.5"),
        ("experiment", "fig5", "--tau", "0.3"),
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
        ("accuracy", "tau = 0.5"),
        ("experiment", "tau = 0.5"),
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

    @pytest.mark.parametrize("argv", [  # (argv, the setting its error names)
        (("experiment", "setup2", "--runs", "0"), "runs"),
        (("experiment", "optimal", "--epsilon", "0"), "epsilon"),
        (("experiment", "setup1", "--width", "inf"), "field_width"),
        (("experiment", "setup1", "--grid-rows", "0"), "grid_rows"),
        (("experiment", "setup1", "--normals", "-1"), "n_normals"),
        (("deploy", "--grid-rows", "0"), "grid_rows"),
        (("cluster", "--normals", "-1"), "n_normals"),
        (("accuracy", "--width", "inf"), "field_width"),
        (("accuracy", "--width", "1e200"), "field_width"),  # dx*dx overflows
        (("deploy", "--seed", "-1"), "seed"),
    ])
    def test_invalid_experiment_setting_exits_2(self, capsys, argv):
        argv, setting = argv
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("corrsense: error:") and setting in err


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


# sha256 of each subcommand's output at its defaults; the experiments' JSON
# rows carry full float reprs, so they pin every value bit for bit
DEFAULT_OUTPUT_SHA256 = {
    "deploy": "c4d972f4ace4b42e86b72fef7fe4e02b"
              "59672bcc743407b4904281ffb2fb2153",
    "cluster": "513bd59165040924f139f8e4f5ea9350"
               "a08dedcfa4215d2bc9b0a25887a598f2",
    "cluster --format json": "66080faa42331acbd49837bb759e3c99"
                             "ca5d9d54130894a67aea6d95fc7efc16",
    "accuracy": "a78ee2e90d2d638b78c187192c8d08a3"
                "d80762cc7bf4bc54a1b0f9d19e818943",
    "accuracy --format json": "0b955e79f192a62990404796d6cff2b9"
                              "0f481da6d0a8e250cbd083318a00433b",
    "experiment setup1 --format json": "b1c93187f63b4f1df60d2a5541d40a82"
                                       "3d54f5ee285de0b562670aca1b444906",
    "experiment setup2 --format json": "a1dad57df494af045f1e923f99ab0089"
                                       "21992c6d9b68e9799f96b3cfee93a796",
    "experiment fig5 --format json": "22c82d79ed6c0bf430a611c2089e1f27"
                                     "152e2258ca08c20433d7989aeabb3a3d",
    "experiment fig6 --format json": "4dc1682e044f45870057b80c3388e29e"
                                     "1e8fffbf6990dbd8f198bdb27d50403e",
    "experiment fig8 --format json": "3d4b934f8435c3db1463610412dde1c9"
                                     "ba849d92a9d3472fd1d40aa2745522e2",
    "experiment fig9 --format json": "ef073978d8395d09dde2d73464312cbf"
                                     "74b4e72c621095391b9c7dd5be65463f",
    "experiment optimal --format json": "fc0aa1fb7a363e57acae6a529850681b"
                                        "3f66f0b816467721abea79db2ce2ac04",
}


@pytest.mark.parametrize("command", list(DEFAULT_OUTPUT_SHA256))
def test_default_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == DEFAULT_OUTPUT_SHA256[command])


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
                               "--theta2", "0.5", "--noise-profile", "noiseless")
        assert code == 0
        assert "# field=60x30 grid=2x2 normals=10" in out
        assert " theta2=0.5 " in out and "# noise=noiseless " in out
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 4
