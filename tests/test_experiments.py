import json
import re
import runpy
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from corrsense import (CorrelationParams, ExperimentConfig, NoPlateauError,
                       SweepInvariantError, SweepPoint, SweepResult,
                       circle_cluster, closed_form_accuracy, default_config,
                       find_optimal_cluster, grid_cluster,
                       run_experiment_csv, run_experiment_json, run_fig5,
                       run_fig6, run_fig8, run_fig9, run_optimal, run_setup1,
                       run_setup2)
from corrsense import (FieldSpec, InvalidConfigError, SimulationError,
                       accuracy_for_assignment, assign_clusters,
                       build_grid_deployment)
from corrsense.experiments import (_TAG_RUN, EXPERIMENTS, AverageRow,
                                   ClusterTableRow, _child_seed,
                                   region_grid_order)


def cfg(experiment, **overrides):
    return replace(default_config(experiment), **overrides)


class TestSetup1:
    def test_table_shape_and_partition(self):
        rows = run_setup1(default_config("setup1"))
        assert len(rows) == 25
        assert [r.head_id for r in rows] == list(range(1, 26))
        members = [i for r in rows for i in r.members]
        assert sorted(members) == list(range(1, 101))

    def test_accuracy_band(self):
        rows = run_setup1(default_config("setup1"))
        assert all(0.6 < r.d_a < 0.95 for r in rows)

    def test_byte_identical_csv(self):
        config = default_config("setup1")
        assert run_experiment_csv(config) == run_experiment_csv(config)

    def test_csv_echoes_parameters(self):
        text = run_experiment_csv(default_config("setup1"))
        head = [l for l in text.splitlines() if l.startswith("#")]
        assert any("corrsense 0.1.0" in l for l in head)
        assert any("seed=7" in l for l in head)
        assert any("theta1=100" in l for l in head)
        assert any("noise=default" in l for l in head)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "head,members,d_a"
        assert len(body) == 26


class TestSetup2:
    def test_single_run_equals_setup1(self):
        ones = run_setup2(cfg("setup2", runs=1))
        base = {r.head_id: r.d_a for r in run_setup1(default_config("setup1"))}
        for row in ones:
            assert row.avg_d_a == base[row.head_id]

    def test_average_band(self):
        rows = run_setup2(cfg("setup2", runs=25))
        assert len(rows) == 25
        assert all(0.6 < r.avg_d_a < 1.0 for r in rows)

    def test_reproducible(self):
        config = cfg("setup2", runs=10)
        a = run_setup2(config)
        b = run_setup2(config)
        assert all(x.avg_d_a == y.avg_d_a for x, y in zip(a, b))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_setup2(cfg("setup2", runs=0))


def per_run_scoring(config, run):
    """One setup run scored cluster by cluster through accuracy_for_assignment."""
    dep = build_grid_deployment(
        FieldSpec(config.field_width, config.field_height), config.grid_rows,
        config.grid_cols, config.n_normals,
        seed=_child_seed(config.seed, _TAG_RUN, run))
    assignment = assign_clusters(dep)
    return assignment, accuracy_for_assignment(
        assignment, dep, dep.tracing_points, config.betas(), config.params)


class TestSetupScoring:
    """Size-grouped setup scoring against per-run scoring, bit for bit."""

    @given(seed=st.integers(0, 2 ** 32 - 1), runs=st.integers(1, 4),
           rows=st.integers(1, 3), cols=st.integers(1, 4),
           normals=st.integers(0, 40),
           profile=st.sampled_from(["default", "noiseless"]))
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_per_run_scoring(self, seed, runs, rows, cols, normals,
                                        profile):
        config = cfg("setup2", seed=seed, runs=runs, grid_rows=rows,
                     grid_cols=cols, n_normals=normals, noise_profile=profile)
        scored = [per_run_scoring(config, run) for run in range(runs)]
        assignment, reports = scored[0]
        members = {c.head_id: c.members for c in assignment.clusters}
        assert run_setup1(replace(config, experiment="setup1")) == [
            ClusterTableRow(r.head_id, members[r.head_id], r.d_a)
            for r in reports]
        totals = {}
        for _, reports in scored:
            for r in reports:
                totals[r.head_id] = totals.get(r.head_id, 0.0) + r.d_a
        assert run_setup2(config) == [AverageRow(h, totals[h] / runs)
                                      for h in sorted(totals)]

    def test_memory_does_not_grow_with_runs(self):
        # one cluster of m = 100 per run: a block holds 3 of them
        config = cfg("setup2", grid_rows=1, grid_cols=1, n_normals=99)

        def peak(runs):
            tracemalloc.start()
            try:
                run_setup2(replace(config, runs=runs))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # warm-up
        small, large = peak(100), peak(1000)
        assert large <= 1.25 * small, (small, large)


class TestFig5:
    def test_strictly_decreasing_and_theta_ordered(self):
        results = run_fig5(default_config("fig5"))
        assert {r.theta1 for r in results} == {50.0, 100.0}
        for r in results:
            das = [p.d_a for p in r.points]
            assert all(a > b for a, b in zip(das, das[1:]))
        by_theta = {r.theta1: [p.d_a for p in r.points] for r in results}
        assert all(h >= l for l, h in zip(by_theta[50.0], by_theta[100.0]))

    def test_tiny_radius_noiseless_reaches_one(self):
        results = run_fig5(cfg("fig5", noise_profile="noiseless",
                               radius_values=(1e-6, 1.0, 2.0)))
        for r in results:
            assert r.points[0].d_a == approx(1.0, abs=1e-6)

    def test_fixed_cluster_size(self):
        results = run_fig5(default_config("fig5"))
        assert all(p.m == 4 for r in results for p in r.points)


class TestFig6:
    def test_jump_and_plateau(self):
        results = run_fig6(default_config("fig6"))
        assert {r.theta1 for r in results} == {50.0, 100.0, 200.0, 400.0}
        for r in results:
            by_m = {p.m: p.d_a for p in r.points}
            assert by_m[3] > by_m[2]
            plateau = [p.d_a for p in r.points if p.m >= 8]
            gaps = [abs(b - a) for a, b in zip(plateau, plateau[1:])]
            assert max(gaps) < 0.005

    def test_theta_ordering(self):
        results = sorted(run_fig6(default_config("fig6")), key=lambda r: r.theta1)
        for low, high in zip(results, results[1:]):
            for a, b in zip(low.points, high.points):
                assert b.d_a >= a.d_a


class TestFig8:
    def test_growth_order(self):
        order = region_grid_order()
        assert len(order) == 48
        assert (15.0, 15.0) not in order
        assert set(order[:4]) == {(0.0, 0.0), (0.0, 30.0), (30.0, 0.0),
                                  (30.0, 30.0)}
        g = grid_cluster(4)
        assert g.m == 4
        assert g.joint_distances()[0, -1] == approx(15 * np.sqrt(2))

    def test_anchor_values_default_noise(self):
        results = run_fig8(default_config("fig8"))
        first = {r.theta1: r.points[0] for r in results}
        assert first[50.0].m == 4
        assert first[50.0].d_a == approx(0.6333, abs=0.05)
        assert first[400.0].d_a == approx(0.911, abs=0.05)
        assert first[400.0].d_a > first[50.0].d_a

    def test_anchor_values_noiseless(self):
        results = run_fig8(cfg("fig8", noise_profile="noiseless"))
        first = {r.theta1: r.points[0] for r in results}
        assert first[50.0].d_a == approx(0.677, abs=1e-3)
        assert first[400.0].d_a == approx(0.958, abs=1e-3)

    def test_density_sweep_shape(self):
        results = run_fig8(default_config("fig8"))
        for r in results:
            ms = [p.m for p in r.points]
            assert ms == list(range(4, 49, 4))
            assert r.points[0].value == approx(4 / 900)
            assert r.points[-1].value == approx(48 / 900)

    def test_monotone_growth(self):
        for r in run_fig8(default_config("fig8")):
            das = [p.d_a for p in r.points]
            assert all(b > a for a, b in zip(das, das[1:]))

    def test_plateau_no_overshoot_at_theta_400(self):
        results = run_fig8(default_config("fig8"))
        curve = next(r for r in results if r.theta1 == 400.0)
        by_m = {p.m: p.d_a for p in curve.points}
        assert by_m[20] - by_m[48] < 0.01


class TestFig9:
    def test_plateau_and_errorbars(self):
        results = run_fig9(cfg("fig9", theta1_values=(400.0,)))
        (curve,) = results
        assert all(p.std_err is not None and p.std_err >= 0 for p in curve.points)
        final = curve.points[-1].d_a
        for p in curve.points:
            if p.m >= 15:
                assert abs(p.d_a - final) < 0.01

    def test_theta_saturation(self):
        results = sorted(run_fig9(cfg("fig9", runs=20,
                                      theta1_values=(50.0, 100.0, 200.0))),
                         key=lambda r: r.theta1)
        for low, high in zip(results, results[1:]):
            for a, b in zip(low.points, high.points):
                assert b.d_a >= a.d_a

    def test_byte_identical_csv(self):
        config = cfg("fig9", runs=10, theta1_values=(100.0,),
                     m_values=(2, 4, 8, 12, 16, 20))
        assert run_experiment_csv(config) == run_experiment_csv(config)


class TestFindOptimal:
    def sweep(self, das, ms=None):
        ms = ms or list(range(2, 2 + len(das)))
        points = tuple(SweepPoint(m=m, value=float(m), d_a=d)
                       for m, d in zip(ms, das))
        return SweepResult("fig6", "m", 100.0, points)

    def test_constant_sweep_returns_first(self):
        assert find_optimal_cluster(self.sweep([0.9, 0.9, 0.9, 0.9]), 0.01) == 2

    def test_growing_sweep_without_plateau(self):
        with pytest.raises(NoPlateauError):
            find_optimal_cluster(self.sweep([0.1, 0.3, 0.5, 0.7]), 0.01)

    def test_needs_three_points(self):
        with pytest.raises(NoPlateauError):
            find_optimal_cluster(self.sweep([0.5, 0.5]), 0.01)

    def test_picks_plateau_onset(self):
        sweep = self.sweep([0.50, 0.80, 0.895, 0.90, 0.901])
        assert find_optimal_cluster(sweep, 0.01) == 4

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            find_optimal_cluster(self.sweep([0.9, 0.9, 0.9]), 0.0)

    def test_fig9_optimal_in_expected_band(self):
        (curve,) = run_fig9(cfg("fig9", theta1_values=(400.0,)))
        assert 10 <= find_optimal_cluster(curve, 0.01) <= 20

    def test_run_optimal_rows(self):
        rows = run_optimal(cfg("optimal", runs=25))
        assert {r.experiment for r in rows} == {"fig8", "fig9"}
        for row in rows:
            assert row.theta1 == 400.0
            assert row.optimal_m >= 2


class TestInvariantEnforcement:
    def test_violation_raises(self):
        from corrsense.experiments import _assert_fig5
        bad = SweepResult("fig5", "radius", 50.0, (
            SweepPoint(4, 1.0, 0.5), SweepPoint(4, 2.0, 0.6)))
        with pytest.raises(SweepInvariantError):
            _assert_fig5([bad])

    @pytest.mark.parametrize("runner, config", [
        (run_fig6, cfg("fig6", m_values=(4, 3))),
        (run_fig9, cfg("fig9", m_values=(4, 3), runs=3))])
    def test_every_sweep_checks_its_values_increase(self, runner, config):
        with pytest.raises(SweepInvariantError, match="not strictly increasing"):
            runner(config)


class TestSweepDriver:
    """The batched sweep driver against one closed_form_accuracy call per
    point and theta1, on the same circle_cluster or grid_cluster."""

    @pytest.mark.parametrize("runner, experiment, noise_profile, geometry", [
        (run_fig5, "fig5", "default", lambda p: circle_cluster(4, p.value)),
        (run_fig5, "fig5", "noiseless", lambda p: circle_cluster(4, p.value)),
        (run_fig8, "fig8", "default", lambda p: grid_cluster(p.m)),
        (run_fig8, "fig8", "noiseless", lambda p: grid_cluster(p.m)),
        (run_fig6, "fig6", "default", lambda p: circle_cluster(p.m, 5.0)),
    ])
    def test_equals_per_point_closed_form_bit_for_bit(
            self, runner, experiment, noise_profile, geometry):
        config = cfg(experiment, noise_profile=noise_profile)
        results = runner(config)
        assert [r.theta1 for r in results] == list(config.theta1_values)
        for r in results:
            params = replace(config.params, theta1=r.theta1)
            expected = [closed_form_accuracy(geometry(p), config.betas(),
                                             params).d_a for p in r.points]
            assert [p.d_a for p in r.points] == expected


class TestSerializationFormats:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            default_config("fig7")
        with pytest.raises(ValueError):
            run_experiment_csv(ExperimentConfig(experiment="bogus"))

    def test_json_payload(self):
        payload = json.loads(run_experiment_json(default_config("setup1")))
        assert payload["config"]["experiment"] == "setup1"
        assert payload["config"]["kernel"] == "power_exponential"
        assert len(payload["rows"]) == 25
        assert all("members" in row for row in payload["rows"])

    def test_sweep_csv_columns(self):
        text = run_experiment_csv(cfg("fig9", runs=5, theta1_values=(100.0,),
                                      m_values=(2, 4, 8)))
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "theta1,m,d_a,std_err"

    def test_fig5_csv_columns(self):
        text = run_experiment_csv(default_config("fig5"))
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "theta1,m,radius,d_a"
        assert len(body) == 1 + 2 * 10


def as_written(value, cell):
    """A JSON value in the format its CSV cell uses."""
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.6f}" if re.fullmatch(r"-?\d+\.\d{6}", cell) else f"{value:g}"


# CSV columns whose JSON field has another name
JSON_FIELD = {"head": "head_id", "radius": "value", "density": "value"}


class TestJsonRowsAreCsvRows:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_same_rows_and_values(self, name):
        config = default_config(name)
        body = [l.split(",") for l in run_experiment_csv(config).splitlines()
                if not l.startswith("#")]
        header, lines = body[0], body[1:]
        rows = json.loads(run_experiment_json(config))["rows"]
        if "points" in rows[0]:  # a sweep: one CSV line per point
            rows = [dict(p, theta1=r["theta1"])
                    for r in sorted(rows, key=lambda r: r["theta1"])
                    for p in r["points"]]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert len(line) == len(header)
            for column, cell in zip(header, line):
                expected = as_written(row[JSON_FIELD.get(column, column)], cell)
                if column == "head":
                    expected = "CH" + expected
                assert cell == expected, (column, row)


class TestConfigValidation:
    @pytest.mark.parametrize("experiment,overrides", [
        ("setup2", dict(runs=0)),
        ("fig9", dict(runs=-4)),
        ("optimal", dict(epsilon=0.0)),
        ("optimal", dict(epsilon=float("nan"))),
        ("setup1", dict(field_width=float("inf"))),
        ("setup1", dict(field_height=-1.0)),
        ("setup1", dict(grid_rows=0)),
        ("setup1", dict(grid_cols=-2)),
        ("setup1", dict(n_normals=-1)),
        ("setup1", dict(noise_profile="loud")),
        ("fig6", dict(theta1_values=(50.0, 0.0))),
        ("fig5", dict(radius_values=(1.0, -1.0))),
        ("fig5", dict(radius_values=(float("inf"),))),
        ("fig9", dict(m_values=(0, 2))),
        ("fig5", dict(radius_values=(1e300,))),
    ])
    def test_rejects_out_of_range_setting(self, experiment, overrides):
        with pytest.raises(InvalidConfigError) as exc:
            cfg(experiment, **overrides)
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, SimulationError)
        assert experiment in str(exc.value)

    def test_defaults_are_valid(self):
        for name in EXPERIMENTS:
            assert default_config(name).experiment == name


class TestRegistry:
    def test_reads_name_real_settings(self):
        settings = {f.name for f in fields(ExperimentConfig)} - {"params"}
        settings |= {"theta1", "theta2", "tau"}
        for experiment in EXPERIMENTS.values():
            assert set(experiment.reads) <= settings
            assert set(experiment.defaults) <= settings

    def test_unknown_name_fails_the_same_everywhere(self):
        messages = set()
        for call in (lambda: default_config("fig7"),
                     lambda: run_experiment_csv(ExperimentConfig("fig7")),
                     lambda: run_experiment_json(ExperimentConfig("fig7"))):
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert len(messages) == 1 and "setup1" in messages.pop()


def header_pairs(csv_text):
    """key=value pairs of a CSV's provenance comment lines, with the version."""
    lines = [l[2:] for l in csv_text.splitlines() if l.startswith("# ")]
    pairs = {"version": lines[0].split()[1]}
    for line in lines[:5]:
        pairs.update(tok.split("=", 1) for tok in line.split() if "=" in tok)
    for line in lines[5:]:
        key = line.split("=", 1)[0]
        if key in ("theta1_values", "radius_values", "m_values"):
            pairs[key] = line.split("=", 1)[1]
    return pairs


class TestProvenance:
    @pytest.mark.parametrize("name", ["setup1", "setup2", "fig5", "fig6",
                                      "fig8", "fig9", "optimal"])
    def test_json_config_carries_the_csv_header(self, name):
        config = default_config(name)
        if name == "setup2":
            config = cfg(name, runs=4)
        pairs = header_pairs(run_experiment_csv(config))
        c = json.loads(run_experiment_json(config))["config"]
        width, height = pairs.pop("field").split("x")
        rows, cols = pairs.pop("grid").split("x")
        assert (float(width), float(height)) == (c["field_width"],
                                                 c["field_height"])
        assert (int(rows), int(cols)) == (c["grid_rows"], c["grid_cols"])
        assert (pairs.pop("log"), c["log_base"]) == ("natural", "e")
        assert pairs.pop("noise") == c["noise_profile"]
        for key in ("theta1_values", "radius_values", "m_values"):
            text = pairs.pop(key, "")
            assert [float(v) for v in text.split(",") if v] == c[key]
        renamed = {"normals": "n_normals"}
        for key, text in pairs.items():
            value = c["noise"][key] if key in c["noise"] else c[renamed.get(key, key)]
            if isinstance(value, str):
                assert text == value, key
            else:
                assert float(text) == approx(value, rel=1e-5, abs=1e-6), key


class TestRunExperimentsScript:
    def test_seed_only_where_the_experiment_reads_one(self, tmp_path,
                                                      monkeypatch):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path),
                                          "--seed", "3"])
        assert runpy.run_path(str(script))["main"]() == 0
        seeds = {name: header_pairs((tmp_path / f"{name}.csv").read_text())["seed"]
                 for name in EXPERIMENTS}
        assert seeds == {"setup1": "3", "setup2": "3", "fig5": "7", "fig6": "7",
                         "fig8": "7", "fig9": "3", "optimal": "3"}
