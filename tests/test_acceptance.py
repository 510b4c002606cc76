"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each test pins its tolerance and, where stated, its runtime
budget; together they certify the estimator core, the experiment drivers,
and end-to-end determinism.
"""

import math
import time

import numpy as np
from pytest import approx

from corrsense import (CorrelationParams, NoiseModel, Position, assign_clusters,
                       assignment_to_csv, beta_factors, build_grid_deployment,
                       closed_form_accuracy, default_config, empirical_correlation,
                       find_optimal_cluster, FieldSpec, geometry_from_points,
                       kernel, max_cluster_radius, monte_carlo_accuracy,
                       run_experiment_csv, run_fig5, run_fig6, run_fig8,
                       run_fig9, run_setup1, run_setup2)

MC_SAMPLES = 100_000


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_601)
    agreements = 0
    for i in range(20):
        m = int(rng.integers(1, 11))
        pts = rng.uniform(0.0, 30.0, size=(m, 2))
        tracing = Position(*rng.uniform(0.0, 30.0, size=2))
        geo = geometry_from_points(tracing, Position(*pts[-1]),
                                   [Position(*p) for p in pts[:-1]])
        params = CorrelationParams(float(rng.choice([50.0, 100.0, 400.0])),
                                   float(rng.choice([0.5, 1.0, 2.0])), 0.6)
        beta = float(rng.choice([0.7, 0.85, 1.0]))
        noise = NoiseModel.from_betas(beta, beta)
        betas = beta_factors(noise)
        cf = closed_form_accuracy(geo, betas, params)
        mc = monte_carlo_accuracy(geo, betas, noise, params,
                                  samples=MC_SAMPLES, seed=1000 + i)
        if abs(cf.d_a - mc.d_a) <= 3.0 * mc.mc_std_error:
            agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements >= 19, f"only {agreements}/20 within 3 standard errors"
    assert elapsed <= 60.0, f"took {elapsed:.1f} s"
    _report(1, "oracle equivalence 19/20 within 3 SE")


def test_criterion_02_perfect_estimation_anchor():
    geo = geometry_from_points(Position(7, 11), Position(7, 11), [])
    noise = NoiseModel.noiseless()
    betas = beta_factors(noise)
    params = CorrelationParams(50.0, 1.0, 0.6)
    cf = closed_form_accuracy(geo, betas, params)
    mc = monte_carlo_accuracy(geo, betas, noise, params,
                              samples=MC_SAMPLES, seed=2)
    assert cf.d_a == 1.0 and cf.distortion == 0.0
    assert mc.d_a == 1.0 and mc.distortion == 0.0
    assert mc.mc_std_error == 0.0
    _report(2, "m=1 head-on-tracing-point gives d_a = 1.0 exactly")


def test_criterion_03_grid_corner_anchors():
    start = time.perf_counter()
    corners = geometry_from_points(
        Position(15, 15), Position(0, 0),
        [Position(30, 0), Position(0, 30), Position(30, 30)])
    p50 = CorrelationParams(50.0, 1.0, 0.6)
    p400 = CorrelationParams(400.0, 1.0, 0.6)
    clean = beta_factors(NoiseModel.noiseless())
    noisy = beta_factors(NoiseModel.default_profile())
    assert closed_form_accuracy(corners, clean, p50).d_a == approx(0.677, abs=1e-3)
    assert closed_form_accuracy(corners, clean, p400).d_a == approx(0.958, abs=1e-3)
    assert closed_form_accuracy(corners, noisy, p50).d_a == approx(0.6333, abs=0.05)
    assert closed_form_accuracy(corners, noisy, p400).d_a == approx(0.911, abs=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(3, "grid-corner anchors 0.677/0.958 noiseless, 0.6333/0.911 bands")


def test_criterion_04_plateau_and_optimal_cluster():
    from dataclasses import replace

    start = time.perf_counter()
    config = replace(default_config("fig9"), theta1_values=(400.0,))
    (curve,) = run_fig9(config)
    by_m = {p.m: p.d_a for p in curve.points}
    final_m = curve.points[-1].m
    assert abs(by_m[20] - by_m[final_m]) < 0.01, \
        f"m=20 gap {abs(by_m[20] - by_m[final_m]):.4f}"
    optimal = find_optimal_cluster(curve, epsilon=0.01)
    assert 10 <= optimal <= 20, f"optimal m = {optimal}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report(4, f"theta1=400 plateau, optimal m = {optimal} in [10, 20]")


def test_criterion_05_radius_monotonicity():
    results = run_fig5(default_config("fig5"))
    by_theta = {r.theta1: [p.d_a for p in r.points] for r in results}
    for theta1, das in by_theta.items():
        assert all(a > b for a, b in zip(das, das[1:])), \
            f"not strictly decreasing at theta1={theta1}"
    assert all(h >= l for l, h in zip(by_theta[50.0], by_theta[100.0]))
    _report(5, "circular sweep strictly decreasing, theta1=100 dominates")


def test_criterion_06_node_count_jump_and_plateau():
    results = run_fig6(default_config("fig6"))
    assert {r.theta1 for r in results} == {50.0, 100.0, 200.0, 400.0}
    for r in results:
        by_m = {p.m: p.d_a for p in r.points}
        assert by_m[3] - by_m[2] > 0, f"no jump at theta1={r.theta1}"
        plateau = [p.d_a for p in r.points if p.m >= 8]
        gaps = [abs(b - a) for a, b in zip(plateau, plateau[1:])]
        assert max(gaps) < 0.005, f"plateau gap {max(gaps):.4f} at {r.theta1}"
    _report(6, "2-to-3 node jump positive, plateau gaps < 0.005 from m=8")


def test_criterion_07_clustering_invariants():
    dep = build_grid_deployment(FieldSpec(120, 120), 5, 5, 100, seed=7)
    assignment = assign_clusters(dep)
    members = [i for c in assignment.clusters for i in c.members]
    assert len(members) == 100 and len(set(members)) == 100
    for cluster in assignment.clusters:
        head = dep.head_by_id(cluster.head_id)
        for nid in cluster.members:
            node = dep.normal_by_id(nid)
            d_own = node.position.distance_to(head.position)
            for other in dep.heads:
                assert d_own <= node.position.distance_to(other.position)
    again = assign_clusters(build_grid_deployment(FieldSpec(120, 120), 5, 5,
                                                  100, seed=7))
    assert assignment_to_csv(assignment) == assignment_to_csv(again)
    _report(7, "partition of 100 nodes, nearest-head verified, byte-stable")


def test_criterion_08_table_ranges():
    rows = run_setup1(default_config("setup1"))
    assert len(rows) == 25
    assert all(0.6 < r.d_a < 0.95 for r in rows), \
        f"range [{min(r.d_a for r in rows):.4f}, {max(r.d_a for r in rows):.4f}]"
    averages = run_setup2(default_config("setup2"))
    assert len(averages) == 25
    assert all(0.6 < r.avg_d_a < 1.0 for r in averages)
    _report(8, "setup1 in (0.6, 0.95), setup2 averages in (0.6, 1.0)")


def test_criterion_09_kernel_and_pearson_identities():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        params = CorrelationParams(float(rng.uniform(1.0, 500.0)),
                                   float(rng.uniform(0.25, 2.0)),
                                   float(rng.uniform(0.01, 0.99)))
        r = max_cluster_radius(params)
        assert abs(kernel(r, params) - params.tau) <= 1e-9 * params.tau
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        a = rng.normal(0.0, 10.0, n)
        b = rng.normal(0.0, 10.0, n)
        fwd = empirical_correlation(a, b).pearson
        assert fwd == empirical_correlation(b, a).pearson
        assert abs(fwd) <= 1.0 + 1e-12
        alpha = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(-50.0, 50.0))
        assert empirical_correlation(a, alpha * b + c).pearson == \
            approx(fwd, abs=1e-9)
    _report(9, "kernel(r_max)=tau and Pearson identities over 1000 draws")


def test_criterion_10_experiment_determinism():
    for name in ("setup1", "setup2", "fig5", "fig6", "fig8", "fig9", "optimal"):
        config = default_config(name)
        assert run_experiment_csv(config) == run_experiment_csv(config), \
            f"{name} not byte-identical"
    _report(10, "all seven experiments byte-identical on rerun")
