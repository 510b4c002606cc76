"""Tests of the benchmark itself: its checks, its tracer and its memory guard.

    python3 perfbench/run.py --self-test

Each test_* function raises AssertionError on failure; pytest can also
collect this file directly.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import import_corrsense  # noqa: E402

import_corrsense()

import numpy as np  # noqa: E402

import corrsense.accuracy as A  # noqa: E402
import corrsense.clustering as C  # noqa: E402
import corrsense.deployment as D  # noqa: E402
import corrsense.spatial_stats as S  # noqa: E402
import workloads  # noqa: E402
from checks import (REFERENCE_DIR, check_mc_estimate, check_reference,  # noqa: E402
                    compare_lines, oracle_d_a)
from spans import Tracer, self_times  # noqa: E402


def _corruptions(text: str):
    """Every copy of `text` with exactly one byte changed."""
    for i, ch in enumerate(text):
        yield text[:i] + ("7" if ch != "7" else "3") + text[i + 1:]


def test_self_times_of_nested_spans():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3]; E [11, 12] is a root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    assert np.allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])


def test_tracer_self_times_add_up_and_wrappers_are_restored():
    original = S.kernel
    tracer = Tracer()
    tracer.install()
    try:
        assert A.kernel is not original and C.kernel is A.kernel and S.kernel is A.kernel
        dep = D.build_grid_deployment(D.FieldSpec(120.0, 120.0), 5, 5, 100, seed=3)
        reports = A.accuracy_for_assignment(
            C.assign_clusters(dep), dep, dep.tracing_points,
            A.beta_factors(A.NoiseModel.default_profile()), S.CorrelationParams(100.0, 1.0, 0.6))
    finally:
        tracer.restore()
    assert A.kernel is original and C.kernel is original and S.kernel is original
    layers = tracer.layer_metrics(passes=1)
    assert layers["clustering.cluster_geometry.calls"] == len(reports) == 25
    assert layers["spatial_stats.kernel.calls"] == 4 * 25
    assert layers["clustering.normals_assigned"] == 100
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert np.isclose(tracer.accounted_s(), float((a["end"] - a["start"])[roots].sum()))


def test_reference_check_flags_every_corrupted_byte():
    text = (REFERENCE_DIR / "fig5.csv").read_text()
    assert check_reference("fig5.csv", text) == []
    assert all(check_reference("fig5.csv", bad) for bad in _corruptions(text))


def test_field_checker_flags_every_corrupted_byte():
    class SmallField(workloads.Field):
        FIELD = D.FieldSpec(120.0, 120.0)
        ROWS = COLS = 5
        NORMALS = 100

    field = SmallField(1, HERE)
    outputs = field.run_pass(11)
    assert field.check(11, outputs) == [[]] * field.ops_per_pass
    rows = field.report_rows(workloads._oracle_clusters(outputs[2]))
    csv = outputs[5]
    assert compare_lines("csv", csv, rows) == []
    assert all(compare_lines("csv", bad, rows) for bad in _corruptions(csv))


def test_paper_checker_flags_every_corrupted_byte_at_another_seed():
    paper = workloads.Paper(1, HERE)
    config = paper.configs[0]  # setup1
    text = workloads.E.run_experiment_csv(replace(config, seed=12345))
    expected = paper.expected(12345)["setup1"]
    assert compare_lines("setup1", text, expected) == []
    assert all(compare_lines("setup1", bad, expected) for bad in _corruptions(text))


def test_mc_check_flags_an_estimate_five_standard_errors_off():
    exact, se = 0.8, 2e-4
    assert check_mc_estimate(1, exact + 3.9 * se, se, exact) == []
    assert check_mc_estimate(1, exact - 5.0 * se, se, exact)
    assert check_mc_estimate(1, exact + 5.0 * se, se, exact)


def test_oracle_matches_corrsense_closed_form():
    rng = np.random.default_rng(5)
    betas = A.beta_factors(A.NoiseModel.default_profile())
    for m in (1, 2, 5, 30):
        pts = rng.uniform(0.0, 40.0, size=(m + 1, 2))
        geo = C.geometry_from_points(D.Position(*pts[0]), D.Position(*pts[1]),
                                     [D.Position(*p) for p in pts[2:]])
        for theta1 in (50.0, 400.0):
            exact = A.closed_form_accuracy(geo, betas, S.CorrelationParams(theta1, 1.0, 0.6)).d_a
            got = oracle_d_a([(pts[0], pts[1], pts[2:])], [theta1])[0, 0]
            assert abs(got - exact) < 1e-12


def test_memory_guard_refuses_half_of_memtotal():
    seven_gb = 7 * 2**30
    workloads.guard_mc_size(18, 10**6, seven_gb)
    try:
        workloads.guard_mc_size(16, 10**7, seven_gb)  # about 9 GB
    except workloads.MemoryGuardError:
        pass
    else:
        raise AssertionError("10^7 samples at m=16 was not refused")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
