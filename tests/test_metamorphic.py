"""Metamorphic relations of the pipeline.

Each test transforms an input and checks how the output must change, so it
needs no stored answer: reordering the records of a deployment text,
scaling coordinates together with theta1, translating a field, and putting
every node of a noiseless cluster on its tracing point.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsense import (ClusterGeometry, CorrelationParams, Deployment,
                       FieldSpec, Node, NoiseModel, Position, TracingPoint,
                       accuracy_for_assignment, assign_clusters, beta_factors,
                       build_grid_deployment, closed_form_accuracy,
                       deployment_to_text, geometry_from_points,
                       monte_carlo_accuracy)
from corrsense.cli import main

FIELD = FieldSpec(120.0, 120.0)

grid_sides = st.integers(1, 4)
normal_counts = st.integers(0, 40)
seeds = st.integers(0, 2 ** 32 - 1)
theta1s = st.floats(1.0, 500.0)
theta2s = st.sampled_from([0.5, 1.0, 1.5, 2.0])
noises = st.sampled_from([NoiseModel.default_profile(), NoiseModel.noiseless()])


def _accuracy_output(text, fmt):
    """stdout of `corrsense accuracy --deployment` on a deployment text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deployment.txt"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["accuracy", "--deployment", str(path),
                         "--format", fmt]) == 0
    return out.getvalue()


@given(rows=grid_sides, cols=grid_sides, normals=normal_counts, seed=seeds,
       fmt=st.sampled_from(["csv", "json"]), data=st.data())
@settings(max_examples=25, deadline=None)
def test_record_order_leaves_accuracy_output_unchanged(rows, cols, normals,
                                                       seed, fmt, data):
    text = deployment_to_text(build_grid_deployment(FIELD, rows, cols,
                                                    normals, seed))
    lines = text.splitlines()
    n_headers = sum(1 for line in lines
                    if line.split(",")[0] in ("field", "seed", "grid"))
    records = data.draw(st.permutations(lines[n_headers:]))
    shuffled = "\n".join(lines[:n_headers] + list(records)) + "\n"
    assert _accuracy_output(shuffled, fmt) == _accuracy_output(text, fmt)


# coordinates on a millimetre grid: their differences never underflow when
# squared, so scaling by a power of two is exact all the way to d_a
millimetres = st.integers(-100_000, 100_000).map(lambda i: i / 1000.0)


@given(points=st.integers(1, 12).flatmap(lambda m: st.lists(
           st.tuples(millimetres, millimetres), min_size=m + 1,
           max_size=m + 1)),
       theta1=theta1s, theta2=theta2s, noise=noises, k=st.integers(-6, 10))
@settings(max_examples=200, deadline=None)
def test_scaling_coordinates_and_theta1_leaves_d_a_bit_identical(
        points, theta1, theta2, noise, k):
    betas = beta_factors(noise)
    members = tuple(range(1, len(points) - 1))
    geo = ClusterGeometry(0, members, np.array(points))
    scaled = ClusterGeometry(0, members, np.array(points) * 2.0 ** k)
    params = CorrelationParams(theta1, theta2, 0.6)
    params_scaled = CorrelationParams(theta1 * 2.0 ** k, theta2, 0.6)
    assert closed_form_accuracy(scaled, betas, params_scaled).d_a \
        == closed_form_accuracy(geo, betas, params).d_a


def _translated(dep, tx, ty):
    def move(p):
        return Position(p.x + tx, p.y + ty)
    return Deployment(
        FieldSpec(dep.field.width + tx, dep.field.height + ty),
        tuple(Node(n.id, n.kind, move(n.position)) for n in dep.heads),
        tuple(Node(n.id, n.kind, move(n.position)) for n in dep.normals),
        tuple(TracingPoint(t.id, move(t.position))
              for t in dep.tracing_points))


@given(rows=grid_sides, cols=grid_sides, normals=normal_counts, seed=seeds,
       tx=st.floats(0.0, 1000.0), ty=st.floats(0.0, 1000.0),
       theta1=theta1s, theta2=theta2s, noise=noises)
@settings(max_examples=40, deadline=None)
def test_translation_keeps_partition_and_d_a(rows, cols, normals, seed, tx, ty,
                                             theta1, theta2, noise):
    dep = build_grid_deployment(FIELD, rows, cols, normals, seed)
    moved = _translated(dep, tx, ty)
    assignment = assign_clusters(dep)
    assert assign_clusters(moved) == assignment  # random positions: no ties
    betas = beta_factors(noise)
    params = CorrelationParams(theta1, theta2, 0.6)
    before = accuracy_for_assignment(assignment, dep, dep.tracing_points,
                                     betas, params)
    after = accuracy_for_assignment(assignment, moved, moved.tracing_points,
                                    betas, params)
    assert [r.head_id for r in after] == [r.head_id for r in before]
    assert max(abs(a.d_a - b.d_a) for a, b in zip(after, before)) <= 1e-12


def _all_on_tracing_point(m, x, y):
    spot = Position(x, y)
    return geometry_from_points(spot, spot, [spot] * (m - 1))


on_field = st.floats(0.0, 120.0)


@given(m=st.integers(1, 60), x=on_field, y=on_field, theta1=theta1s,
       theta2=theta2s)
@settings(max_examples=100, deadline=None)
def test_perfect_estimation_anchor_closed_form(m, x, y, theta1, theta2):
    # exactly 1 for most m; m = 49 lands one ulp below
    d_a = closed_form_accuracy(_all_on_tracing_point(m, x, y),
                               beta_factors(NoiseModel.noiseless()),
                               CorrelationParams(theta1, theta2, 0.6)).d_a
    assert abs(1.0 - d_a) <= 1e-12


@given(m=st.integers(1, 30), x=on_field, y=on_field, theta1=theta1s,
       seed=seeds)
@settings(max_examples=20, deadline=None)
def test_perfect_estimation_anchor_monte_carlo(m, x, y, theta1, seed):
    # the rank-one covariance takes the Cholesky jitter, so 1 only to 1e-9
    noise = NoiseModel.noiseless()
    report = monte_carlo_accuracy(_all_on_tracing_point(m, x, y),
                                  beta_factors(noise), noise,
                                  CorrelationParams(theta1, 1.0, 0.6),
                                  samples=200, seed=seed)
    assert abs(1.0 - report.d_a) <= 1e-9
