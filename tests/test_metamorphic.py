"""Metamorphic relations of the pipeline.

Each test transforms an input and checks how the output must change, so it
needs no stored answer: reordering the records of a deployment text,
scaling coordinates together with theta1, translating, mirroring or
rotating a field, relabeling its nodes, and putting every node of a
noiseless cluster on its tracing point. One more holds the two estimators
to each other: Monte Carlo lies within 4 standard errors of the closed
form.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsense import (ClusterGeometry, CorrelationParams, Deployment,
                       FieldSpec, Node, NodeKind, NoiseModel, Position,
                       TracingPoint,
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


# coordinates on a millimetre grid: scaled by 2**k for |k| <= 400, their
# differences neither underflow nor overflow when squared and stay inside the
# 2**510 coordinate bound, so the scaling is exact all the way to d_a
millimetres = st.integers(-100_000, 100_000).map(lambda i: i / 1000.0)


@given(points=st.integers(1, 12).flatmap(lambda m: st.lists(
           st.tuples(millimetres, millimetres), min_size=m + 1,
           max_size=m + 1)),
       theta1=theta1s, theta2=theta2s, noise=noises,
       k=st.integers(-400, 400))
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


def _field(field, heads, normals, tracing, head_ids=None, normal_ids=None):
    """Deployment of (x, y) pairs; tracing point k goes with head k."""
    head_ids = head_ids or range(1, len(heads) + 1)
    normal_ids = normal_ids or range(1, len(normals) + 1)
    return Deployment(
        field,
        tuple(Node(i, NodeKind.CLUSTER_HEAD, Position(*p))
              for i, p in zip(head_ids, heads)),
        tuple(Node(i, NodeKind.NORMAL, Position(*p))
              for i, p in zip(normal_ids, normals)),
        tuple(TracingPoint(i, Position(*p)) for i, p in zip(head_ids, tracing)))


def _d_a(dep, params, noise):
    """head id -> closed-form d_a of each cluster."""
    reports = accuracy_for_assignment(assign_clusters(dep), dep,
                                      dep.tracing_points, beta_factors(noise),
                                      params)
    return {r.head_id: r.d_a for r in reports}


@given(heads=st.integers(1, 8), normals=st.integers(0, 59), seed=seeds,
       theta1=theta1s, theta2=theta2s, noise=noises, data=st.data())
@settings(max_examples=100, deadline=None)
def test_relabeling_permutes_members_and_reports(heads, normals, seed, theta1,
                                                 theta2, noise, data):
    rng = np.random.default_rng(seed)  # random floats: no exact ties
    layout = [rng.uniform(0.0, 120.0, size=(k, 2)).tolist()
              for k in (heads, normals, heads)]
    head_ids = data.draw(st.permutations(range(1, heads + 1)))
    normal_ids = data.draw(st.permutations(range(1, normals + 1)))
    dep = _field(FIELD, *layout)
    renamed = _field(FIELD, *layout, head_ids=head_ids, normal_ids=normal_ids)
    before = assign_clusters(dep).by_head
    after = assign_clusters(renamed).by_head
    for head, cluster in before.items():
        assert after[head_ids[head - 1]].members == tuple(sorted(
            normal_ids[i - 1] for i in cluster.members))
    params = CorrelationParams(theta1, theta2, 0.6)
    d_a, renamed_d_a = _d_a(dep, params, noise), _d_a(renamed, params, noise)
    assert max(abs(renamed_d_a[head_ids[h - 1]] - d_a[h])
               for h in before) <= 1e-12


# a 64 x 64 field on a 1/8 grid: mirroring and rotating it are exact, so
# every distance, exact ties included, is unchanged bit for bit
SQUARE = FieldSpec(64.0, 64.0)


def _eighths(rng, n):
    """n points on the 1/8 grid, half of them on the 8 m lattice, where
    exact ties between heads are common."""
    fine = rng.integers(0, 513, size=(n, 2)) / 8.0
    coarse = rng.integers(0, 9, size=(n, 2)) * 8.0
    return np.where(rng.random((n, 1)) < 0.5, coarse, fine).tolist()


def _mirror(x, y):
    return 64.0 - x, y


def _rotate(x, y):
    return y, 64.0 - x


@given(heads=st.integers(1, 8), normals=st.integers(0, 59), seed=seeds,
       motion=st.sampled_from([_mirror, _rotate]),
       theta1=theta1s, theta2=theta2s, noise=noises)
@settings(max_examples=150, deadline=None)
def test_mirror_and_rotation_keep_partition_and_d_a(heads, normals, seed,
                                                    motion, theta1, theta2,
                                                    noise):
    rng = np.random.default_rng(seed)
    layout = [_eighths(rng, k) for k in (heads, normals, heads)]
    dep = _field(SQUARE, *layout)
    moved = _field(SQUARE, *([motion(*p) for p in ps] for ps in layout))
    assert assign_clusters(moved) == assign_clusters(dep)
    params = CorrelationParams(theta1, theta2, 0.6)
    assert _d_a(moved, params, noise) == _d_a(dep, params, noise)


@given(m=st.integers(1, 12), seed=seeds, theta1=theta1s, theta2=theta2s)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_monte_carlo_agrees_with_closed_form(m, seed, theta1, theta2):
    # derandomized: the same 20 clusters every run, so it cannot flake
    noise = NoiseModel.default_profile()
    betas = beta_factors(noise)
    params = CorrelationParams(theta1, theta2, 0.6)
    points = np.random.default_rng(seed).uniform(0.0, 120.0, size=(m + 1, 2))
    geo = ClusterGeometry(0, tuple(range(1, m)), points)
    exact = closed_form_accuracy(geo, betas, params).d_a
    sampled = monte_carlo_accuracy(geo, betas, noise, params, samples=20_000,
                                   seed=seed)
    assert abs(sampled.d_a - exact) <= 4 * sampled.mc_std_error
