import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from corrsense import (CorrelationParams, Deployment, FieldSpec, Node,
                       NodeKind, NoHeadsError, Position, TracingPoint,
                       UnknownNodeError, assign_clusters,
                       assignment_kernel_diagnostics, assignment_to_csv,
                       build_grid_deployment, cluster_geometry,
                       geometry_from_points, place_nodes)
from corrsense import NonFiniteCoordinateError, SimulationError
from corrsense.clustering import _ASSIGN_CHUNK

FIELD = FieldSpec(100.0, 100.0)


def deployment_from_coords(head_xy, normal_xy, field=FIELD):
    heads = place_nodes(field, [(NodeKind.CLUSTER_HEAD, p) for p in head_xy])
    normals = place_nodes(field, [(NodeKind.NORMAL, p) for p in normal_xy])
    return Deployment(field=field, heads=heads, normals=normals)


def brute_force_assignment(head_xy, normal_xy):
    """Exhaustive nearest-head search; first head wins ties (lowest id)."""
    out = {i + 1: [] for i in range(len(head_xy))}
    for j, (nx, ny) in enumerate(normal_xy):
        best, best_d = None, float("inf")
        for i, (hx, hy) in enumerate(head_xy):
            d = math.hypot(nx - hx, ny - hy)
            if d < best_d:
                best, best_d = i + 1, d
        out[best].append(j + 1)
    return out


class TestAssignClusters:
    def test_single_head_takes_all(self):
        dep = deployment_from_coords([(50, 50)], [(1, 1), (99, 99), (3, 80)])
        (cluster,) = assign_clusters(dep).clusters
        assert cluster.members == (1, 2, 3)
        assert cluster.m == 4

    def test_nearest_head_wins(self):
        dep = deployment_from_coords([(0, 0), (10, 0)], [(3, 0)])
        assignment = assign_clusters(dep)
        assert assignment.by_head[1].members == (1,)
        assert assignment.by_head[2].members == ()

    def test_tie_goes_to_lowest_head_id(self):
        dep = deployment_from_coords([(0, 0), (10, 0)], [(5, 0)])
        assignment = assign_clusters(dep)
        assert assignment.by_head[1].members == (1,)

    def test_no_heads(self):
        dep = Deployment(field=FIELD, heads=(), normals=())
        with pytest.raises(NoHeadsError):
            assign_clusters(dep)

    def test_empty_cluster_has_m_one(self):
        dep = deployment_from_coords([(0, 0), (100, 100)], [(1, 1)])
        assignment = assign_clusters(dep)
        assert assignment.by_head[2].members == ()
        assert assignment.by_head[2].m == 1

    def test_idempotent_and_deterministic(self):
        dep = build_grid_deployment(FieldSpec(120, 120), 5, 5, 100, seed=7)
        assert assign_clusters(dep) == assign_clusters(dep)

    def test_partition_on_canonical_deployment(self):
        dep = build_grid_deployment(FieldSpec(120, 120), 5, 5, 100, seed=7)
        assignment = assign_clusters(dep)
        all_members = [i for c in assignment.clusters for i in c.members]
        assert sorted(all_members) == list(range(1, 101))
        assert len(assignment.clusters) == 25

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=0, max_size=8))
    @settings(max_examples=200)
    def test_matches_brute_force(self, head_xy, normal_xy):
        dep = deployment_from_coords(head_xy, normal_xy)
        assignment = assign_clusters(dep)
        expected = brute_force_assignment(head_xy, normal_xy)
        assert {c.head_id: list(c.members) for c in assignment.clusters} == expected

    def test_exact_tie_where_np_hypot_differs(self):
        # 17^2 + 52^2 == 28^2 + 47^2, but the C library's hypot rounds the
        # two an ulp apart; math.hypot rounds both to the same value
        dep = deployment_from_coords([(17, 52), (28, 47)], [(0, 0)])
        assert assign_clusters(dep).by_head[1].members == (1,)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=0, max_size=30))
    @settings(max_examples=200)
    def test_matches_brute_force_on_integer_grid(self, head_xy, normal_xy):
        # integer coordinates on a small grid make exact ties common
        dep = deployment_from_coords(head_xy, normal_xy)
        expected = brute_force_assignment(head_xy, normal_xy)
        assert {c.head_id: list(c.members)
                for c in assign_clusters(dep).clusters} == expected

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=1, max_size=8).flatmap(
               lambda xy: st.tuples(st.just(xy), st.permutations(range(len(xy))))),
           st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=0, max_size=20))
    @settings(max_examples=200)
    def test_heads_out_of_id_order(self, heads_and_order, normal_xy):
        head_xy, order = heads_and_order
        heads = tuple(Node(id=i + 1, kind=NodeKind.CLUSTER_HEAD,
                           position=Position(*head_xy[i])) for i in order)
        normals = place_nodes(FIELD, [(NodeKind.NORMAL, p) for p in normal_xy])
        dep = Deployment(field=FIELD, heads=heads, normals=normals[::-1])
        assignment = assign_clusters(dep)
        assert [c.head_id for c in assignment.clusters] == list(range(1, len(heads) + 1))
        expected = brute_force_assignment(head_xy, normal_xy)
        assert {c.head_id: list(c.members) for c in assignment.clusters} == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.integers(_ASSIGN_CHUNK + 1, 3 * _ASSIGN_CHUNK), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_across_chunks(self, seed, n_heads, n_normals,
                                               on_grid):
        rng = np.random.default_rng(seed)
        head_xy = rng.random((n_heads, 2)) * 100
        normal_xy = rng.random((n_normals, 2)) * 100
        if on_grid:
            head_xy, normal_xy = np.round(head_xy / 10), np.round(normal_xy / 10)
        head_xy, normal_xy = head_xy.tolist(), normal_xy.tolist()
        dep = deployment_from_coords(head_xy, normal_xy)
        expected = brute_force_assignment(head_xy, normal_xy)
        assert {c.head_id: list(c.members)
                for c in assign_clusters(dep).clusters} == expected

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=1, max_size=5),
           st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_nearest_property(self, head_xy, normal_xy):
        dep = deployment_from_coords(head_xy, normal_xy)
        for cluster in assign_clusters(dep).clusters:
            head = dep.head_by_id(cluster.head_id)
            for nid in cluster.members:
                node = dep.normal_by_id(nid)
                d = node.position.distance_to(head.position)
                for other in dep.heads:
                    assert d <= node.position.distance_to(other.position) + 1e-9


class TestClusterGeometry:
    def test_head_on_tracing_point(self):
        dep = deployment_from_coords([(50, 50)], [(10, 10)])
        (cluster,) = assign_clusters(dep).clusters
        geo = cluster_geometry(cluster, dep, TracingPoint(1, Position(50, 50)))
        assert geo.tracing_to_head == 0.0

    def test_circle_equidistance(self):
        geo = geometry_from_points(
            Position(0, 0), Position(5, 0),
            [Position(0, 5), Position(-5, 0), Position(0, -5)])
        assert geo.tracing_to_head == approx(5.0)
        assert geo.tracing_to_members == approx([5.0, 5.0, 5.0])

    def test_square_corner_geometry(self):
        # 30x30 corners, tracing point at the center
        geo = geometry_from_points(
            Position(15, 15), Position(0, 0),
            [Position(30, 0), Position(0, 30), Position(30, 30)])
        d = 15.0 * math.sqrt(2.0)
        assert geo.tracing_to_head == approx(d)
        assert geo.tracing_to_members == approx([d, d, d])
        assert sorted(geo.head_to_members) == approx([30.0, 30.0, 30 * math.sqrt(2)])
        off = geo.member_distances[np.triu_indices(3, k=1)]
        assert sorted(off) == approx([30.0, 30.0, 30 * math.sqrt(2)])

    def test_unknown_member_id(self):
        dep = deployment_from_coords([(50, 50)], [(10, 10)])
        from corrsense import Cluster
        bad = Cluster(head_id=1, members=(42,))
        with pytest.raises(UnknownNodeError):
            cluster_geometry(bad, dep, TracingPoint(1, Position(0, 0)))

    def test_matches_geometry_from_scanned_positions(self):
        dep = build_grid_deployment(FieldSpec(120, 120), 3, 3, 60, seed=5)
        for cluster in assign_clusters(dep).clusters:
            tp = dep.tracing_point_by_id(cluster.head_id)
            (head,) = [n for n in dep.heads if n.id == cluster.head_id]
            members = [next(n.position for n in dep.normals if n.id == i)
                       for i in cluster.members]
            expected = geometry_from_points(tp.position, head.position, members,
                                            head_id=head.id,
                                            member_ids=cluster.members)
            got = cluster_geometry(cluster, dep, tp)
            assert (got.head_id, got.member_ids, got.tracing_to_head) == \
                (expected.head_id, expected.member_ids, expected.tracing_to_head)
            for name in ("tracing_to_members", "head_to_members", "member_distances"):
                assert np.array_equal(getattr(got, name), getattr(expected, name))

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                    min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_joint_matrix_symmetric_triangle(self, coords):
        tracing = Position(*coords[0])
        head = Position(*coords[1])
        members = [Position(x, y) for x, y in coords[2:]]
        geo = geometry_from_points(tracing, head, members)
        d = geo.joint_distances()
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_member_matrix_zero_diagonal(self):
        geo = geometry_from_points(Position(0, 0), Position(1, 0),
                                   [Position(2, 0), Position(3, 0)])
        assert np.all(np.diag(geo.member_distances) == 0.0)
        assert geo.member_distances[0, 1] == approx(1.0)


class TestDiagnosticsAndCsv:
    def test_kernel_diagnostics(self):
        dep = deployment_from_coords([(0, 0)], [(50, 0)])
        assignment = assign_clusters(dep)
        diag = assignment_kernel_diagnostics(
            assignment, dep, CorrelationParams(50, 1, 0.9))
        assert diag[1] == approx(math.exp(-1.0))

    def test_csv_shape(self):
        dep = deployment_from_coords([(0, 0), (99, 99)], [(1, 1), (98, 98), (2, 2)])
        text = assignment_to_csv(assign_clusters(dep))
        assert text.splitlines() == ["head,members", "CH1,1;3", "CH2,2"]


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["tracing", "head", "member"])
    def test_rejected_before_any_distance(self, bad, where):
        pts = {"tracing": Position(0, 0), "head": Position(1, 1),
               "member": Position(2, 2)}
        pts[where] = Position(bad, 0.0)
        with pytest.raises(NonFiniteCoordinateError) as exc:
            geometry_from_points(pts["tracing"], pts["head"], [pts["member"]])
        assert isinstance(exc.value, SimulationError)

    def test_cli_exits_2_instead_of_nan(self, tmp_path, capsys):
        from corrsense.cli import main
        dep = tmp_path / "dep.txt"
        dep.write_text("field,inf,10\nCH,1,5,5\nN,1,inf,5\nT,1,5,5\n")
        assert main(["accuracy", "--deployment", str(dep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("corrsense: error:")
