import math

import numpy as np
import pytest
from pytest import approx

from corrsense import (Deployment, DuplicateNodeError, FieldSpec, NodeKind,
                       OutOfFieldError, Position, assign_tracing_points,
                       build_grid_deployment, deploy_grid_heads,
                       deploy_random_normals, deployment_from_text,
                       deployment_to_text, place_nodes)
from corrsense import SimulationError

FIELD = FieldSpec(120.0, 120.0)


class TestGridHeads:
    def test_five_by_five_cell_centers(self):
        heads = deploy_grid_heads(FIELD, 5, 5)
        assert len(heads) == 25
        assert (heads[0].position.x, heads[0].position.y) == (12.0, 12.0)
        assert (heads[-1].position.x, heads[-1].position.y) == (108.0, 108.0)
        assert [h.id for h in heads] == list(range(1, 26))
        assert heads[0].label == "CH1"

    def test_single_head_at_center(self):
        (head,) = deploy_grid_heads(FieldSpec(30, 30), 1, 1)
        assert (head.position.x, head.position.y) == (15.0, 15.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            deploy_grid_heads(FIELD, 0, 5)

    def test_equidistant_per_axis(self):
        heads = deploy_grid_heads(FieldSpec(100, 60), 3, 4)
        xs = sorted({h.position.x for h in heads})
        ys = sorted({h.position.y for h in heads})
        assert np.diff(xs) == approx([25.0] * 3)
        assert np.diff(ys) == approx([20.0] * 2)


class TestRandomNormals:
    def test_zero_count(self):
        assert deploy_random_normals(FIELD, 0, seed=1) == ()

    def test_seed_determinism_bit_exact(self):
        a = deploy_random_normals(FIELD, 100, seed=99)
        b = deploy_random_normals(FIELD, 100, seed=99)
        assert [(n.position.x, n.position.y) for n in a] == \
               [(n.position.x, n.position.y) for n in b]

    def test_different_seeds_differ(self):
        a = deploy_random_normals(FIELD, 10, seed=1)
        b = deploy_random_normals(FIELD, 10, seed=2)
        assert [(n.position.x, n.position.y) for n in a] != \
               [(n.position.x, n.position.y) for n in b]

    def test_million_draws_inside_closed_box(self):
        nodes = deploy_random_normals(FIELD, 1_000_000, seed=5)
        xs = np.array([n.position.x for n in nodes])
        ys = np.array([n.position.y for n in nodes])
        assert xs.min() >= 0.0 and xs.max() <= 120.0
        assert ys.min() >= 0.0 and ys.max() <= 120.0

    def test_ids_in_generation_order(self):
        nodes = deploy_random_normals(FIELD, 5, seed=1)
        assert [n.id for n in nodes] == [1, 2, 3, 4, 5]
        assert all(n.kind is NodeKind.NORMAL for n in nodes)
        assert nodes[0].label == "1"


class TestPlaceNodes:
    def test_circle_cluster_layout(self):
        field = FieldSpec(30, 30)
        center = (15.0, 15.0)
        radius = 5.0
        placements = [(NodeKind.CLUSTER_HEAD, (center[0] + radius, center[1]))]
        for k in range(1, 4):
            ang = 2 * math.pi * k / 4
            placements.append((NodeKind.NORMAL,
                               (center[0] + radius * math.cos(ang),
                                center[1] + radius * math.sin(ang))))
        nodes = place_nodes(field, placements)
        assert len(nodes) == 4
        for node in nodes:
            d = math.hypot(node.position.x - center[0], node.position.y - center[1])
            assert d == approx(radius)

    def test_grid_single_cluster(self):
        field = FieldSpec(30, 30)
        pts = [(float(x), float(y)) for x in range(0, 31, 5)
               for y in range(0, 31, 5) if (x, y) != (15, 15)]
        nodes = place_nodes(field, [(NodeKind.NORMAL, p) for p in pts])
        assert len(nodes) == 48

    def test_head_override_at_field_corner(self):
        (head,) = place_nodes(FieldSpec(30, 30),
                              [(NodeKind.CLUSTER_HEAD, (0.0, 0.0))])
        assert head.kind is NodeKind.CLUSTER_HEAD
        assert (head.position.x, head.position.y) == (0.0, 0.0)

    def test_empty(self):
        assert place_nodes(FIELD, []) == ()

    def test_out_of_field(self):
        with pytest.raises(OutOfFieldError):
            place_nodes(FieldSpec(30, 30), [(NodeKind.NORMAL, (31.0, 0.0))])


class TestTracingPoints:
    def test_explicit_center(self):
        dep = Deployment(field=FieldSpec(30, 30),
                         heads=deploy_grid_heads(FieldSpec(30, 30), 1, 1),
                         normals=())
        (tp,) = assign_tracing_points(dep, positions=[(15.0, 15.0)])
        assert (tp.position.x, tp.position.y) == (15.0, 15.0)

    def test_explicit_out_of_field(self):
        dep = Deployment(field=FieldSpec(30, 30),
                         heads=deploy_grid_heads(FieldSpec(30, 30), 1, 1),
                         normals=())
        with pytest.raises(OutOfFieldError):
            assign_tracing_points(dep, positions=[(40.0, 0.0)])

    def test_one_point_inside_each_grid_cell(self):
        dep = build_grid_deployment(FIELD, 5, 5, 0, seed=3)
        assert len(dep.tracing_points) == 25
        for tp in dep.tracing_points:
            r, c = divmod(tp.id - 1, 5)
            assert c * 24.0 <= tp.position.x <= (c + 1) * 24.0
            assert r * 24.0 <= tp.position.y <= (r + 1) * 24.0

    def test_random_mode_deterministic(self):
        dep = build_grid_deployment(FieldSpec(30, 30), 1, 1, 0, seed=11)
        a = assign_tracing_points(dep, seed=11)
        b = assign_tracing_points(dep, seed=11)
        assert a == b

    def test_requires_exactly_one_mode(self):
        dep = build_grid_deployment(FieldSpec(30, 30), 1, 1, 0, seed=1)
        with pytest.raises(ValueError):
            assign_tracing_points(dep)
        with pytest.raises(ValueError):
            assign_tracing_points(dep, seed=1, positions=[(1.0, 1.0)])

    def test_random_mode_needs_grid(self):
        dep = Deployment(field=FieldSpec(30, 30),
                         heads=place_nodes(FieldSpec(30, 30),
                                           [(NodeKind.CLUSTER_HEAD, (1.0, 1.0))]),
                         normals=())
        with pytest.raises(ValueError):
            assign_tracing_points(dep, seed=1)


class TestDeployment:
    def test_builder_determinism(self):
        a = build_grid_deployment(FIELD, 5, 5, 100, seed=7)
        b = build_grid_deployment(FIELD, 5, 5, 100, seed=7)
        assert a == b

    def test_rejects_node_outside_field(self):
        with pytest.raises(OutOfFieldError):
            Deployment(field=FieldSpec(10, 10),
                       heads=(deploy_grid_heads(FIELD, 1, 1)),
                       normals=())

    def test_lookup_helpers(self):
        dep = build_grid_deployment(FIELD, 2, 2, 5, seed=1)
        assert dep.head_by_id(3).id == 3
        assert dep.normal_by_id(5).id == 5
        assert dep.tracing_point_by_id(2).id == 2
        with pytest.raises(KeyError):
            dep.head_by_id(99)

    @pytest.mark.parametrize("text, message", [
        ("field,10,10\nCH,1,2,2\nCH,1,8,8\nN,1,1,1\nN,1,9,9\n", "head id 1"),
        ("field,10,10\nCH,1,2,2\nCH,2,8,8\nN,3,1,1\nN,3,9,9\n", "normal id 3"),
        ("field,10,10\nCH,1,2,2\nN,1,1,1\nT,1,3,3\nT,1,4,4\n",
         "tracing point id 1"),
    ])
    def test_rejects_repeated_id(self, text, message):
        with pytest.raises(DuplicateNodeError, match=message):
            deployment_from_text(text)


class TestSerialization:
    def test_round_trip(self):
        dep = build_grid_deployment(FIELD, 5, 5, 100, seed=7)
        text = deployment_to_text(dep)
        loaded = deployment_from_text(text)
        assert loaded.field == dep.field
        assert loaded.seed == dep.seed
        assert loaded.grid == dep.grid
        assert len(loaded.heads) == 25 and len(loaded.normals) == 100
        assert len(loaded.tracing_points) == 25
        # coordinates survive at the printed 6-decimal precision
        for orig, back in zip(dep.normals, loaded.normals):
            assert back.position.x == approx(orig.position.x, abs=1e-6)
            assert back.position.y == approx(orig.position.y, abs=1e-6)

    def test_format_shape(self):
        dep = build_grid_deployment(FieldSpec(30, 30), 1, 1, 1, seed=2)
        lines = deployment_to_text(dep).splitlines()
        assert lines[0] == "field,30.000000,30.000000"
        assert lines[1] == "seed,2"
        assert lines[2] == "grid,1,1"
        assert lines[3].startswith("CH,1,15.000000,15.000000")
        assert lines[4].startswith("N,1,")
        assert lines[5].startswith("T,1,")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            deployment_from_text("field,10,10\nbogus,1,2,3\n")

    @pytest.mark.parametrize("record", [
        "field,10", "field,10,10,10", "seed", "seed,1,2", "grid,1",
        "grid,1,1,1", "CH,1,2", "CH,1,2,3,4", "N,1", "N,1,2,3,4", "T,1,2",
        "T,1,2,3,4"])
    def test_rejects_wrong_field_count(self, record):
        with pytest.raises(ValueError, match=repr(record)):
            deployment_from_text(f"field,10,10\n{record}\n")

    def test_missing_field_header(self):
        with pytest.raises(ValueError):
            deployment_from_text("seed,3\n")


class TestFiniteInput:
    @pytest.mark.parametrize("width,height", [
        (math.inf, 10.0), (10.0, math.inf), (math.nan, 10.0), (-math.inf, 1.0)])
    def test_field_must_be_finite(self, width, height):
        with pytest.raises(ValueError, match="finite"):
            FieldSpec(width, height)

    @pytest.mark.parametrize("text", [
        "field,inf,10\nCH,1,5,5\nN,1,inf,5\nT,1,5,5\n",
        "field,10,nan\nCH,1,5,5\n",
        "field,10,10\nCH,1,5,5\nN,1,nan,5\nT,1,5,5\n",
        "field,10,10\nCH,1,5,5\nT,1,5,inf\n",
    ])
    def test_text_with_non_finite_values_rejected(self, text):
        with pytest.raises((ValueError, SimulationError)):
            deployment_from_text(text)

    @pytest.mark.parametrize("tag,record", [
        ("field", "field,20,20"), ("seed", "seed,4"), ("grid", "grid,2,2")])
    def test_repeated_header_rejected(self, tag, record):
        text = "field,10,10\nseed,3\ngrid,1,1\nCH,1,5,5\n"
        with pytest.raises(ValueError, match=f"repeated {tag} header"):
            deployment_from_text(text + record + "\n")


class TestBuildOnce:
    def test_one_deployment_per_build(self, monkeypatch):
        calls = []
        original = Deployment.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(Deployment, "__post_init__", counting)
        dep = build_grid_deployment(FIELD, 5, 5, 100, seed=7)
        assert len(calls) == 1 and calls[0] is dep

    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_same_points_as_assigning_afterwards(self, seed):
        from dataclasses import replace
        dep = build_grid_deployment(FieldSpec(90.0, 60.0), 3, 4, 40, seed=seed)
        bare = replace(dep, tracing_points=())
        assert dep.tracing_points == assign_tracing_points(bare, seed=seed)
        assert dep.normals == deploy_random_normals(dep.field, 40, seed)
