"""Sensor-field construction.

Cluster heads go on a deterministic uniform grid, normal nodes are placed
uniformly at random from a seeded generator (numpy PCG64), and each head
gets one tracing point, either random within its grid cell or explicit.
Deployments are immutable and fully determined by (field, counts, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (DuplicateNodeError, InvalidConfigError, OutOfFieldError,
                     UnknownNodeError)

RNG_NAME = "numpy-pcg64"  # recorded in report metadata for replication

_TAG_NORMALS = 0
_TAG_TRACING = 1


class NodeKind(Enum):
    CLUSTER_HEAD = "CH"
    NORMAL = "N"


# Largest |coordinate| and field side: two points within it are at most
# 2**511 apart per axis, so dx*dx + dy*dy <= 2**1023 stays finite.
_COORDINATE_BOUND = 2.0 ** 510


@dataclass(frozen=True)
class FieldSpec:
    """Rectangular field of width x height meters, origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width <= _COORDINATE_BOUND
                and 0 < self.height <= _COORDINATE_BOUND):
            raise InvalidConfigError(
                f"field dimensions must be finite, positive and at most "
                f"2**510, got {self.width} x {self.height}")

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Node:
    """A sensor node; ids are 1-based per kind (labels CH1..CHk and 1..n)."""

    id: int
    kind: NodeKind
    position: Position

    @property
    def label(self) -> str:
        prefix = "CH" if self.kind is NodeKind.CLUSTER_HEAD else ""
        return f"{prefix}{self.id}"


@dataclass(frozen=True)
class TracingPoint:
    id: int
    position: Position


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of a deployed field.

    `grid` records the head layout (rows, cols) when heads came from
    deploy_grid_heads; it is required for cell-random tracing points.
    """

    field: FieldSpec
    heads: Tuple[Node, ...]
    normals: Tuple[Node, ...]
    tracing_points: Tuple[TracingPoint, ...] = ()
    seed: int = 0
    grid: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.grid is not None and min(self.grid) < 1:
            raise ValueError(f"grid needs at least 1 row and 1 column, "
                             f"got {self.grid[0]} x {self.grid[1]}")
        for kind, nodes in ((NodeKind.CLUSTER_HEAD, self.heads),
                            (NodeKind.NORMAL, self.normals)):
            for node in nodes:
                if node.kind is not kind:
                    raise ValueError(f"node {node.label} of kind "
                                     f"{node.kind.name} listed as {kind.name}")
                if not self.field.contains(node.position.x, node.position.y):
                    raise OutOfFieldError(f"node {node.label} at ({node.position.x}"
                                          f", {node.position.y})")
        # id -> item maps, built once; object.__setattr__ because the
        # dataclass is frozen (they are not fields, so eq/repr ignore them)
        object.__setattr__(self, "_heads", _index_by_id(self.heads, "head"))
        object.__setattr__(self, "_normals", _index_by_id(self.normals, "normal"))
        for tp in self.tracing_points:
            if not self.field.contains(tp.position.x, tp.position.y):
                raise OutOfFieldError(f"tracing point {tp.id}")
            if tp.id not in self._heads:
                raise UnknownNodeError(f"tracing point {tp.id} names no head")
        object.__setattr__(self, "_tracing_points",
                           _index_by_id(self.tracing_points, "tracing point"))

    def head_by_id(self, head_id: int) -> Node:
        return self._heads[head_id]

    def normal_by_id(self, normal_id: int) -> Node:
        return self._normals[normal_id]

    def tracing_point_by_id(self, tp_id: int) -> TracingPoint:
        return self._tracing_points[tp_id]


def _index_by_id(items, what: str) -> dict:
    """Map id -> item, rejecting a repeated id."""
    index = {}
    for item in items:
        if item.id in index:
            raise DuplicateNodeError(f"{what} id {item.id} appears more than once")
        index[item.id] = item
    return index


def deploy_grid_heads(field: FieldSpec, rows: int, cols: int) -> Tuple[Node, ...]:
    """Cluster heads at the cell centers of a uniform rows x cols grid.

    Row-major ids: CH1 is the bottom-left cell, CH(rows*cols) the top-right.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one cell")
    heads = []
    for r in range(rows):
        for c in range(cols):
            pos = Position((c + 0.5) * field.width / cols,
                           (r + 0.5) * field.height / rows)
            heads.append(Node(id=r * cols + c + 1, kind=NodeKind.CLUSTER_HEAD,
                              position=pos))
    return tuple(heads)


def deploy_random_normals(field: FieldSpec, count: int, seed: int) -> Tuple[Node, ...]:
    """`count` normal nodes i.i.d. uniform over the field, bit-reproducible per seed."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_NORMALS)))
    coords = rng.random((count, 2)) * np.array([field.width, field.height])
    return tuple(
        Node(id=i + 1, kind=NodeKind.NORMAL, position=Position(float(x), float(y)))
        for i, (x, y) in enumerate(coords)
    )


def place_nodes(field: FieldSpec,
                placements: Iterable[Tuple[NodeKind, Tuple[float, float]]]) -> Tuple[Node, ...]:
    """Nodes at caller-chosen positions; ids assigned per kind in list order."""
    counters = {NodeKind.CLUSTER_HEAD: 0, NodeKind.NORMAL: 0}
    nodes = []
    for kind, (x, y) in placements:
        if not field.contains(x, y):
            raise OutOfFieldError(f"({x}, {y}) outside {field.width} x {field.height}")
        counters[kind] += 1
        nodes.append(Node(id=counters[kind], kind=kind, position=Position(x, y)))
    return tuple(nodes)


def assign_tracing_points(deployment: Deployment,
                          seed: Optional[int] = None,
                          positions: Optional[Sequence[Tuple[float, float]]] = None,
                          ) -> Tuple[TracingPoint, ...]:
    """One tracing point per head: uniform in the head's grid cell, or explicit.

    Exactly one of `seed` (cell-random mode, needs deployment.grid) and
    `positions` must be given. Explicit positions map to heads in id order,
    one position per head, and each tracing point takes its head's id.
    """
    if (seed is None) == (positions is None):
        raise ValueError("pass exactly one of seed= or positions=")
    if positions is not None:
        head_ids = sorted(h.id for h in deployment.heads)
        if len(positions) != len(head_ids):
            raise ValueError(f"need one tracing point position per head: "
                             f"{len(head_ids)} heads, {len(positions)} positions")
        points = []
        for head_id, (x, y) in zip(head_ids, positions):
            if not deployment.field.contains(x, y):
                raise OutOfFieldError(f"tracing point ({x}, {y})")
            points.append(TracingPoint(id=head_id, position=Position(x, y)))
        return tuple(points)

    if deployment.grid is None:
        raise ValueError("cell-random tracing points need a grid deployment")
    return _cell_tracing_points(deployment.field, deployment.heads,
                                deployment.grid, seed)


def _cell_tracing_points(field: FieldSpec, heads: Sequence[Node],
                         grid: Tuple[int, int], seed: int) -> Tuple[TracingPoint, ...]:
    """One tracing point uniform in each head's grid cell, in head-id order."""
    rows, cols = grid
    for head in heads:
        if not 1 <= head.id <= rows * cols:
            raise ValueError(f"head CH{head.id} has no cell in a "
                             f"{rows} x {cols} grid")
    cell_w = field.width / cols
    cell_h = field.height / rows
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_TRACING)))
    points = []
    for head in sorted(heads, key=lambda n: n.id):
        r, c = divmod(head.id - 1, cols)
        x = rng.uniform(c * cell_w, (c + 1) * cell_w)
        y = rng.uniform(r * cell_h, (r + 1) * cell_h)
        points.append(TracingPoint(id=head.id, position=Position(float(x), float(y))))
    return tuple(points)


def build_grid_deployment(field: FieldSpec, rows: int, cols: int,
                          n_normals: int, seed: int) -> Deployment:
    """Grid heads + seeded random normals + one cell-random tracing point per head."""
    heads = deploy_grid_heads(field, rows, cols)
    return Deployment(field, heads, deploy_random_normals(field, n_normals, seed),
                      _cell_tracing_points(field, heads, (rows, cols), seed),
                      seed=seed, grid=(rows, cols))


# line-oriented text format: header records, then kind,id,x,y per node and
# T,id,x,y per tracing point, coordinates with 6 decimals

def deployment_to_text(dep: Deployment) -> str:
    lines = [f"field,{dep.field.width:.6f},{dep.field.height:.6f}",
             f"seed,{dep.seed}"]
    if dep.grid is not None:
        lines.append(f"grid,{dep.grid[0]},{dep.grid[1]}")
    for node in dep.heads + dep.normals:
        lines.append(f"{node.kind.value},{node.id},"
                     f"{node.position.x:.6f},{node.position.y:.6f}")
    for tp in dep.tracing_points:
        lines.append(f"T,{tp.id},{tp.position.x:.6f},{tp.position.y:.6f}")
    return "\n".join(lines) + "\n"


# fields after the tag in each record of the deployment text format
_RECORD_FIELDS = {"field": 2, "seed": 1, "grid": 2, "CH": 3, "N": 3, "T": 3}


def deployment_from_text(text: str) -> Deployment:
    headers = {}  # field, seed and grid: the fields after the tag
    heads, normals, points = [], [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *rest = line.split(",")
        expected = _RECORD_FIELDS.get(tag)
        if expected is None:
            raise ValueError(f"unrecognized record: {line!r}")
        if len(rest) != expected:
            raise ValueError(f"{tag} record needs {expected} fields after "
                             f"the tag, got {len(rest)}: {line!r}")
        if tag in ("field", "seed", "grid"):
            if tag in headers:
                raise ValueError(f"repeated {tag} header record: {line!r}")
            headers[tag] = rest
        elif tag in ("CH", "N"):
            kind = NodeKind.CLUSTER_HEAD if tag == "CH" else NodeKind.NORMAL
            node = Node(id=int(rest[0]), kind=kind,
                        position=Position(float(rest[1]), float(rest[2])))
            (heads if kind is NodeKind.CLUSTER_HEAD else normals).append(node)
        else:  # T
            points.append(TracingPoint(id=int(rest[0]),
                                       position=Position(float(rest[1]), float(rest[2]))))
    if "field" not in headers:
        raise ValueError("missing field header record")
    return Deployment(field=FieldSpec(*map(float, headers["field"])),
                      heads=tuple(heads), normals=tuple(normals),
                      tracing_points=tuple(points),
                      seed=int(headers.get("seed", [0])[0]),
                      grid=tuple(map(int, headers["grid"])) if "grid" in headers
                      else None)
