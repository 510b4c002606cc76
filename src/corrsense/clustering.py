"""Nearest-head clustering and cluster distance geometry.

Every normal node joins the cluster head minimizing Euclidean distance
(ties to the lowest head id), which partitions the field into the heads'
nearest-site cells. The geometry bundle collects all distances the
accuracy estimators consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .deployment import Deployment, Node, Position, TracingPoint
from .errors import NoHeadsError, NonFiniteCoordinateError, UnknownNodeError
from .spatial_stats import CorrelationParams, kernel


@dataclass(frozen=True)
class Cluster:
    head_id: int
    members: Tuple[int, ...]  # normal-node ids, ascending

    @property
    def m(self) -> int:
        """Cluster size counting the head itself."""
        return len(self.members) + 1


@dataclass(frozen=True)
class ClusterAssignment:
    clusters: Tuple[Cluster, ...]  # one per head, ascending head id

    @property
    def by_head(self) -> Dict[int, Cluster]:
        return {c.head_id: c for c in self.clusters}


# Normals per block of the normals x heads distance matrix in
# assign_clusters; bounds its temporaries to a few MB at any field size.
_ASSIGN_CHUNK = 256
# np.hypot (the C library's) and math.hypot can round one distance an ulp
# apart, so a head this many ulps from a node's nearest is a near-tie that
# math.hypot re-decides.
_TIE_ULPS = 16


def assign_clusters(deployment: Deployment) -> ClusterAssignment:
    """Assign each normal node to its nearest cluster head.

    Deterministic and idempotent; ties go to the lowest head id, and heads
    with no members stay as m = 1 clusters since the head still senses on
    its own. Distances use hypot, not squared sums, so subnormal offsets
    cannot underflow into false ties; a node's distances to all heads are
    computed together with np.hypot, and near-ties are ranked by
    math.hypot, so the partition is the one Position.distance_to gives.
    """
    if not deployment.heads:
        raise NoHeadsError("deployment has no cluster heads")
    heads = sorted(deployment.heads, key=lambda n: n.id)
    normals = sorted(deployment.normals, key=lambda n: n.id)
    hx, hy = _coordinates(heads)
    nx, ny = _coordinates(normals)
    members: List[List[int]] = [[] for _ in heads]
    for lo in range(0, len(normals), _ASSIGN_CHUNK):
        dist = nx[lo:lo + _ASSIGN_CHUNK, None] - hx
        np.hypot(dist, ny[lo:lo + _ASSIGN_CHUNK, None] - hy, out=dist)
        nearest = dist.argmin(axis=1)
        dmin = dist.min(axis=1)
        near = dist <= (dmin + _TIE_ULPS * np.spacing(dmin))[:, None]
        for row in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            node = normals[lo + row]
            nearest[row] = min(np.flatnonzero(near[row]), key=lambda k: (
                node.position.distance_to(heads[k].position)))
        for node, k in zip(normals[lo:lo + _ASSIGN_CHUNK], nearest.tolist()):
            members[k].append(node.id)
    return ClusterAssignment(tuple(
        Cluster(head_id=h.id, members=tuple(ids)) for h, ids in zip(heads, members)
    ))


def _coordinates(nodes: Sequence[Node]) -> Tuple[np.ndarray, np.ndarray]:
    """x and y coordinate arrays of `nodes`, in the given order."""
    return (np.fromiter((n.position.x for n in nodes), float, len(nodes)),
            np.fromiter((n.position.y for n in nodes), float, len(nodes)))


@dataclass(frozen=True)
class ClusterGeometry:
    """Distances between the tracing point, the head, and the members.

    `member_distances[i, j]` is the distance between members i and j in
    `member_ids` order (symmetric, zero diagonal).
    """

    head_id: int
    member_ids: Tuple[int, ...]
    tracing_to_members: np.ndarray   # (m-1,)
    tracing_to_head: float
    head_to_members: np.ndarray      # (m-1,)
    member_distances: np.ndarray     # (m-1, m-1)

    @property
    def m(self) -> int:
        return len(self.member_ids) + 1

    def joint_distances(self) -> np.ndarray:
        """(m+1) x (m+1) distance matrix over (tracing point, members..., head)."""
        k = len(self.member_ids)
        d = np.zeros((k + 2, k + 2))
        d[0, 1:k + 1] = self.tracing_to_members
        d[0, k + 1] = self.tracing_to_head
        d[1:k + 1, 1:k + 1] = self.member_distances
        d[1:k + 1, k + 1] = self.head_to_members
        return np.maximum(d, d.T)


def point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast (..., 2) coordinate arrays.

    sqrt(dx*dx + dy*dy) is the one distance formula of the accuracy
    estimators; it rounds as np.linalg.norm(a - b, axis=-1) does.
    """
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    return np.sqrt(dx * dx + dy * dy)


def geometry_from_points(tracing: Position, head: Position,
                         members: Sequence[Position],
                         head_id: int = 0,
                         member_ids: Optional[Sequence[int]] = None,
                         ) -> ClusterGeometry:
    """Build the distance bundle from explicit coordinates."""
    pts = np.array([(tracing.x, tracing.y), (head.x, head.y)]
                   + [(p.x, p.y) for p in members], dtype=float)
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)][0]
        raise NonFiniteCoordinateError(
            f"cluster coordinates must be finite, got ({bad[0]}, {bad[1]})")
    s, h, mem = pts[0], pts[1], pts[2:]
    if member_ids is None:
        member_ids = tuple(range(1, len(members) + 1))
    return ClusterGeometry(
        head_id=head_id,
        member_ids=tuple(member_ids),
        tracing_to_members=point_distances(mem, s),
        tracing_to_head=float(point_distances(h, s)),
        head_to_members=point_distances(mem, h),
        member_distances=point_distances(mem[:, None], mem[None, :]),
    )


def cluster_geometry(cluster: Cluster, deployment: Deployment,
                     tracing_point: TracingPoint) -> ClusterGeometry:
    """Distance bundle for a deployed cluster against one tracing point."""
    try:
        head = deployment.head_by_id(cluster.head_id)
        members = [deployment.normal_by_id(i) for i in cluster.members]
    except KeyError as exc:
        raise UnknownNodeError(f"node id {exc.args[0]} not in deployment") from exc
    return geometry_from_points(
        tracing_point.position, head.position, [n.position for n in members],
        head_id=cluster.head_id, member_ids=cluster.members,
    )


def assignment_kernel_diagnostics(assignment: ClusterAssignment,
                                  deployment: Deployment,
                                  params: CorrelationParams) -> Dict[int, float]:
    """Kernel value of each normal node's distance to its head.

    Nodes are always assigned to the nearest head, even when that kernel
    falls below tau; this map makes weakly correlated members visible.
    """
    out: Dict[int, float] = {}
    for cluster in assignment.clusters:
        head = deployment.head_by_id(cluster.head_id)
        for nid in cluster.members:
            node = deployment.normal_by_id(nid)
            out[nid] = float(kernel(node.position.distance_to(head.position), params))
    return out


def assignment_to_csv(assignment: ClusterAssignment) -> str:
    """CSV with one row per head: head label, semicolon-joined member ids."""
    lines = ["head,members"]
    for cluster in assignment.clusters:
        lines.append(f"CH{cluster.head_id},{';'.join(str(i) for i in cluster.members)}")
    return "\n".join(lines) + "\n"
