"""Seeded experiment drivers.

Each runner is a pure function of its config: same config and seed give
byte-identical CSV. The six canonical runs are

  setup1  per-cluster accuracy table on a 120 x 120 field (25 heads, 100
          normals, one random tracing point per grid cell)
  setup2  the same field re-randomized over many runs, averaged per head
  fig5    circular cluster of 4 nodes, accuracy vs circle radius
  fig6    circular cluster of radius 5, accuracy vs node count
  fig8    30 x 30 grid cluster grown outside-in by 4 nodes per step,
          accuracy vs node density
  fig9    30 x 30 random cluster, average accuracy vs node count

plus `optimal`, which locates the smallest cluster size whose accuracy
already sits on a sweep's terminal plateau. Structural properties of each
sweep (monotonicity, the 2-to-3 node jump, terminal plateaus) are asserted
after every run and violation fails the run. EXPERIMENTS holds each run's
defaults, the settings it reads, its runner and its CSV writer. A row's
fields are named as its CSV columns, and its JSON form is asdict(row).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ._version import __version__
from .accuracy import (BetaFactors, NoiseModel, _closed_form_batch,
                       _closed_form_by_size, _model_record, beta_factors)
from .clustering import (ClusterAssignment, ClusterGeometry, assign_clusters,
                         cluster_geometry, geometry_from_points)
from .deployment import (_COORDINATE_BOUND, RNG_NAME, FieldSpec, Position,
                         build_grid_deployment)
from .errors import InvalidConfigError, NoPlateauError, SweepInvariantError
from .spatial_stats import CorrelationParams

NOISE_PROFILES = {
    "default": NoiseModel.default_profile,
    "noiseless": NoiseModel.noiseless,
}

# fixed single-cluster region for the fig8/fig9 setups
REGION_SIDE = 30.0
GRID_SPACING = 5.0
REGION_TRACING = (15.0, 15.0)
REGION_HEAD = (0.0, 0.0)

_TAG_RUN = 10
_TAG_REGION = 20


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    theta1: float = 100.0
    theta2: float = 1.0
    tau: float = 0.6
    noise_profile: str = "default"
    seed: int = 7
    runs: int = 1
    field_width: float = 120.0
    field_height: float = 120.0
    grid_rows: int = 5
    grid_cols: int = 5
    n_normals: int = 100
    theta1_values: Tuple[float, ...] = ()
    radius_values: Tuple[float, ...] = ()
    m_values: Tuple[int, ...] = ()
    epsilon: float = 0.01

    def __post_init__(self):
        self.params  # CorrelationParams refuses a bad theta1, theta2 or tau
        for name, ok, rule in (
                ("seed", self.seed >= 0, ">= 0"),
                ("runs", self.runs >= 1, ">= 1"),
                ("epsilon", self.epsilon > 0, "> 0"),
                ("field_width", 0 < self.field_width <= _COORDINATE_BOUND,
                 "> 0 and <= 2**510"),
                ("field_height", 0 < self.field_height <= _COORDINATE_BOUND,
                 "> 0 and <= 2**510"),
                ("grid_rows", self.grid_rows >= 1, ">= 1"),
                ("grid_cols", self.grid_cols >= 1, ">= 1"),
                ("n_normals", self.n_normals >= 0, ">= 0"),
                ("noise_profile", self.noise_profile in NOISE_PROFILES,
                 f"one of {', '.join(NOISE_PROFILES)}"),
                ("theta1_values", all(t > 0 for t in self.theta1_values), "> 0"),
                ("radius_values",
                 all(0 <= r <= _COORDINATE_BOUND for r in self.radius_values),
                 ">= 0 and <= 2**510"),
                ("m_values", all(m >= 1 for m in self.m_values), ">= 1")):
            if not ok:
                raise InvalidConfigError(f"{self.experiment}: {name} must be "
                                         f"{rule}, got {getattr(self, name)!r}")

    @property
    def params(self) -> CorrelationParams:
        return CorrelationParams(self.theta1, self.theta2, self.tau)

    def noise(self) -> NoiseModel:
        return NOISE_PROFILES[self.noise_profile]()

    def betas(self) -> BetaFactors:
        return beta_factors(self.noise())


def _lookup(experiment: str) -> "Experiment":
    try:
        return EXPERIMENTS[experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"choose from {', '.join(EXPERIMENTS)}") from None


def default_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment,
                            **_lookup(experiment).defaults)


@dataclass(frozen=True)
class SweepPoint:
    m: int
    value: float  # radius, node count, or density depending on the sweep
    d_a: float
    std_err: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    experiment: str
    sweep: str  # "radius", "m", or "density"
    theta1: float
    points: Tuple[SweepPoint, ...]
    notes: Tuple[str, ...] = ()  # rendered as CSV comments


@dataclass(frozen=True)
class ClusterTableRow:
    head_id: int
    members: Tuple[int, ...]
    d_a: float


@dataclass(frozen=True)
class AverageRow:
    head_id: int
    avg_d_a: float


def _provenance(config: ExperimentConfig) -> dict:
    """Everything that determines a run's output. The CSV header renders it
    as comment lines (_echo_lines); the JSON output carries it as `config`."""
    noise = config.noise()
    betas = beta_factors(noise)
    model = _model_record(config.params, noise)
    return {"version": __version__, "rng": RNG_NAME, **asdict(config),
            **model["params"], "noise": model["noise"],
            "beta": betas.beta, "beta_ch": betas.beta_ch}


def _echo_lines(config: ExperimentConfig) -> List[str]:
    r = _provenance(config)
    lines = [
        f"# corrsense {r['version']} experiment={r['experiment']}",
        f"# seed={r['seed']} runs={r['runs']} rng={r['rng']}",
        f"# field={r['field_width']:g}x{r['field_height']:g}"
        f" grid={r['grid_rows']}x{r['grid_cols']}"
        f" normals={r['n_normals']} epsilon={r['epsilon']:g}",
        f"# kernel={r['kernel']} log=natural theta1={r['theta1']:g}"
        f" theta2={r['theta2']:g} tau={r['tau']:g}",
        f"# noise={r['noise_profile']} "
        + " ".join(f"{k}={v:g}" for k, v in r["noise"].items())
        + f" beta={r['beta']:.6f} beta_ch={r['beta_ch']:.6f}",
    ]
    for key, fmt in (("theta1_values", "{:g}"), ("radius_values", "{:g}"),
                     ("m_values", "{}")):
        if r[key]:
            lines.append(f"# {key}=" + ",".join(map(fmt.format, r[key])))
    return lines


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((seed,) + key).generate_state(1, np.uint64)[0])


def circle_cluster(m: int, radius: float) -> ClusterGeometry:
    """m nodes equally spaced on a circle around the tracing point (origin).

    The head sits at angle 0; members follow counterclockwise.
    """
    if m < 1:
        raise ValueError("need at least the head node")
    angles = [2.0 * math.pi * k / m for k in range(m)]
    pts = [Position(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    return geometry_from_points(Position(0.0, 0.0), pts[0], pts[1:])


def region_grid_order() -> List[Tuple[float, float]]:
    """Grid points of the 30 x 30 region, farthest-from-center first.

    The center point is the tracing point and carries no node; ties break
    on ascending (x, y), keeping growth deterministic. The head corner is
    among the first four (the extreme corners).
    """
    n = int(REGION_SIDE / GRID_SPACING) + 1
    pts = [(i * GRID_SPACING, j * GRID_SPACING)
           for i in range(n) for j in range(n)]
    sx, sy = REGION_TRACING
    pts = [p for p in pts if p != (sx, sy)]
    return sorted(pts, key=lambda p: (-math.hypot(p[0] - sx, p[1] - sy), p))


def grid_cluster(m: int) -> ClusterGeometry:
    """First m grid nodes of the region in outside-in growth order."""
    order = region_grid_order()
    if not 1 <= m <= len(order):
        raise ValueError(f"m must be in [1, {len(order)}]")
    chosen = order[:m]
    if REGION_HEAD not in chosen:
        raise ValueError("growth order must start at the head corner")
    members = [Position(*p) for p in chosen if p != REGION_HEAD]
    return geometry_from_points(Position(*REGION_TRACING), Position(*REGION_HEAD),
                                members)


def _setup_runs(config: ExperimentConfig,
                runs: int) -> Tuple[ClusterAssignment, np.ndarray]:
    """Run 0's assignment and the (runs, heads) d_a of every run's clusters.

    Each run deploys, assigns and takes its clusters' geometries in turn,
    heads in id order; all clusters are scored together, grouped by size.
    """
    first: List[ClusterAssignment] = []

    def geometries() -> Iterator[ClusterGeometry]:
        for run in range(runs):
            dep = build_grid_deployment(
                FieldSpec(config.field_width, config.field_height),
                config.grid_rows, config.grid_cols, config.n_normals,
                seed=_child_seed(config.seed, _TAG_RUN, run),
            )
            assignment = assign_clusters(dep)
            if run == 0:
                first.append(assignment)
            for cluster in assignment.clusters:
                yield cluster_geometry(cluster, dep,
                                       dep.tracing_point_by_id(cluster.head_id))

    d_a = _closed_form_by_size(geometries(), config.betas(), config.params)
    return first[0], d_a.reshape(runs, -1)


def run_setup1(config: ExperimentConfig) -> List[ClusterTableRow]:
    """Single seeded deployment: per-cluster member lists and accuracy."""
    assignment, d_a = _setup_runs(config, runs=1)
    return [ClusterTableRow(c.head_id, c.members, float(d))
            for c, d in zip(assignment.clusters, d_a[0])]


def run_setup2(config: ExperimentConfig) -> List[AverageRow]:
    """Average accuracy per head over `runs` re-randomized deployments.

    Heads stay on the grid; normals and tracing points re-randomize each
    run. Heads left without members still contribute their own sensing.
    """
    assignment, d_a = _setup_runs(config, runs=config.runs)
    totals = np.zeros(d_a.shape[1])
    for row in d_a:  # in run order; a pairwise sum would round differently
        totals += row
    return [AverageRow(head_id=c.head_id, avg_d_a=float(t / config.runs))
            for c, t in zip(assignment.clusters, totals)]


def _sweep(config: ExperimentConfig, sweep: str, xs: Sequence,
           clusters: Callable[..., Tuple[int, float, np.ndarray]],
           std_err: bool = False) -> List[SweepResult]:
    """One curve per theta1 over the sweep points xs, each scored in one batch.

    clusters(x) gives (m, value, points) with points stacked (n, m+1, 2);
    a point's d_a is the mean over its n clusters, and with std_err its
    standard error (0 for a single cluster). The checks every sweep shares
    run here.
    """
    betas = config.betas()
    params = [replace(config.params, theta1=t) for t in config.theta1_values]
    curves: List[List[SweepPoint]] = [[] for _ in params]
    for x in xs:
        m, value, points = clusters(x)
        d_a = _closed_form_batch(points, betas, params)
        for curve, vals in zip(curves, d_a.T.copy()):  # one row per theta1
            err = None
            if std_err:
                err = float(vals.std(ddof=1) / math.sqrt(len(vals))) \
                    if len(vals) > 1 else 0.0
            curve.append(SweepPoint(m=m, value=value, d_a=float(vals.mean()),
                                    std_err=err))
    results = [SweepResult(config.experiment, sweep, t, tuple(curve))
               for t, curve in zip(config.theta1_values, curves)]
    _assert_increasing_values(results)
    _assert_theta_ordering(results)
    return results


def run_fig5(config: ExperimentConfig) -> List[SweepResult]:
    """Accuracy of a 4-node circular cluster versus circle radius."""
    results = _sweep(config, "radius", config.radius_values,
                     lambda r: (4, r, circle_cluster(4, r).points[None]))
    _assert_fig5(results)
    return results


def run_fig6(config: ExperimentConfig) -> List[SweepResult]:
    """Accuracy of a radius-5 circular cluster versus node count.

    Each curve is annotated with the 2-to-3 node jump and the plateau
    onset (first count from which consecutive gaps stay below 0.005).
    """
    results = [replace(r, notes=_fig6_notes(r.theta1, r.points))
               for r in _sweep(config, "m", config.m_values, lambda m: (
                   m, float(m), circle_cluster(m, 5.0).points[None]))]
    _assert_fig6(results)
    return results


def _fig6_notes(theta1: float, points: Sequence[SweepPoint]) -> Tuple[str, ...]:
    by_m = {p.m: p.d_a for p in points}
    notes = []
    if 2 in by_m and 3 in by_m:
        notes.append(f"fig6 theta1={theta1:g} jump_2_to_3={by_m[3] - by_m[2]:+.6f}")
    onset = None
    for i in range(len(points) - 1, 0, -1):
        if abs(points[i].d_a - points[i - 1].d_a) >= 0.005:
            break
        onset = points[i - 1].m
    if onset is not None:
        notes.append(f"fig6 theta1={theta1:g} plateau_onset_m={onset}")
    return tuple(notes)


def run_fig8(config: ExperimentConfig) -> List[SweepResult]:
    """Accuracy of the grid cluster versus node density, grown outside-in."""
    area = REGION_SIDE * REGION_SIDE
    results = _sweep(config, "density",
                     range(4, len(region_grid_order()) + 1, 4),
                     lambda m: (m, m / area, grid_cluster(m).points[None]))
    _assert_fig8(results)
    return results


def run_fig9(config: ExperimentConfig) -> List[SweepResult]:
    """Average accuracy of a random cluster versus node count.

    For every (m, run) pair a fresh set of m-1 member positions is drawn
    uniformly over the region; the same geometry serves every theta1, so
    curves differ only through the kernel range.
    """
    def clusters(m: int) -> Tuple[int, float, np.ndarray]:
        return m, float(m), np.stack([np.vstack([
            REGION_TRACING,
            np.random.default_rng(np.random.SeedSequence(
                (config.seed, _TAG_REGION, m, run))
            ).uniform(0.0, REGION_SIDE, size=(m - 1, 2)),
            REGION_HEAD]) for run in range(config.runs)])

    results = _sweep(config, "m", config.m_values, clusters, std_err=True)
    _assert_fig9(results)
    return results


def find_optimal_cluster(sweep: SweepResult, epsilon: float) -> int:
    """Smallest node count whose accuracy is within epsilon of the sweep's end.

    The sweep must end in a plateau: its last three points must agree
    pairwise within epsilon, otherwise there is nothing to converge to.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    points = sweep.points
    if len(points) < 3:
        raise NoPlateauError("need at least 3 sweep points to detect a plateau")
    tail = [p.d_a for p in points[-3:]]
    if max(tail) - min(tail) > epsilon:
        raise NoPlateauError(
            f"no terminal plateau: last 3 points spread "
            f"{max(tail) - min(tail):.6f} > {epsilon:.6f}")
    final = points[-1].d_a
    for p in points:
        if abs(p.d_a - final) <= epsilon:
            return p.m
    raise NoPlateauError("unreachable: final point is within epsilon of itself")


@dataclass(frozen=True)
class OptimalRow:
    experiment: str
    theta1: float
    epsilon: float
    optimal_m: int
    final_d_a: float


def run_optimal(config: ExperimentConfig) -> List[OptimalRow]:
    """Plateau search over the grid-growth and random-cluster sweeps."""
    rows = []
    for name, runner in (("fig8", run_fig8), ("fig9", run_fig9)):
        for sweep in runner(replace(config, experiment=name)):
            rows.append(OptimalRow(name, sweep.theta1, config.epsilon,
                                   find_optimal_cluster(sweep, config.epsilon),
                                   sweep.points[-1].d_a))
    return rows


# --- post-run structural checks -------------------------------------------

def _curve(results: Sequence[SweepResult], theta1: float) -> Optional[SweepResult]:
    for r in results:
        if r.theta1 == theta1:
            return r
    return None


def _assert_increasing_values(results: Sequence[SweepResult]) -> None:
    for r in results:
        vals = [p.value for p in r.points]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise SweepInvariantError(f"{r.experiment}: sweep values not "
                                      f"strictly increasing at theta1={r.theta1:g}")


def _assert_theta_ordering(results: Sequence[SweepResult]) -> None:
    ordered = sorted(results, key=lambda r: r.theta1)
    for low, high in zip(ordered, ordered[1:]):
        for a, b in zip(low.points, high.points):
            if b.d_a < a.d_a - 1e-12:
                raise SweepInvariantError(
                    f"{low.experiment}: theta1={high.theta1:g} curve dips below "
                    f"theta1={low.theta1:g} at value {a.value:g}")


def _assert_fig5(results: Sequence[SweepResult]) -> None:
    for r in results:
        das = [p.d_a for p in r.points]
        if any(b >= a for a, b in zip(das, das[1:])):
            raise SweepInvariantError(
                f"fig5: accuracy not strictly decreasing in radius "
                f"at theta1={r.theta1:g}")


def _assert_fig6(results: Sequence[SweepResult]) -> None:
    for r in results:
        by_m = {p.m: p.d_a for p in r.points}
        if 2 in by_m and 3 in by_m and by_m[3] <= by_m[2]:
            raise SweepInvariantError(
                f"fig6: no 2-to-3 node jump at theta1={r.theta1:g}")
        plateau = [p.d_a for p in r.points if p.m >= 8]
        gaps = [abs(b - a) for a, b in zip(plateau, plateau[1:])]
        if gaps and max(gaps) >= 0.005:
            raise SweepInvariantError(
                f"fig6: plateau gap {max(gaps):.6f} >= 0.005 "
                f"at theta1={r.theta1:g}")


def _assert_fig8(results: Sequence[SweepResult]) -> None:
    curve = _curve(results, 400.0)
    if curve is not None:
        by_m = {p.m: p.d_a for p in curve.points}
        if 20 in by_m and by_m[20] - curve.points[-1].d_a >= 0.01:
            raise SweepInvariantError("fig8: m=20 overshoots the full-grid "
                                      "accuracy at theta1=400")


def _assert_fig9(results: Sequence[SweepResult]) -> None:
    curve = _curve(results, 400.0)
    if curve is not None:
        final = curve.points[-1].d_a
        for p in curve.points:
            if p.m >= 15 and abs(p.d_a - final) >= 0.01:
                raise SweepInvariantError(
                    f"fig9: average accuracy at m={p.m} deviates "
                    f"{abs(p.d_a - final):.6f} from the plateau at theta1=400")


# --- CSV emission -----------------------------------------------------------

def setup1_to_csv(rows: Sequence[ClusterTableRow]) -> List[str]:
    return ["head,members,d_a"] + [
        f"CH{r.head_id},{';'.join(map(str, r.members))},{r.d_a:.6f}"
        for r in rows]


def setup2_to_csv(rows: Sequence[AverageRow]) -> List[str]:
    return ["head,avg_d_a"] + [f"CH{r.head_id},{r.avg_d_a:.6f}" for r in rows]


def sweeps_to_csv(results: Sequence[SweepResult]) -> List[str]:
    has_err = any(p.std_err is not None for r in results for p in r.points)
    sweep = results[0].sweep if results else "value"
    value_col = "" if sweep == "m" else f",{sweep}"  # node count is the value
    results = sorted(results, key=lambda r: r.theta1)
    lines = [f"# {note}" for r in results for note in r.notes]
    lines.append(f"theta1,m{value_col},d_a" + (",std_err" if has_err else ""))
    for r in results:
        for p in r.points:
            row = f"{r.theta1:g},{p.m}"
            if value_col:
                row += f",{p.value:.6f}"
            row += f",{p.d_a:.6f}"
            if has_err:
                row += f",{0.0 if p.std_err is None else p.std_err:.6f}"
            lines.append(row)
    return lines


def optimal_to_csv(rows: Sequence[OptimalRow]) -> List[str]:
    return ["experiment,theta1,epsilon,optimal_m,final_d_a"] + [
        f"{r.experiment},{r.theta1:g},{r.epsilon:g},{r.optimal_m},"
        f"{r.final_d_a:.6f}" for r in rows]


# --- registry -----------------------------------------------------------------

class Experiment(NamedTuple):
    defaults: dict  # ExperimentConfig fields that differ from the class defaults
    reads: Tuple[str, ...]  # settings the runner uses
    run: Callable  # config -> rows, each a dataclass
    to_csv: Callable  # rows -> CSV lines below the provenance header


_MODEL_READS = ("theta2", "noise_profile")
_FIELD_READS = ("seed", "theta1", "field_width", "field_height", "grid_rows",
                "grid_cols", "n_normals")
_FIG9_M = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100)

EXPERIMENTS: Dict[str, Experiment] = {
    "setup1": Experiment({}, _MODEL_READS + _FIELD_READS, run_setup1,
                         setup1_to_csv),
    "setup2": Experiment(dict(runs=100), _MODEL_READS + _FIELD_READS + ("runs",),
                         run_setup2, setup2_to_csv),
    "fig5": Experiment(
        dict(theta1_values=(50.0, 100.0),
             radius_values=(1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0,
                            40.0, 50.0)),
        _MODEL_READS + ("theta1_values", "radius_values"),
        run_fig5, sweeps_to_csv),
    "fig6": Experiment(
        dict(theta1_values=(50.0, 100.0, 200.0, 400.0),
             m_values=tuple(range(2, 17))),
        _MODEL_READS + ("theta1_values", "m_values"),
        run_fig6, sweeps_to_csv),
    "fig8": Experiment(dict(theta1_values=(50.0, 400.0)),
                       _MODEL_READS + ("theta1_values",),
                       run_fig8, sweeps_to_csv),
    "fig9": Experiment(
        dict(theta1_values=(50.0, 100.0, 200.0, 400.0), m_values=_FIG9_M,
             runs=100),
        _MODEL_READS + ("seed", "runs", "theta1_values", "m_values"),
        run_fig9, sweeps_to_csv),
    "optimal": Experiment(
        dict(theta1_values=(400.0,), m_values=_FIG9_M, runs=100),
        _MODEL_READS + ("seed", "runs", "theta1_values", "m_values", "epsilon"),
        run_optimal, optimal_to_csv),
}


def run_experiment_csv(config: ExperimentConfig) -> str:
    """Run the configured experiment and render its canonical CSV."""
    experiment = _lookup(config.experiment)
    lines = _echo_lines(config) + experiment.to_csv(experiment.run(config))
    return "\n".join(lines) + "\n"


def run_experiment_json(config: ExperimentConfig) -> str:
    """Run the configured experiment and render its rows as JSON."""
    experiment = _lookup(config.experiment)
    payload = {"config": _provenance(config),
               "rows": [asdict(row) for row in experiment.run(config)]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
