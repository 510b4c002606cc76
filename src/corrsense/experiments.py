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
defaults, the settings it reads, its runner and its CSV and JSON writers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .accuracy import (BetaFactors, NoiseModel, _closed_form_batch,
                       _model_record, accuracy_for_assignment, beta_factors,
                       closed_form_accuracy)
from .clustering import ClusterGeometry, assign_clusters, geometry_from_points
from .deployment import (RNG_NAME, Deployment, FieldSpec, Position,
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
    params: CorrelationParams = CorrelationParams(theta1=100.0, theta2=1.0, tau=0.6)
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
        for name, ok, rule in (
                ("runs", self.runs >= 1, ">= 1"),
                ("epsilon", self.epsilon > 0, "> 0"),
                ("field_width", 0 < self.field_width < math.inf, "finite, > 0"),
                ("field_height", 0 < self.field_height < math.inf, "finite, > 0"),
                ("grid_rows", self.grid_rows >= 1, ">= 1"),
                ("grid_cols", self.grid_cols >= 1, ">= 1"),
                ("n_normals", self.n_normals >= 0, ">= 0"),
                ("noise_profile", self.noise_profile in NOISE_PROFILES,
                 f"one of {', '.join(NOISE_PROFILES)}"),
                ("theta1_values", all(t > 0 for t in self.theta1_values), "> 0"),
                ("radius_values", all(0 <= r < math.inf for r in self.radius_values),
                 "finite, >= 0"),
                ("m_values", all(m >= 1 for m in self.m_values), ">= 1")):
            if not ok:
                raise InvalidConfigError(f"{self.experiment}: {name} must be "
                                         f"{rule}, got {getattr(self, name)!r}")

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
    member_ids: Tuple[int, ...]
    d_a: float


@dataclass(frozen=True)
class AverageRow:
    head_id: int
    d_a: float


def _provenance(config: ExperimentConfig) -> dict:
    """Everything that determines a run's output. The CSV header renders it
    as comment lines (_echo_lines); the JSON output carries it as `config`."""
    noise = config.noise()
    betas = beta_factors(noise)
    model = _model_record(config.params, noise)
    record = {"version": __version__, "rng": RNG_NAME, **asdict(config),
              **model["params"], "noise": model["noise"],
              "beta": betas.beta, "beta_ch": betas.beta_ch}
    del record["params"]  # flattened into theta1, theta2 and tau
    return record


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


def circle_cluster(m: int, radius: float,
                   center: Tuple[float, float] = (0.0, 0.0)) -> ClusterGeometry:
    """m nodes equally spaced on a circle around the tracing point.

    The head sits at angle 0; members follow counterclockwise.
    """
    if m < 1:
        raise ValueError("need at least the head node")
    cx, cy = center
    angles = [2.0 * math.pi * k / m for k in range(m)]
    pts = [Position(cx + radius * math.cos(a), cy + radius * math.sin(a))
           for a in angles]
    return geometry_from_points(Position(cx, cy), pts[0], pts[1:])


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


def _setup_run(config: ExperimentConfig, run: int
               ) -> Tuple[Deployment, List[ClusterTableRow]]:
    dep = build_grid_deployment(
        FieldSpec(config.field_width, config.field_height),
        config.grid_rows, config.grid_cols, config.n_normals,
        seed=_child_seed(config.seed, _TAG_RUN, run),
    )
    assignment = assign_clusters(dep)
    reports = accuracy_for_assignment(assignment, dep, dep.tracing_points,
                                      config.betas(), config.params)
    members = {c.head_id: c.members for c in assignment.clusters}
    rows = [ClusterTableRow(r.head_id, members[r.head_id], r.d_a)
            for r in reports]
    return dep, rows


def run_setup1(config: ExperimentConfig) -> List[ClusterTableRow]:
    """Single seeded deployment: per-cluster member lists and accuracy."""
    _, rows = _setup_run(config, run=0)
    return rows


def run_setup2(config: ExperimentConfig) -> List[AverageRow]:
    """Average accuracy per head over `runs` re-randomized deployments.

    Heads stay on the grid; normals and tracing points re-randomize each
    run. Heads left without members still contribute their own sensing.
    """
    totals: Dict[int, float] = {}
    for run in range(config.runs):
        _, rows = _setup_run(config, run=run)
        for row in rows:
            totals[row.head_id] = totals.get(row.head_id, 0.0) + row.d_a
    return [AverageRow(head_id=h, d_a=totals[h] / config.runs)
            for h in sorted(totals)]


def run_fig5(config: ExperimentConfig) -> List[SweepResult]:
    """Accuracy of a 4-node circular cluster versus circle radius."""
    betas = config.betas()
    results = []
    for theta1 in config.theta1_values:
        params = replace(config.params, theta1=theta1)
        points = []
        for radius in config.radius_values:
            rep = closed_form_accuracy(circle_cluster(4, radius), betas, params)
            points.append(SweepPoint(m=4, value=radius, d_a=rep.d_a))
        results.append(SweepResult("fig5", "radius", theta1, tuple(points)))
    _assert_fig5(results)
    return results


def run_fig6(config: ExperimentConfig) -> List[SweepResult]:
    """Accuracy of a radius-5 circular cluster versus node count.

    Each curve is annotated with the 2-to-3 node jump and the plateau
    onset (first count from which consecutive gaps stay below 0.005).
    """
    betas = config.betas()
    results = []
    for theta1 in config.theta1_values:
        params = replace(config.params, theta1=theta1)
        points = []
        for m in config.m_values:
            rep = closed_form_accuracy(circle_cluster(m, 5.0), betas, params)
            points.append(SweepPoint(m=m, value=float(m), d_a=rep.d_a))
        results.append(SweepResult("fig6", "m", theta1, tuple(points),
                                   notes=_fig6_notes(theta1, points)))
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
    betas = config.betas()
    area = REGION_SIDE * REGION_SIDE
    m_values = range(4, len(region_grid_order()) + 1, 4)
    results = []
    for theta1 in config.theta1_values:
        params = replace(config.params, theta1=theta1)
        points = []
        for m in m_values:
            rep = closed_form_accuracy(grid_cluster(m), betas, params)
            points.append(SweepPoint(m=m, value=m / area, d_a=rep.d_a))
        results.append(SweepResult("fig8", "density", theta1, tuple(points)))
    _assert_fig8(results)
    return results


def run_fig9(config: ExperimentConfig) -> List[SweepResult]:
    """Average accuracy of a random cluster versus node count.

    For every (m, run) pair a fresh set of m-1 member positions is drawn
    uniformly over the region; the same geometry serves every theta1, so
    curves differ only through the kernel range.
    """
    betas = config.betas()
    params = [replace(config.params, theta1=t) for t in config.theta1_values]
    tracing = np.tile(REGION_TRACING, (config.runs, 1))
    head = np.tile(REGION_HEAD, (config.runs, 1))
    curves: List[List[SweepPoint]] = [[] for _ in params]
    for m in config.m_values:
        members = np.stack([
            np.random.default_rng(np.random.SeedSequence(
                (config.seed, _TAG_REGION, m, run))
            ).uniform(0.0, REGION_SIDE, size=(m - 1, 2))
            for run in range(config.runs)])
        d_a = _closed_form_batch(tracing, head, members, betas, params)
        for points, vals in zip(curves, d_a.T.copy()):  # one row per theta1
            std_err = float(vals.std(ddof=1) / math.sqrt(len(vals))) \
                if len(vals) > 1 else 0.0
            points.append(SweepPoint(m=m, value=float(m),
                                     d_a=float(vals.mean()), std_err=std_err))
    results = [SweepResult("fig9", "m", t, tuple(points))
               for t, points in zip(config.theta1_values, curves)]
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
    _assert_increasing_values(results)
    for r in results:
        das = [p.d_a for p in r.points]
        if any(b >= a for a, b in zip(das, das[1:])):
            raise SweepInvariantError(
                f"fig5: accuracy not strictly decreasing in radius "
                f"at theta1={r.theta1:g}")
    _assert_theta_ordering(results)


def _assert_fig6(results: Sequence[SweepResult]) -> None:
    _assert_increasing_values(results)
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
    _assert_theta_ordering(results)


def _assert_fig8(results: Sequence[SweepResult]) -> None:
    _assert_increasing_values(results)
    _assert_theta_ordering(results)
    curve = _curve(results, 400.0)
    if curve is not None:
        by_m = {p.m: p.d_a for p in curve.points}
        if 20 in by_m and by_m[20] - curve.points[-1].d_a >= 0.01:
            raise SweepInvariantError("fig8: m=20 overshoots the full-grid "
                                      "accuracy at theta1=400")


def _assert_fig9(results: Sequence[SweepResult]) -> None:
    _assert_increasing_values(results)
    _assert_theta_ordering(results)
    curve = _curve(results, 400.0)
    if curve is not None:
        final = curve.points[-1].d_a
        for p in curve.points:
            if p.m >= 15 and abs(p.d_a - final) >= 0.01:
                raise SweepInvariantError(
                    f"fig9: average accuracy at m={p.m} deviates "
                    f"{abs(p.d_a - final):.6f} from the plateau at theta1=400")


# --- CSV emission -----------------------------------------------------------

def setup1_to_csv(rows: Sequence[ClusterTableRow],
                  config: ExperimentConfig) -> str:
    lines = _echo_lines(config) + ["head,members,d_a"]
    for row in rows:
        members = ";".join(str(i) for i in row.member_ids)
        lines.append(f"CH{row.head_id},{members},{row.d_a:.6f}")
    return "\n".join(lines) + "\n"


def setup2_to_csv(rows: Sequence[AverageRow], config: ExperimentConfig) -> str:
    lines = _echo_lines(config) + ["head,avg_d_a"]
    for row in rows:
        lines.append(f"CH{row.head_id},{row.d_a:.6f}")
    return "\n".join(lines) + "\n"


def sweeps_to_csv(results: Sequence[SweepResult],
                  config: ExperimentConfig) -> str:
    has_err = any(p.std_err is not None for r in results for p in r.points)
    sweep = results[0].sweep if results else "value"
    value_col = "" if sweep == "m" else f",{sweep}"  # node count is the value
    header = f"theta1,m{value_col},d_a" + (",std_err" if has_err else "")
    lines = _echo_lines(config)
    for r in sorted(results, key=lambda r: r.theta1):
        lines.extend(f"# {note}" for note in r.notes)
    lines.append(header)
    for r in sorted(results, key=lambda r: r.theta1):
        for p in r.points:
            row = f"{r.theta1:g},{p.m}"
            if value_col:
                row += f",{p.value:.6f}"
            row += f",{p.d_a:.6f}"
            if has_err:
                row += f",{0.0 if p.std_err is None else p.std_err:.6f}"
            lines.append(row)
    return "\n".join(lines) + "\n"


def optimal_to_csv(rows: Sequence[OptimalRow],
                   config: ExperimentConfig) -> str:
    lines = _echo_lines(config) + ["experiment,theta1,epsilon,optimal_m,final_d_a"]
    for row in rows:
        lines.append(f"{row.experiment},{row.theta1:g},{row.epsilon:g},"
                     f"{row.optimal_m},{row.final_d_a:.6f}")
    return "\n".join(lines) + "\n"


# --- registry -----------------------------------------------------------------

class Experiment(NamedTuple):
    defaults: dict  # ExperimentConfig fields that differ from the class defaults
    reads: Tuple[str, ...]  # settings the runner uses (params split per field)
    run: Callable
    to_csv: Callable
    to_rows: Callable = lambda rows: [asdict(r) for r in rows]  # JSON rows


_MODEL_READS = ("theta2", "tau", "noise_profile")
_FIELD_READS = ("seed", "theta1", "field_width", "field_height", "grid_rows",
                "grid_cols", "n_normals")
_FIG9_M = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100)

EXPERIMENTS: Dict[str, Experiment] = {
    "setup1": Experiment(
        {}, _MODEL_READS + _FIELD_READS, run_setup1, setup1_to_csv,
        lambda rows: [{"head_id": r.head_id, "members": list(r.member_ids),
                       "d_a": r.d_a} for r in rows]),
    "setup2": Experiment(
        dict(runs=100), _MODEL_READS + _FIELD_READS + ("runs",), run_setup2,
        setup2_to_csv,
        lambda rows: [{"head_id": r.head_id, "avg_d_a": r.d_a} for r in rows]),
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
    return experiment.to_csv(experiment.run(config), config)


def run_experiment_json(config: ExperimentConfig) -> str:
    """Run the configured experiment and render its rows as JSON."""
    experiment = _lookup(config.experiment)
    payload = {"config": _provenance(config),
               "rows": experiment.to_rows(experiment.run(config))}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
