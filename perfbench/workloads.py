"""The three benchmark workloads: inputs, one timed pass, and its checks.

Every call into corrsense goes through a module attribute at call time
(`D.build_grid_deployment`, not a name bound at import), so the tracer's
wrappers see it when installed and nothing stands in between when not.

paper       the seven canonical experiments back to back, as users run them
            to regenerate the figures: per-call overhead over thousands of
            small geometries. Never reaches Monte Carlo.
field       one 1200 x 1200 m field, 20 x 20 heads, 20k normals, one large
            call per layer: shows how deployment and clustering scale.
montecarlo  `corrsense accuracy --method monte_carlo --samples 1000000` on a
            60 x 60 m, 2 x 2 head, 60 normal field through corrsense.cli.main:
            the only workload reaching simulate_reading/estimate, the Monte
            Carlo memory footprint, the CLI and the text reader.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

import corrsense.accuracy as A
import corrsense.cli as CLI
import corrsense.clustering as C
import corrsense.deployment as D
import corrsense.experiments as E
import corrsense.spatial_stats as S

from checks import (REFERENCE_DIR, REFERENCE_SEED, check_mc_estimate, check_reference,
                    compare_lines, nearest_heads, oracle_d_a, reference_with_seed)

EXPERIMENTS = ("setup1", "setup2", "fig5", "fig6", "fig8", "fig9", "optimal")
THETA1 = 100.0  # corrsense's default theta1 (experiments and CLI)


def child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((seed,) + key).generate_state(1, np.uint64)[0])


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index`; passes never share inputs."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint32)[0])


def _xy(items) -> np.ndarray:
    return np.array([[p.position.x, p.position.y] for p in items], dtype=float).reshape(-1, 2)


def _oracle_clusters(dep, theta1s=(THETA1,)) -> Dict[int, tuple]:
    """head id -> (member ids, d_a per theta1), from coordinates alone."""
    heads = sorted(dep.heads, key=lambda n: n.id)
    normals = sorted(dep.normals, key=lambda n: n.id)
    head_xy, normal_xy = _xy(heads), _xy(normals)
    normal_ids = np.array([n.id for n in normals], dtype=np.int64)
    nearest = nearest_heads(normal_xy, head_xy)
    tracing = {tp.id: (tp.position.x, tp.position.y) for tp in dep.tracing_points}
    members = [nearest == i for i in range(len(heads))]
    d_a = oracle_d_a([(tracing[h.id], head_xy[i], normal_xy[members[i]])
                      for i, h in enumerate(heads)], theta1s)
    return {h.id: (tuple(int(j) for j in normal_ids[members[i]]), d_a[i])
            for i, h in enumerate(heads)}


def _head_lines(lines: List[str]) -> List[str]:
    """Comment echo lines plus the column header."""
    n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:n + 1]


class Workload:
    ops_per_pass = 1

    def before_pass(self) -> None:
        """Untimed preparation before each pass."""

    def run_pass(self, seed: int):
        raise NotImplementedError

    def check(self, seed: int, outputs) -> List[List[str]]:
        """Failures of each operation of the pass, one list per operation."""
        raise NotImplementedError

    def reference_check(self) -> List[List[str]]:
        """Run a pass at the reference seed and compare bytes; [] if none."""
        return []


# -- paper -------------------------------------------------------------------

class Paper(Workload):
    ops_per_pass = len(EXPERIMENTS)
    SETUP_FIELD = D.FieldSpec(120.0, 120.0)

    def __init__(self, seed: int, workdir: Path):
        self.configs = [E.default_config(name) for name in EXPERIMENTS]

    def run_pass(self, seed: int):
        out = {}
        for config in self.configs:
            try:
                out[config.experiment] = E.run_experiment_csv(replace(config, seed=seed))
            except Exception as exc:  # a failed operation, checked below
                out[config.experiment] = exc
        return out

    def _setup_rows(self, seed: int, run: int):
        config = self.configs[0]
        dep = D.build_grid_deployment(self.SETUP_FIELD, config.grid_rows, config.grid_cols,
                                      config.n_normals, seed=child_seed(seed, 10, run))
        return _oracle_clusters(dep)

    def _fig9_means(self, seed: int, config) -> Dict[float, list]:
        """theta1 -> [(m, mean d_a, std error)] over the config's runs."""
        thetas = config.theta1_values
        rows = {t: [] for t in thetas}
        for m in config.m_values:
            geometries = []
            for run in range(config.runs):
                rng = np.random.default_rng(np.random.SeedSequence((seed, 20, m, run)))
                geometries.append((E.REGION_TRACING, E.REGION_HEAD,
                                   rng.uniform(0.0, E.REGION_SIDE, size=(m - 1, 2))))
            vals = oracle_d_a(geometries, thetas)
            for j, t in enumerate(thetas):
                rows[t].append((m, float(vals[:, j].mean()),
                                float(vals[:, j].std(ddof=1) / np.sqrt(config.runs))))
        return rows

    def expected(self, seed: int) -> Dict[str, list]:
        cfg = {c.experiment: c for c in self.configs}
        exp = {name: reference_with_seed(f"{name}.csv", seed)
               for name in ("fig5", "fig6", "fig8")}
        setup1 = self._setup_rows(seed, 0)
        exp["setup1"] = _head_lines(reference_with_seed("setup1.csv", seed)) + [
            (f"CH{h}", ";".join(map(str, ids)), float(d[0]))
            for h, (ids, d) in sorted(setup1.items())]
        totals: Dict[int, float] = {}
        for run in range(cfg["setup2"].runs):
            for h, (_, d) in (setup1.items() if run == 0 else self._setup_rows(seed, run).items()):
                totals[h] = totals.get(h, 0.0) + float(d[0])
        exp["setup2"] = _head_lines(reference_with_seed("setup2.csv", seed)) + [
            (f"CH{h}", totals[h] / cfg["setup2"].runs) for h in sorted(totals)]
        fig9 = self._fig9_means(seed, cfg["fig9"])
        exp["fig9"] = _head_lines(reference_with_seed("fig9.csv", seed)) + [
            (f"{t:g}", str(m), mean, se) for t in sorted(fig9) for m, mean, se in fig9[t]]
        opt = cfg["optimal"]
        final = fig9[400.0][-1][1]
        best = next(m for m, mean, _ in fig9[400.0] if abs(mean - final) <= opt.epsilon)
        ref = reference_with_seed("optimal.csv", seed)
        fig8_row = next(line for line in ref if line.startswith("fig8,"))
        exp["optimal"] = _head_lines(ref) + [
            fig8_row, ("fig9", "400", f"{opt.epsilon:g}", str(best), final)]
        return exp

    def check(self, seed: int, outputs) -> List[List[str]]:
        expected = self.expected(seed)
        failures = []
        for name in EXPERIMENTS:
            text = outputs[name]
            if isinstance(text, Exception):
                failures.append([f"{name}: {type(text).__name__}: {text}"])
            else:
                failures.append(compare_lines(name, text, expected[name]))
        return failures

    def reference_check(self) -> List[List[str]]:
        outputs = self.run_pass(REFERENCE_SEED)
        checked = self.check(REFERENCE_SEED, outputs)
        return [fails + ([] if isinstance(outputs[name], Exception)
                         else check_reference(f"{name}.csv", outputs[name]))
                for name, fails in zip(EXPERIMENTS, checked)]


# -- field -------------------------------------------------------------------

def render_deployment(dep) -> str:
    """The deployment text format, written out independently of corrsense."""
    lines = [f"field,{dep.field.width:.6f},{dep.field.height:.6f}", f"seed,{dep.seed}"]
    if dep.grid is not None:
        lines.append(f"grid,{dep.grid[0]},{dep.grid[1]}")
    lines += [f"{n.kind.value},{n.id},{n.position.x:.6f},{n.position.y:.6f}"
              for n in dep.heads + dep.normals]
    lines += [f"T,{t.id},{t.position.x:.6f},{t.position.y:.6f}" for t in dep.tracing_points]
    return "\n".join(lines) + "\n"


class Field(Workload):
    ops_per_pass = 6  # build, to_text, from_text, assign, accuracy, csv
    FIELD = D.FieldSpec(1200.0, 1200.0)
    ROWS = COLS = 20
    NORMALS = 20_000

    def __init__(self, seed: int, workdir: Path):
        self.params = S.CorrelationParams(THETA1, 1.0, 0.6)
        self.betas = A.beta_factors(A.NoiseModel.default_profile())

    def run_pass(self, seed: int):
        dep = D.build_grid_deployment(self.FIELD, self.ROWS, self.COLS, self.NORMALS, seed=seed)
        text = D.deployment_to_text(dep)
        parsed = D.deployment_from_text(text)
        assignment = C.assign_clusters(parsed)
        reports = A.accuracy_for_assignment(assignment, parsed, parsed.tracing_points,
                                            self.betas, self.params)
        return dep, text, parsed, assignment, reports, A.reports_to_csv(reports)

    def check(self, seed: int, outputs) -> List[List[str]]:
        dep, text, parsed, assignment, reports, csv = outputs
        build = []
        if (len(dep.heads), len(dep.normals), len(dep.tracing_points)) != \
                (self.ROWS * self.COLS, self.NORMALS, self.ROWS * self.COLS):
            build.append("build: wrong node or tracing-point count")
        if dep.seed != seed or dep.grid != (self.ROWS, self.COLS):
            build.append("build: seed or grid not recorded")
        cell_w, cell_h = self.FIELD.width / self.COLS, self.FIELD.height / self.ROWS
        for tp in dep.tracing_points:
            r, c = divmod(tp.id - 1, self.COLS)
            if not (c * cell_w <= tp.position.x <= (c + 1) * cell_w
                    and r * cell_h <= tp.position.y <= (r + 1) * cell_h):
                build.append(f"build: tracing point {tp.id} outside its head's cell")
        rendered = render_deployment(dep)
        to_text = [] if text == rendered else ["deployment_to_text: text differs from format"]
        from_text = [] if render_deployment(parsed) == rendered else \
            ["deployment_from_text: parsed deployment does not round-trip"]
        oracle = _oracle_clusters(parsed)
        got = {c.head_id: c.members for c in assignment.clusters}
        assign = [] if got == {h: ids for h, (ids, _) in oracle.items()} else \
            ["assign_clusters: partition differs from the nearest-head oracle"]
        accuracy = [f"accuracy: CH{r.head_id} m={r.m} d_a={r.d_a!r} vs oracle"
                    for r in reports
                    if r.head_id not in oracle or r.m != len(oracle[r.head_id][0]) + 1
                    or abs(r.d_a - oracle[r.head_id][1][0]) > 1e-9]
        if len(reports) != len(oracle):
            accuracy.append(f"accuracy: {len(reports)} reports for {len(oracle)} clusters")
        return [build, to_text, from_text, assign, accuracy,
                compare_lines("reports_to_csv", csv, self.report_rows(oracle))]

    @staticmethod
    def report_rows(oracle) -> list:
        """Expected reports CSV lines for the oracle's clusters."""
        return ["head_id,m,method,d_a,distortion,std_err,samples"] + [
            (str(h), str(len(ids) + 1), "closed_form", float(d[0]), 1.0 - float(d[0]), "", "")
            for h, (ids, d) in sorted(oracle.items())]

    def reference_check(self) -> List[List[str]]:
        outputs = self.run_pass(REFERENCE_SEED)
        failures = self.check(REFERENCE_SEED, outputs)
        ref = json.loads((REFERENCE_DIR / "field.json").read_text())
        if hashlib.sha256(outputs[1].encode()).hexdigest() != ref["deployment_sha256"]:
            failures[1].append("deployment text differs from reference")
        failures[5] += check_reference("field_reports.csv", outputs[5])
        return failures


# -- montecarlo --------------------------------------------------------------

SAMPLES = 1_000_000
# seed monte_carlo_accuracy holds about seven float64 arrays of m x samples
BYTES_PER_NODE_SAMPLE = 56


class MemoryGuardError(RuntimeError):
    pass


def mc_footprint_bytes(m: int, samples: int) -> int:
    return BYTES_PER_NODE_SAMPLE * m * samples


def guard_mc_size(m: int, samples: int, mem_total_bytes: int) -> None:
    """Refuse a Monte Carlo size whose footprint exceeds half of MemTotal."""
    need = mc_footprint_bytes(m, samples)
    if need > mem_total_bytes // 2:
        raise MemoryGuardError(
            f"Monte Carlo at m={m}, {samples} samples needs about {need / 2**30:.1f} GiB, "
            f"more than half of MemTotal ({mem_total_bytes / 2**30:.1f} GiB)")


def mem_total_bytes() -> int:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("MemTotal not found")


class MonteCarlo(Workload):
    """Field F: 2 x 2 heads, 60 normals, every cluster 14-18 nodes and the
    largest exactly 18, so the peak footprint is the same for every seed."""

    FIELD = D.FieldSpec(60.0, 60.0)
    M_RANGE = (14, 18)

    def __init__(self, seed: int, workdir: Path):
        for attempt in itertools.count():
            dep = D.build_grid_deployment(self.FIELD, 2, 2, 60, seed=child_seed(seed, 30, attempt))
            text = D.deployment_to_text(dep)
            parsed = D.deployment_from_text(text)
            clusters = _oracle_clusters(parsed)
            sizes = [len(ids) + 1 for ids, _ in clusters.values()]
            if min(sizes) >= self.M_RANGE[0] and max(sizes) == self.M_RANGE[1]:
                break
        guard_mc_size(max(sizes), SAMPLES, mem_total_bytes())
        self.clusters = clusters  # member ids and exact d_a, from F as the CLI reads it
        self.field_path = workdir / f"montecarlo-field-{seed}.txt"
        self.out_path = workdir / f"montecarlo-out-{seed}.csv"
        self.field_path.write_text(text)

    def run_pass(self, seed: int):
        return CLI.main(["accuracy", "--method", "monte_carlo", "--samples", str(SAMPLES),
                         "--deployment", str(self.field_path), "--out", str(self.out_path),
                         "--seed", str(seed)])

    def before_pass(self) -> None:
        self.out_path.unlink(missing_ok=True)

    def check(self, seed: int, rc) -> List[List[str]]:
        if rc != 0:
            return [[f"cli.main exited with {rc}"]]
        lines = self.out_path.read_text().split("\n")
        failures = []
        if lines[0] != "head_id,m,method,d_a,distortion,std_err,samples" or lines[-1] != "" \
                or len(lines) != len(self.clusters) + 2:
            return [[f"unexpected output layout: {lines[:2]!r}..."]]
        for line, (h, (ids, exact)) in zip(lines[1:-1], sorted(self.clusters.items())):
            fields = line.split(",")
            if len(fields) != 7 or fields[:3] != [str(h), str(len(ids) + 1), "monte_carlo"] \
                    or fields[6] != str(SAMPLES):
                failures.append(f"row {line!r} does not match CH{h}")
                continue
            d_a, distortion, std_err = map(float, fields[3:6])
            if abs(d_a + distortion - 1.0) > 2e-6:
                failures.append(f"CH{h}: d_a + distortion != 1")
            failures += check_mc_estimate(h, d_a, std_err, float(exact[0]))
        return [failures]

    @property
    def samples_per_pass(self) -> int:
        return SAMPLES * len(self.clusters)


WORKLOADS = {"paper": Paper, "field": Field, "montecarlo": MonteCarlo}
