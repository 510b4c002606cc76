"""In-memory span tracer that wraps corrsense's public functions from outside.

`Tracer.install()` replaces each traced function on every corrsense module
that binds it by name (so `kernel`, imported into `accuracy` and
`clustering`, is caught wherever it is called from) and `restore()` puts
the originals back, so untraced passes never run through a wrapper. Spans
are kept as parallel arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array
from typing import Callable, Dict, List

import numpy as np


def _text_bytes(result, args) -> int:
    text = result if isinstance(result, str) else args[0]
    return len(text.encode())


def _csv_rows(text: str) -> int:
    return sum(1 for line in text.splitlines() if not line.startswith("#")) - 1


# (defining module, function, span name) -- the span name of
# run_experiment_csv is taken from the config it is called with.
TRACED = [
    ("corrsense.spatial_stats", "kernel", "spatial_stats.kernel"),
    ("corrsense.clustering", "assign_clusters", "clustering.assign_clusters"),
    ("corrsense.clustering", "cluster_geometry", "clustering.cluster_geometry"),
    ("corrsense.clustering", "geometry_from_points", "clustering.geometry_from_points"),
    ("corrsense.deployment", "build_grid_deployment", "deployment.build_grid_deployment"),
    ("corrsense.deployment", "deployment_to_text", "deployment.deployment_to_text"),
    ("corrsense.deployment", "deployment_from_text", "deployment.deployment_from_text"),
    ("corrsense.accuracy", "closed_form_accuracy", "accuracy.closed_form_accuracy"),
    ("corrsense.accuracy", "monte_carlo_accuracy", "accuracy.monte_carlo_accuracy"),
    ("corrsense.accuracy", "simulate_reading", "accuracy.simulate_reading"),
    ("corrsense.accuracy", "estimate", "accuracy.estimate"),
    ("corrsense.accuracy", "accuracy_for_assignment", "accuracy.accuracy_for_assignment"),
    ("corrsense.accuracy", "reports_to_csv", "accuracy.reports_to_csv"),
    ("corrsense.experiments", "run_experiment_csv", "experiments"),
    ("corrsense.cli", "main", "cli.main"),
]

EXPERIMENTS = ("setup1", "setup2", "fig5", "fig6", "fig8", "fig9", "optimal")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap; their durations sum to the part of the parent they cover.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Collects nested spans and per-layer counters while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {}
        self.mc_peak_bytes_per_sample = 0.0
        self.paused = False
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, fn: Callable, span: str) -> Callable:
        tracer = self
        fixed_id = None if span == "experiments" else self._intern(span)
        is_mc = span == "accuracy.monte_carlo_accuracy"

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            nid = fixed_id if fixed_id is not None else tracer._intern(
                f"experiments.{args[0].experiment}")
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            peak = 0
            if is_mc:
                tracemalloc.start()
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                if is_mc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            tracer._observe(span, args, kwargs, result, peak)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, span, args, kwargs, result, mc_peak) -> None:
        if span == "spatial_stats.kernel":
            self._count("spatial_stats.kernel.evals", np.size(args[0]))
        elif span == "clustering.assign_clusters":
            self._count("clustering.normals_assigned",
                        sum(len(c.members) for c in result.clusters))
            self._count("clustering.empty_clusters",
                        sum(1 for c in result.clusters if not c.members))
        elif span in ("deployment.deployment_to_text",
                      "deployment.deployment_from_text"):
            self._count("deployment.text_bytes", _text_bytes(result, args))
        elif span == "experiments":
            self._count("experiments.rows", _csv_rows(result))
        elif span == "accuracy.monte_carlo_accuracy":
            samples = kwargs.get("samples", args[4] if len(args) > 4 else None)
            self._count("accuracy.mc_samples", samples)
            self.mc_peak_bytes_per_sample = max(self.mc_peak_bytes_per_sample,
                                                mc_peak / samples)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "corrsense" or name.startswith("corrsense.")]
        for module_name, fn_name, span in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, span)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def restore(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        # copies: a live buffer view would stop the arrays from growing
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def accounted_s(self) -> float:
        """Sum of all self times: the wall time the root spans cover."""
        a = self.arrays()
        return float(self_times(a["parent"], a["start"], a["end"]).sum())

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, each a mean per traced pass.

        `self_s` is derived from the spans; `experiments.<name>.s` is the
        inclusive time of each experiment. Layers a workload never calls
        read 0.
        """
        a = self.arrays()
        own = self_times(a["parent"], a["start"], a["end"])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=own, minlength=n)
        incl_s = np.bincount(a["name_id"], weights=a["end"] - a["start"],
                             minlength=n)
        by_name = {name: i for i, name in enumerate(self.names)}

        def per_pass(values, name):
            i = by_name.get(name)
            return 0.0 if i is None else float(values[i]) / passes

        out: Dict[str, float] = {}
        for _, _, span in TRACED:
            if span != "experiments":
                out[f"{span}.calls"] = per_pass(calls, span)
                out[f"{span}.self_s"] = per_pass(self_s, span)
        for name in EXPERIMENTS:
            out[f"experiments.{name}.s"] = per_pass(incl_s, f"experiments.{name}")
            out[f"experiments.{name}.self_s"] = per_pass(self_s, f"experiments.{name}")
        for key in ("spatial_stats.kernel.evals", "clustering.normals_assigned",
                    "clustering.empty_clusters", "deployment.text_bytes",
                    "experiments.rows", "accuracy.mc_samples"):
            out[key] = self.counters.get(key, 0.0) / passes
        out["accuracy.mc_peak_bytes_per_sample"] = self.mc_peak_bytes_per_sample
        return out
