"""One workload in its own single-threaded process.

Started by run.py, never directly. It imports corrsense from the checkout's
src/, builds the workload's inputs, prints READY, runs the untimed
reference pass, then timed passes until the time is up, checking each pass
outside its timed region. With --trace 1 the second half of the time runs
with the tracer installed. The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_corrsense():
    sys.path.insert(0, str(ROOT / "src"))
    import corrsense
    if Path(corrsense.__file__).resolve().parent != ROOT / "src" / "corrsense":
        raise ImportError(f"corrsense imported from {corrsense.__file__}, "
                          f"not from {ROOT / 'src'}")
    return corrsense


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    def __init__(self, workload, seed: int, pass_seed):
        self.workload = workload
        self.seed = seed
        self.pass_seed = pass_seed
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.pass_seeds = []
        self.pass_times = {"untraced": [], "traced": []}

    def record(self, per_op):
        """Count one list of failure messages per operation attempted."""
        for fails in per_op:
            self.attempted += 1
            if fails:
                self.failed += 1
                self.failures.extend(fails)

    def timed_passes(self, phase: str, seconds: float, tracer=None) -> None:
        times = self.pass_times[phase]
        spent = 0.0
        while not times or spent + 0.5 * times[-1] < seconds:
            seed = self.pass_seed(self.seed, len(self.pass_seeds))
            self.pass_seeds.append(seed)
            self.workload.before_pass()
            gc.collect()
            t0 = time.perf_counter()
            try:
                outputs = self.workload.run_pass(seed)
                error = None
            except Exception as exc:  # counted as a failed pass below
                error = exc
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            spent += elapsed
            if tracer is not None:
                tracer.paused = True
            if error is None:
                try:
                    self.record(self.workload.check(seed, outputs))
                except Exception as exc:  # malformed output the checker could not parse
                    error = exc
                del outputs  # keep the previous pass's objects out of the next pass's heap
            if error is not None:
                self.record([[f"pass seed {seed}: "
                              + "".join(traceback.format_exception_only(error)).strip()]]
                            * self.workload.ops_per_pass)
            if tracer is not None:
                tracer.paused = False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_corrsense()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = Run(workload, args.seed, workloads.pass_seed)
    run.record(workload.reference_check())
    result = {}
    if args.trace:
        from spans import Tracer
        run.timed_passes("untraced", args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            run.timed_passes("traced", args.seconds / 2, tracer)
        finally:
            tracer.restore()
        traced = run.pass_times["traced"]
        wall = sum(traced)
        accounted = tracer.accounted_s()
        run.record([[] if abs(accounted - wall) <= 0.1 * wall else
                     [f"trace: self times sum to {accounted:.4f} s, traced wall "
                      f"time is {wall:.4f} s (more than 10% apart)"]])
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(run.pass_times["untraced"]))
        result["per_layer"] = layers
        result["trace_accounted_s"] = accounted
        result["trace_wall_s"] = wall
        spans_path = Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        run.timed_passes("untraced", args.seconds)

    times = run.pass_times["untraced"]
    q1, median, q3 = quartiles(times)
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "wall_s": median,
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "passes": len(times),
        "pass_times": run.pass_times,
        "pass_seeds": run.pass_seeds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    })
    if hasattr(workload, "samples_per_pass"):
        result["mc_samples_per_s"] = workload.samples_per_pass / median
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
