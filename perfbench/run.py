#!/usr/bin/env python3
"""corrsense benchmark: end-to-end metrics per workload, per-layer metrics traced.

Rerun everything, from the repository root:

    for w in paper field montecarlo; do for t in 0 1; do
      python3 perfbench/run.py --workload $w --seed 7 --seconds 30 --trace $t
    done; done

Workloads (each a closed loop with one client, in its own single-threaded
process; every pass derives a fresh seed from --seed):
  paper       the seven canonical experiments back to back
  field       1200 x 1200 m, 20 x 20 heads, 20k normals, one call per layer
  montecarlo  `corrsense accuracy --method monte_carlo --samples 1000000`
              on a 60 x 60 m field through corrsense.cli.main

--trace 0 prints the end-to-end metrics (wall_s: median seconds per pass;
setup_s: process start until inputs are ready, median of five starts;
peak_rss_mb: ru_maxrss of the workload process). --trace 1 splits the time
between untraced and traced passes and prints the per-layer metrics, each
a mean per traced pass, plus trace.overhead_s. Every timed pass is checked
outside its timed region; failures go into `failed` (error_rate =
failed / attempted). The last stdout line is the JSON result; the full
record, with provenance, is written under .perfbench_out/.

Memory: seed monte_carlo_accuracy holds about 56 * m bytes per sample, and
the benchmark refuses a Monte Carlo size above half of MemTotal. A sweep to
10^7 samples must not run against that code: at m = 16 it needs ~9 GB.

`--self-test` runs the benchmark's own tests instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("paper", "field", "montecarlo")
SETUP_PROBES = 4  # extra set-up-only starts; setup_s is the median of all starts
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(args, setup_only: bool, deadline: float):
    """Run one worker; return (seconds until READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(WORKDIR)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_ENV})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {args.workload} exited with {proc.returncode}")
    return ready, last


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(args, worker: dict) -> dict:
    cpu = next((l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), platform.processor())
    mem = next((l.split(":", 1)[1].strip() for l in _read("/proc/meminfo").splitlines()
                if l.startswith("MemTotal")), "unknown")
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "corrsense").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"].get("openblas configuration") or worker["blas"].get("name"),
        "blas_thread_env": worker["thread_env"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "mem_total": mem,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_seeds": worker["pass_seeds"],
        "passes": worker["passes"],
    }


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def run(args) -> int:
    spec = _spec()
    if not (ROOT / "src" / "corrsense" / "__init__.py").is_file():
        raise BenchError(f"no corrsense sources under {ROOT / 'src'}")
    WORKDIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setups = [_worker(args, True, deadline)[0] for _ in range(SETUP_PROBES)]
    ready, last = _worker(args, False, deadline)
    setups.append(ready)
    try:
        worker = json.loads(last)
    except (TypeError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {last!r}") from exc

    measured: Dict[str, float] = {
        "wall_s": worker["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    if args.trace:
        measured.update(worker["per_layer"])
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in group}

    prov = provenance(args, worker)
    attempted, failed = worker["attempted"], worker["failed"]
    record = {"provenance": prov, "metrics": metrics, "setup_samples_s": setups,
              "error_rate": failed / attempted, **worker}
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    status = "ok" if failed == 0 else "FAILED"
    print(f"provenance {json.dumps(prov)}")
    print(f"{args.workload}: {worker['passes']} untraced passes, wall_s quartiles "
          f"{worker['wall_s_q1']:.4f} / {worker['wall_s']:.4f} / {worker['wall_s_q3']:.4f} s")
    print(f"checks: {attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:.6g} -> {status}")
    for msg in worker["failures"][:20]:
        print(f"  FAIL {msg}")
    if "mc_samples_per_s" in worker:
        print(f"  {'mc_samples_per_s':44s} {worker['mc_samples_per_s']:14.6g} 1/s  [{status}]")
    if args.trace:
        print(f"  trace: self times {worker['trace_accounted_s']:.4f} s of "
              f"{worker['trace_wall_s']:.4f} s traced wall; spans in {worker['spans_file']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} [{status}]")
    print(f"  details: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0], epilog=__doc__.split("\n", 2)[2],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        sys.path.insert(0, str(HERE))
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
