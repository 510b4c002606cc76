#!/usr/bin/env python3
"""Run every canonical experiment and write its CSV under an output directory.

Usage:
    python scripts/run_experiments.py [--outdir outputs] [--seed 7]

Outputs are pure functions of (experiment defaults, seed): rerunning with
the same seed reproduces every file byte for byte.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from corrsense import default_config, run_experiment_csv
from corrsense.experiments import EXPERIMENTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="outputs")
    unseeded = [n for n, e in EXPERIMENTS.items() if "seed" not in e.reads]
    parser.add_argument("--seed", type=int, default=None,
                        help="override the default seed of every experiment "
                             f"that reads one ({', '.join(unseeded)} do not "
                             "and keep theirs)")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in EXPERIMENTS:
        config = default_config(name)
        if args.seed is not None and "seed" in EXPERIMENTS[name].reads:
            config = replace(config, seed=args.seed)
        start = time.perf_counter()
        text = run_experiment_csv(config)
        path = outdir / f"{name}.csv"
        path.write_text(text)
        rows = sum(1 for l in text.splitlines() if not l.startswith("#")) - 1
        print(f"{name:8s} -> {path}  ({rows} rows, "
              f"{time.perf_counter() - start:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
