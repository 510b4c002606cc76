#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run compares bytes against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the seven canonical experiment CSVs at their
default configs, and the field workload's reports CSV and deployment-text
digest, all at the reference seed. Rerun only when an output is meant to
change, and declare that change.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import import_corrsense  # noqa: E402

import_corrsense()
import workloads  # noqa: E402
from checks import REFERENCE_DIR, REFERENCE_SEED  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    paper = workloads.Paper(REFERENCE_SEED, REFERENCE_DIR)
    for name, text in paper.run_pass(REFERENCE_SEED).items():
        (REFERENCE_DIR / f"{name}.csv").write_text(text)
    outputs = workloads.Field(REFERENCE_SEED, REFERENCE_DIR).run_pass(REFERENCE_SEED)
    (REFERENCE_DIR / "field_reports.csv").write_text(outputs[5])
    (REFERENCE_DIR / "field.json").write_text(json.dumps(
        {"seed": REFERENCE_SEED,
         "deployment_sha256": hashlib.sha256(outputs[1].encode()).hexdigest()},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
