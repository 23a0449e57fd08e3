"""Record the reference outcomes the correctness gate compares against.

Run from the root of a checkout at the commit whose outputs are the
reference (the outputs, not the timings, are recorded):

    python3 perfbench/record_reference.py

``bulk_n1e4`` depends on ``--seed``, so it is recorded for seeds
0 .. BULK_REFERENCE_SEEDS - 1; a run on any other seed gets only the
checks that need no reference (see ``checks.py``).  The other workloads
read no seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BULK_REFERENCE_SEEDS = 40


def _entry(msvg, workload, seed: int) -> dict:
    inputs = workload.make_inputs(msvg, run.ROOT, seed)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        outcome, _ = workloads.quiet_pass(workload, msvg, inputs, Path(tmp))
    return {"inputs": workload.digest(inputs), "outcome": _compared(outcome)}


def _compared(blob):
    # standard errors and information matrices are not compared with the
    # reference: keep the file small
    if isinstance(blob, dict):
        return {k: _compared(v) for k, v in blob.items() if k not in ("ses", "info")}
    return blob


def main() -> int:
    msvg = run.import_msvg(run.ROOT)
    run.warm_up(msvg)
    reference = {"git_commit": run._git_commit(run.ROOT),
                 "src_sha256": run._tree_sha256(run.ROOT / "src")}
    for workload in (workloads.FixtureCli, workloads.StudyGuarded):
        reference[workload.name] = {"any": _entry(msvg, workload, 0)}
        print(f"recorded {workload.name}", flush=True)
    reference[workloads.Bulk.name] = {}
    for seed in range(BULK_REFERENCE_SEEDS):
        reference[workloads.Bulk.name][str(seed)] = _entry(msvg, workloads.Bulk, seed)
        print(f"recorded {workloads.Bulk.name} seed {seed}", flush=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
