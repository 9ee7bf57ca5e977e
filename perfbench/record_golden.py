"""Record the answers of the default seed (0) into golden_seed0.json.

    python3 perfbench/record_golden.py

Runs a fixed number of rounds of every workload at seed 0, with every
check on, and stores a digest of each op's answer by op id.  run.py
compares seed-0 runs against these digests, so re-record only on purpose:
after a change of the op generator, never to accept new answers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

ROUNDS = {"census": 5, "formulas": 30, "audit": 60}


def main():
    golden = {}
    for workload, rounds in ROUNDS.items():
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        try:
            run.write_inputs(workdir, workload, 0, rounds)
            result = run.run_worker(workdir, time.monotonic() + 3600)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = [op for op in result["ops"] if op["failure"]]
        if failed:
            raise SystemExit(f"{workload}: {len(failed)} ops failed, e.g. {failed[0]}")
        golden[workload] = {op["id"]: op["digest"] for op in result["ops"]}
        print(f"{workload}: {len(result['ops'])} answers", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
