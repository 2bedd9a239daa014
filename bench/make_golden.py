"""Write bench/golden.json: every workload's outputs at the golden seed.

    python3 bench/make_golden.py

Run it only when a change is meant to alter results, and say why in the
change. The benchmark compares each run at seed 0 against this file,
bitwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

GOLDEN_SEED = 0


def main() -> int:
    error = run.bootstrap()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    from workloads import GOLDEN_PATH, WORKLOADS, execute, prepare

    golden = {"seed": GOLDEN_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        prepared = prepare(workload, GOLDEN_SEED, Path("bench") / ".work" / f"golden-{name}")
        try:
            execution = execute(prepared)
        finally:
            prepared.cleanup()
        if execution.errors:
            print(f"error: {name}: {execution.errors}", file=sys.stderr)
            return 1
        golden["workloads"][name] = {m: o.as_golden() for m, o in execution.outcomes.items()}
        print(f"{name}: {execution.run_s:.2f} s")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
