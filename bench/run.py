"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload paper6 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the `decor` package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`); the line before it records the environment. The full
result, with every per-execution figure, is written to
bench/results/<workload>-seed<seed>-trace<0|1>.json.

BLAS is capped at one thread, so a run uses one core and results are
bitwise reproducible. Exit codes: 0 when a result was printed, 1 when the
package cannot be imported, 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("paper6", "stress_decor", "stress_probe")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> str | None:
    """Cap BLAS threads, import `decor` from ROOT/src and move to ROOT.

    Returns an error message when the package cannot be imported from there.
    """
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import decor
    except ImportError as exc:
        return f"cannot import decor from {src}: {exc}"
    if not Path(decor.__file__).resolve().is_relative_to(src.resolve()):
        return f"decor was imported from {decor.__file__}, not from {src}"
    os.chdir(ROOT)  # relative work paths keep each config_hash stable
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=25.0, help="executions repeat until they add up to this many seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    error = bootstrap()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    from measure import measure
    from workloads import WORKLOADS, load_golden

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, details = measure(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        Path("bench") / ".work" / tag,
        load_golden(),
    )
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, **details}, fh, indent=1)
        fh.write("\n")
    for problem in details["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": details["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
