"""Timed executions of one workload and the metrics they yield.

Untraced (`trace=False`): whole executions repeat until they add up to
`seconds` (at least MIN_REPS of them); after the first, the workload's
set-up (load_config + tasks_for_seed for every method) is timed SETUP_REPS
times on its own. Timings are medians. Traced (`trace=True`): untraced and
traced executions alternate, so the tracing overhead is measured on the
same inputs; the per-layer metrics are medians over the traced executions.

Every run is checked against the invariants, against the golden outputs
at the golden seed, and against the first execution, bitwise, so a traced
run must reproduce the untraced accuracy matrices. The median A_T over the
workload's runs must be well above chance.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np
from decor import config as config_mod

import spans
from workloads import (
    BENCH_DIR,
    Execution,
    Outcome,
    Workload,
    chance,
    check,
    execute,
    prepare,
    setup_once,
    well_above_chance,
)

MIN_REPS = 2
SETUP_REPS = 5

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "A_T": "%",
    "state_bytes": "bytes",
    "ok_share": "share",
}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _) in spans.LAYER_METRICS.items()},
    "trace.overhead_s": "s",
    "harness.A_T_mean": "%",
    "harness.F_T": "%",
    "harness.collapsed_runs": "count",
}


class Tally:
    """Attempted and failed runs, and what went wrong with each failure."""

    def __init__(self, workload: Workload, seed: int, golden: dict | None):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.reference: dict[str, Outcome] | None = None
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, execution: Execution, label: str) -> None:
        self.attempted += execution.attempted
        for name, error in execution.errors.items():
            self.problems.append(f"{label} {name}: {error}")
        if self.reference is None:
            self.reference = execution.outcomes
        for method, outcome in execution.outcomes.items():
            problem = check(self.workload, self.seed, method, outcome, self.golden)
            if problem is None and self.reference.get(method, outcome) != outcome:
                problem = "differs from the first execution"
            if problem is not None:
                self.problems.append(f"{label} {method}: {problem}")

    def finish(self, median_A_T: float) -> None:
        """The workload-level check: its A_T is well above chance."""
        self.attempted += 1
        if not well_above_chance(self.workload, median_A_T):
            self.problems.append(f"A_T={median_A_T:.2f} is not well above chance ({chance(self.workload):.2f})")

    @property
    def failed(self) -> int:
        return len(self.problems)


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from the files under .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: Workload, seed: int, config_hashes: dict[str, str]) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(BENCH_DIR.parent),
        "config_hash": config_hashes,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quality(workload: Workload, reference: dict[str, Outcome]) -> dict[str, float]:
    outcomes = list(reference.values())
    decor_bytes = max((o.state_bytes for o in outcomes), default=0)
    teacher_bytes = max((o.teacher_bytes for o in outcomes), default=0)
    return {
        "A_T": _median([o.A_T for o in outcomes]),
        "A_T_mean": float(np.mean([o.A_T for o in outcomes])) if outcomes else 0.0,
        "F_T_mean": float(np.mean([o.F_T for o in outcomes])) if outcomes else 0.0,
        "collapsed": float(sum(not well_above_chance(workload, o.A_T) for o in outcomes)),
        # the DCIX index record where a decor method runs, else the LwF teacher copy
        "state_bytes": float(decor_bytes or teacher_bytes),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path, golden: dict | None):
    """Run the workload; returns (result, details).

    `result` has the keys the benchmark prints last: correct, attempted,
    failed and metrics (end-to-end when untraced, per-layer when traced).
    """
    prepared = prepare(workload, seed, work_dir)
    tally = Tally(workload, seed, golden)
    try:
        hashes = {method: config_mod.load_config(path).config_hash() for method, path in prepared.configs.items()}
        details: dict = {"env": environment(workload, seed, hashes)}
        if trace:
            metrics = _measure_traced(prepared, seconds, tally, details)
        else:
            metrics = _measure_untraced(prepared, seconds, tally, details)
    finally:
        prepared.cleanup()
    details["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, details


def _measure_untraced(prepared, seconds, tally, details) -> dict:
    run_times = []

    def run_once():
        execution = execute(prepared)
        tally.add(execution, f"execution {len(run_times)}")
        run_times.append(execution.run_s)

    run_once()
    # the peak after one pass over every method, as a user running the
    # workload once sees it; each later repetition can fragment the heap
    # further, and how many run depends on the program's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_once(prepared) for _ in range(SETUP_REPS)]
    while len(run_times) < MIN_REPS or sum(run_times) < seconds:
        run_once()
    details.update(run_s=run_times, setup_s=setups)
    quality = _quality(prepared.workload, tally.reference or {})
    tally.finish(quality["A_T"])
    values = {
        "run_s": _median(run_times),
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb,
        "A_T": quality["A_T"],
        "state_bytes": quality["state_bytes"],
        "ok_share": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _measure_traced(prepared, seconds, tally, details) -> dict:
    plain_times, traced_times, layers = [], [], []
    missing: set[str] = set()
    while not traced_times or sum(plain_times) + sum(traced_times) < seconds:
        pair = len(traced_times)
        # alternate which side of the pair runs first
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                with spans.Tracer() as tracer:
                    execution = execute(prepared)
                missing.update(tracer.missing)
                layers.append(spans.layer_values(tracer))
                traced_times.append(execution.run_s)
            else:
                execution = execute(prepared)
                plain_times.append(execution.run_s)
            tally.add(execution, f"{'traced' if traced else 'untraced'} execution {pair}")
    details.update(untraced_run_s=plain_times, traced_run_s=traced_times, layers=layers, missing_targets=sorted(missing))
    quality = _quality(prepared.workload, tally.reference or {})
    tally.finish(quality["A_T"])
    values = {name: _median([layer[name] for layer in layers]) for name in spans.LAYER_METRICS}
    values["trace.overhead_s"] = _median(traced_times) - _median(plain_times)
    values["harness.A_T_mean"] = quality["A_T_mean"]
    values["harness.F_T"] = quality["F_T_mean"]
    values["harness.collapsed_runs"] = quality["collapsed"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
