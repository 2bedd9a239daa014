"""The benchmark's workloads: inputs made from a seed, one timed execution,
and the checks on what each run produced.

A workload is a set of methods run on one config. `prepare` writes, before
any timing, the YAML configs (and, for the file-backed workload, the
feature file) under a work directory; `execute` then runs every method once
the way a user would, and returns the wall time with one outcome per run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from decor import cli, config as config_mod, data as data_mod, harness

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

ALL_METHODS = ("finetune", "decor", "lwf", "simclr", "simclr+decor", "simclr+lwf")

# ROADMAP stress scale at momentum 0: the default 0.9 collapses the encoder
# at this size, and a collapsed run would time K-means on garbage features.
STRESS = {
    "T": 10,
    "K": 64,
    "epochs_per_task": 2,
    "momentum": 0.0,
    "probe": {"epochs": 10},
    "data": {"num_classes": 50, "samples_per_class": 300},
}


@dataclass(frozen=True)
class Workload:
    """`config` is the YAML body shared by every method (no method/seeds)."""

    name: str
    methods: tuple[str, ...]
    config: dict = field(default_factory=dict)
    via_cli: bool = False  # `decor run` per method on a feature file, then `decor report`

    @property
    def num_classes(self) -> int:
        return self.config.get("data", {}).get("num_classes", config_mod.ExperimentConfig.num_classes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper6", ALL_METHODS),
        Workload("stress_decor", ("decor",), STRESS),
        Workload("stress_probe", ("finetune", "lwf", "simclr", "simclr+lwf"), STRESS, via_cli=True),
    )
}


@dataclass
class Prepared:
    workload: Workload
    seed: int
    work_dir: Path
    configs: dict[str, Path]  # method -> YAML path

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


@dataclass
class Outcome:
    """What one run produced, reduced to what the checks and metrics use."""

    accuracy: list[list[float]]
    A_T: float
    F_T: float
    state_bytes: int
    teacher_bytes: int

    @classmethod
    def from_fields(cls, d: dict) -> "Outcome":
        """From RunRecord attributes or the JSON record `decor run` writes."""
        return cls(
            accuracy=d["accuracy"],
            A_T=d["avg_accuracy"][-1],
            F_T=d["forgetting"][-1],
            state_bytes=max(d["state_bytes_per_task"]),
            teacher_bytes=d["teacher_bytes"],
        )

    def as_golden(self) -> dict:
        return {"accuracy": self.accuracy, "A_T": self.A_T, "F_T": self.F_T, "state_bytes": self.state_bytes}


@dataclass
class Execution:
    run_s: float
    outcomes: dict[str, Outcome]  # method -> outcome, for runs that finished
    errors: dict[str, str]  # method (or "report") -> what went wrong
    attempted: int  # runs, plus the report on the file-backed workload


def _config_body(workload: Workload, method: str, seed: int, data_path: Path | None) -> dict:
    body = json.loads(json.dumps(workload.config))  # deep copy
    body.update(method=method, seeds=[seed])
    if data_path is not None:
        body["data"] = {"source": "file", "path": str(data_path)}
    return body


def prepare(workload: Workload, seed: int, work_dir: Path) -> Prepared:
    """Write every input the timed executions read; nothing here is timed."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    data_path = None
    if workload.via_cli:
        synthetic = config_mod.config_from_dict(_config_body(workload, workload.methods[0], seed, None))
        data_path = work_dir / "features.txt"
        data_mod.save_feature_file(synthetic.tasks_for_seed(seed), data_path, num_classes=workload.num_classes)
    configs = {}
    for method in workload.methods:
        path = work_dir / f"{method.replace('+', '-')}.yaml"
        path.write_text(yaml.safe_dump(_config_body(workload, method, seed, data_path)), encoding="utf-8")
        configs[method] = path
    return Prepared(workload, seed, work_dir, configs)


def setup_once(prepared: Prepared) -> float:
    """Seconds in load_config + tasks_for_seed over every method's config."""
    total = 0.0
    for path in prepared.configs.values():
        start = time.perf_counter()
        config = config_mod.load_config(path)
        config.tasks_for_seed(prepared.seed)
        total += time.perf_counter() - start
    return total


def execute(prepared: Prepared) -> Execution:
    """One timed pass over every method of the workload."""
    if prepared.workload.via_cli:
        return _execute_cli(prepared)
    outcomes, errors = {}, {}
    start = time.perf_counter()
    for method, path in prepared.configs.items():
        try:
            # module attributes are read at call time, so a tracer's wrappers apply
            config = config_mod.load_config(path)
            tasks = config.tasks_for_seed(prepared.seed)
            record = harness.run_sequence(config, tasks, prepared.seed)
        except Exception as exc:  # a failed run is counted, not fatal
            errors[method] = f"{type(exc).__name__}: {exc}"
            continue
        outcomes[method] = Outcome.from_fields(vars(record))
    return Execution(time.perf_counter() - start, outcomes, errors, len(prepared.configs))


def _execute_cli(prepared: Prepared) -> Execution:
    results_dir = prepared.work_dir / "results"
    shutil.rmtree(results_dir, ignore_errors=True)
    results_dir.mkdir()
    errors = {}
    stdout = io.StringIO()
    previous = os.environ.get("DECOR_RESULTS_DIR")
    os.environ["DECOR_RESULTS_DIR"] = str(results_dir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            for method, path in prepared.configs.items():
                try:
                    code = cli.main(["run", "--config", str(path)])
                except Exception as exc:
                    errors[method] = f"{type(exc).__name__}: {exc}"
                    continue
                if code != 0:
                    errors[method] = f"decor run exited with {code}"
            try:
                code = cli.main(["report", "--results", str(results_dir / "runs.jsonl")])
                if code != 0:
                    errors["report"] = f"decor report exited with {code}"
            except Exception as exc:
                errors["report"] = f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop("DECOR_RESULTS_DIR", None)
        else:
            os.environ["DECOR_RESULTS_DIR"] = previous
    outcomes = {}
    runs_path = results_dir / "runs.jsonl"
    lines = runs_path.read_text(encoding="utf-8").splitlines() if runs_path.exists() else []
    for line in lines:
        record = json.loads(line)
        outcomes[record["method"]] = Outcome.from_fields(record)
    table_rows = {line.split()[0] for line in stdout.getvalue().splitlines() if line.strip()}
    for method in prepared.configs:
        if method in errors:
            continue
        if method not in outcomes:
            errors[method] = "no record in runs.jsonl"
        elif method not in table_rows:
            errors[method] = "missing from the report table"
    return Execution(run_s, outcomes, errors, len(prepared.configs) + 1)


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def chance(workload: Workload) -> float:
    """Accuracy of a uniform guess over all of the workload's classes, in %."""
    return 100.0 / workload.num_classes


def well_above_chance(workload: Workload, A_T: float) -> bool:
    return A_T >= 2.0 * chance(workload)


def check(workload: Workload, seed: int, method: str, outcome: Outcome, golden: dict | None) -> str | None:
    """None if the run is correct, else what is wrong with it.

    On any seed the matrix must be a full lower triangle of T rows with
    finite values in [0, 100]. At the golden seed the accuracy matrix must
    also match bitwise, with A_T, F_T and the state size. (That A_T is
    well above chance is checked per workload, on the median over its runs:
    at the default momentum single runs collapse on some seeds.)
    """
    rows = outcome.accuracy
    expected_T = workload.config.get("T", config_mod.ExperimentConfig.T)
    if len(rows) != expected_T or any(len(row) != t for t, row in enumerate(rows, start=1)):
        return f"accuracy matrix is not a full lower triangle of {expected_T} rows"
    if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for row in rows for v in row):
        return "accuracy outside [0, 100] or not finite"
    if golden is not None and seed == golden["seed"]:
        expected = golden["workloads"].get(workload.name, {}).get(method)
        if expected is None:
            return "no golden entry"
        if outcome.as_golden() != expected:
            return "differs from the golden output"
    return None
