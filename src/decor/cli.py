"""Command-line entry point.

    decor run    --config cfg.yaml [--grid lambda=0.2,1 K=8,16 probe.lr=0.1]
    decor report --results results/runs.jsonl

`run` runs the config at every point of its grid; without `--grid` the
grid is the config's one point. `sweep` is another name for `run`, so
`decor sweep` without `--grid` runs that one point too. An axis is any
config key (`section.key` inside a section) and its values, each read as
YAML; every point is checked before the first run starts. Each run
appends its record to <results_dir>/runs.jsonl, the only output, as soon
as it ends. `report` keeps the last record per (config, seed) and prints
one row per config: the mean and std over seeds of the final A_T / F_T,
the mean peak stored state (the decor index table or the LwF teacher),
and the `key=value` settings that tell the rows apart.

Exit codes: 0 success, 1 runtime failure or missing/empty inputs,
2 invalid configuration (the message names the offending key).
The environment variable DECOR_RESULTS_DIR overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .harness import RunRecord, run_sequence


def _results_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("DECOR_RESULTS_DIR")
    path = Path(override) if override else Path(config.results_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _grid_points(axes: list[str]) -> list[dict]:
    """Every combination of the `key=v1,v2,...` axes, as {key: value}."""
    values = {}
    for axis in axes:
        key, _, text = axis.partition("=")
        if key in values:
            raise ConfigError(f"{key}: repeated grid axis")
        try:
            values[key] = yaml.safe_load(f"[{text}]")
        except yaml.YAMLError as exc:
            raise ConfigError(f"{key}: invalid grid values {text!r}") from exc
        if not values[key]:
            raise ConfigError(f"{key}: no grid values")
    return [dict(zip(values, point)) for point in itertools.product(*values.values())]


def _setting(key: str, value) -> str:
    return f"{key}={value if isinstance(value, str) else json.dumps(value, separators=(',', ':'))}"


def cmd_run(args) -> int:
    runs = [(point, load_config(args.config, point)) for point in _grid_points(args.grid)]
    written = 0
    for point, config in runs:
        runs_path = _results_dir(config) / "runs.jsonl"
        settings = "".join(f" {_setting(key, value)}" for key, value in point.items())
        tasks = None
        for seed in config.seeds:
            # a feature file is the same for every seed: it is read once
            if tasks is None or config.data_source == "synthetic":
                tasks = config.tasks_for_seed(seed)
            record = run_sequence(config, tasks, seed)
            with open(runs_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
            written += 1
            print(
                f"run method={record.method}{settings} seed={seed} "
                f"A_{record.T}={record.avg_accuracy[-1]:.2f} F_{record.T}={record.forgetting[-1]:.2f}"
            )
    print(f"wrote {written} record(s) to {runs_path}")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0


def cmd_report(args) -> int:
    path = Path(args.results)
    if not path.exists():
        print(f"error: results file not found: {path}", file=sys.stderr)
        return 1
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON at column {exc.colno}: {exc.msg}"
                raise ValueError(f"{path}: line {number}: {reason}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from exc
    if not records:
        print(f"error: no records in {path}", file=sys.stderr)
        return 1

    # a later run of the same (config, seed) replaces the earlier one
    latest = {(record.config_hash, record.seed): record for record in records}
    by_config: dict[str, list[RunRecord]] = {}
    for record in latest.values():
        by_config.setdefault(record.config_hash, []).append(record)
    groups = sorted(by_config.values(), key=lambda group: group[0].method)
    configs = [group[0].config for group in groups]
    keys = dict.fromkeys(key for config in configs for key in config if key != "method")
    varying = [k for k in keys if len({_setting(k, config.get(k)) for config in configs}) > 1]

    header = f"{'method':<14} {'runs':>4} {'A_T':>16} {'F_T':>16} {'peak storage':>12}"
    print(header + ("  settings" if varying else ""))
    print("-" * len(header))
    for group, config in zip(groups, configs):
        a = np.array([r.avg_accuracy[-1] for r in group])
        f = np.array([r.forgetting[-1] for r in group])
        storages = [max(r.teacher_bytes, *r.state_bytes_per_task) for r in group]
        settings = " ".join(_setting(key, config.get(key)) for key in varying)
        row = (
            f"{group[0].method:<14} {len(group):>4} "
            f"{a.mean():>8.2f} ± {a.std():<5.2f} "
            f"{f.mean():>8.2f} ± {f.std():<5.2f} "
            f"{_human_bytes(float(np.mean(storages))):>12}"
        )
        print(f"{row}  {settings}" if settings else row)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decor", description="continual representation-learning benchmark"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", aliases=["sweep"], help="run the config at every point of its grid")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.add_argument(
        "--grid",
        nargs="+",
        default=[],
        metavar="KEY=V1,V2",
        help="any config key, section.key inside a section; e.g. lambda=0.2,1 K=8,16 probe.lr=0.1",
    )
    p_run.set_defaults(fn=cmd_run)

    p_report = sub.add_parser("report", help="summarize a results file")
    p_report.add_argument("--results", required=True, help="runs.jsonl path")
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, LookupError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
