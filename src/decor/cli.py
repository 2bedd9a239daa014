"""Command-line entry point.

    decor run    --config cfg.yaml
    decor sweep  --config cfg.yaml --grid K=8,16,32,64 L=1,2,3
    decor report --results results/runs.jsonl

`run` and `sweep` append one JSON-lines record per (config, seed) run to
<results_dir>/runs.jsonl and flattened per-task rows to runs.csv
(columns: method,T,K,L,lambda,seed,t,A_t,F_t,storage_bits,wall_ms).
`sweep` additionally appends one summary row per grid point to
sweep_summary.csv. `report` prints a method-level table (mean and std over
seeds of the final A_T / F_T, and the mean over seeds of each run's peak
stored state: the decor index table or the LwF teacher) and writes
accuracy-over-time curves to curves.csv next to the results file.

Exit codes: 0 success, 1 runtime failure or missing/empty inputs,
2 invalid configuration (the message names the offending key).
The environment variable DECOR_RESULTS_DIR overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .harness import RunRecord, run_sequence, sweep

CSV_COLUMNS = ["method", "T", "K", "L", "lambda", "seed", "t", "A_t", "F_t", "storage_bits", "wall_ms"]
SUMMARY_COLUMNS = ["method", "K", "L", "seed", "A_T", "F_T", "storage_bits"]


def _results_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("DECOR_RESULTS_DIR")
    path = Path(override) if override else Path(config.results_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _append_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)


def _flat_rows(record: RunRecord) -> list[dict]:
    rows = []
    for i in range(record.T):
        rows.append(
            {
                "method": record.method,
                "T": record.T,
                "K": record.K,
                "L": record.L,
                "lambda": record.lam,
                "seed": record.seed,
                "t": i + 1,
                "A_t": repr(record.avg_accuracy[i]),
                "F_t": repr(record.forgetting[i]),
                "storage_bits": record.storage_bits_per_task[i],
                "wall_ms": f"{record.wall_ms_per_task[i]:.3f}",
            }
        )
    return rows


def _write_records(records: list[RunRecord], out_dir: Path) -> None:
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    _append_csv(out_dir / "runs.csv", CSV_COLUMNS, [r for rec in records for r in _flat_rows(rec)])


def cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _results_dir(config)
    records = []
    for seed in config.seeds:
        tasks = config.tasks_for_seed(seed)
        record = run_sequence(config, tasks, seed)
        records.append(record)
        print(
            f"run method={record.method} seed={seed} "
            f"A_{record.T}={record.avg_accuracy[-1]:.2f} F_{record.T}={record.forgetting[-1]:.2f}"
        )
    _write_records(records, out_dir)
    print(f"wrote {len(records)} record(s) to {out_dir / 'runs.jsonl'}")
    return 0


def _parse_grid(parts: list[str]) -> tuple[list[int], list[int]]:
    grid = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"grid: expected NAME=v1,v2,... got {part!r}")
        name, values = part.split("=", 1)
        if name not in ("K", "L"):
            raise ConfigError(f"grid: unknown axis {name!r} (expected K or L)")
        try:
            grid[name] = [int(v) for v in values.split(",") if v != ""]
        except ValueError as exc:
            raise ConfigError(f"grid: {name}: {exc}") from exc
        if not grid[name]:
            raise ConfigError(f"grid: {name}: no values")
    K_values = grid.get("K", [])
    L_values = grid.get("L", [])
    if not K_values or not L_values:
        raise ConfigError("grid: both K and L axes are required")
    if any(k < 2 for k in K_values):
        raise ConfigError("grid: K values must be >= 2")
    if any(l < 1 for l in L_values):
        raise ConfigError("grid: L values must be >= 1")
    return K_values, L_values


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    K_values, L_values = _parse_grid(args.grid)
    out_dir = _results_dir(config)
    records = sweep(config, K_values, L_values)
    _write_records(records, out_dir)
    summary = [
        {
            "method": r.method,
            "K": r.K,
            "L": r.L,
            "seed": r.seed,
            "A_T": repr(r.avg_accuracy[-1]),
            "F_T": repr(r.forgetting[-1]),
            "storage_bits": max(r.storage_bits_per_task),
        }
        for r in records
    ]
    _append_csv(out_dir / "sweep_summary.csv", SUMMARY_COLUMNS, summary)
    print(f"swept {len(K_values)}x{len(L_values)} grid, {len(records)} run(s)")
    print(f"summary: {out_dir / 'sweep_summary.csv'}")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.0f} B"


def cmd_report(args) -> int:
    path = Path(args.results)
    if not path.exists():
        print(f"error: results file not found: {path}", file=sys.stderr)
        return 1
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_json_dict(json.loads(line)))
    if not records:
        print(f"error: no records in {path}", file=sys.stderr)
        return 1

    by_method: dict[str, list[RunRecord]] = defaultdict(list)
    for record in records:
        by_method[record.method].append(record)

    header = f"{'method':<14} {'runs':>4} {'A_T':>16} {'F_T':>16} {'peak storage':>12}"
    print(header)
    print("-" * len(header))
    for method in sorted(by_method):
        group = by_method[method]
        a = np.array([r.avg_accuracy[-1] for r in group])
        f = np.array([r.forgetting[-1] for r in group])
        storages = [max(r.teacher_bytes, *r.state_bytes_per_task) for r in group]
        print(
            f"{method:<14} {len(group):>4} "
            f"{a.mean():>8.2f} ± {a.std():<5.2f} "
            f"{f.mean():>8.2f} ± {f.std():<5.2f} "
            f"{_human_bytes(float(np.mean(storages))):>12}"
        )

    curves_path = path.parent / "curves.csv"
    with open(curves_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "t", "mean_A_t", "std_A_t", "mean_F_t", "std_F_t", "n_seeds"])
        for method in sorted(by_method):
            group = by_method[method]
            T = max(r.T for r in group)
            for t in range(1, T + 1):
                a_vals = [r.avg_accuracy[t - 1] for r in group if r.T >= t]
                f_vals = [r.forgetting[t - 1] for r in group if r.T >= t]
                writer.writerow(
                    [
                        method,
                        t,
                        repr(float(np.mean(a_vals))),
                        repr(float(np.std(a_vals))),
                        repr(float(np.mean(f_vals))),
                        repr(float(np.std(f_vals))),
                        len(a_vals),
                    ]
                )
    print(f"curves: {curves_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decor", description="continual representation-learning benchmark"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured runs")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a K x L ablation grid")
    p_sweep.add_argument("--config", required=True, help="YAML config path")
    p_sweep.add_argument(
        "--grid", required=True, nargs="+", metavar="AXIS=V1,V2", help="e.g. K=8,16,32,64 L=1,2,3"
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="summarize a results file")
    p_report.add_argument("--results", required=True, help="runs.jsonl path")
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
