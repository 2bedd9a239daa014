import json

import pytest
import yaml

from decor import cli

TINY = {
    "T": 2,
    "K": 4,
    "epochs_per_task": 1,
    "seeds": [0],
    "probe": {"epochs": 2},
    "data": {"num_classes": 4, "samples_per_class": 40},
}


def _record(method, state_bytes, teacher_bytes):
    return {
        "method": method,
        "T": 3,
        "K": 32,
        "L": 2,
        "lambda": 0.2,
        "seed": 0,
        "config_hash": "0" * 16,
        "probe_mode": "LEP",
        "accuracy": [[100.0], [90.0, 100.0], [80.0, 90.0, 100.0]],
        "avg_accuracy": [100.0, 95.0, 90.0],
        "forgetting": [0.0, 10.0, 15.0],
        "storage_bits_per_task": [0, 1000, 1000],
        "state_bytes_per_task": state_bytes,
        "teacher_bytes": teacher_bytes,
        "wall_ms_per_task": [1.0, 1.0, 1.0],
        "wall_ms_total": 3.0,
    }


def _write_config(tmp_path, body):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(body), encoding="utf-8")
    return str(path)


def test_run_with_a_bad_key_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", _write_config(tmp_path, {**TINY, "probe": {"lr": -1}})])
    assert code == 2
    assert "probe.lr:" in capsys.readouterr().err


def test_run_then_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DECOR_RESULTS_DIR", str(tmp_path / "results"))
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    assert cli.main(["run", "--config", config]) == 0
    runs = tmp_path / "results" / "runs.jsonl"
    (record,) = [json.loads(line) for line in runs.read_text(encoding="utf-8").splitlines()]
    assert record["method"] == "decor" and "lambda" in record
    assert cli.main(["report", "--results", str(runs)]) == 0
    assert (tmp_path / "results" / "curves.csv").exists()


def test_report_storage_is_the_peak_per_run(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    records = [_record("decor", [0, 213, 213], 0), _record("lwf", [0, 0, 0], 135728)]
    runs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert cli.main(["report", "--results", str(runs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "peak storage" in lines[0]
    rows = {line.split()[0]: line for line in lines[2:] if line.strip()}
    assert rows["decor"].endswith("213 B")
    assert rows["lwf"].endswith("132.55 KB")


@pytest.mark.parametrize("content", [None, ""])
def test_report_without_records_exits_1(tmp_path, content):
    runs = tmp_path / "runs.jsonl"
    if content is not None:
        runs.write_text(content, encoding="utf-8")
    assert cli.main(["report", "--results", str(runs)]) == 1
