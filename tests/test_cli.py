import csv
import json

import pytest
import yaml

from decor import cli
from decor.harness import AccuracyMatrix
from decor.regularizer import DecorState

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
    # a record written before `probe_mode` was dropped still loads
    old = {**_record("lwf", [0, 0, 0], 135728), "probe_mode": "LEP"}
    records = [_record("decor", [0, 213, 213], 0), old]
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


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda: DecorState([1, 2], [0, 1], 2).index_for([7]), "sample id 7 has no stored index"),
        (lambda: AccuracyMatrix(3).entry(4, 1), "need 1 <= j <= t <= 3, got t=4, j=1"),
    ],
)
def test_lookup_errors_exit_1_with_the_message(tmp_path, monkeypatch, capsys, fault, message):
    monkeypatch.setattr(cli, "run_sequence", lambda *args: fault())
    assert cli.main(["run", "--config", _write_config(tmp_path, TINY)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_on_an_id_past_int64_exits_1_naming_the_line(tmp_path, capsys):
    data = tmp_path / "feats.csv"
    data.write_text(
        "#decor-features v1 num_classes=4 feature_dim=2\n1,99999999999999999999,train,0,1.5,2.5\n",
        encoding="utf-8",
    )
    config = _write_config(tmp_path, {**TINY, "data": {"source": "file", "path": str(data)}})
    assert cli.main(["run", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}: line 2: could not convert string '99999999999999999999' to int64\n"


def test_report_on_a_record_missing_a_key_exits_1(tmp_path, capsys):
    good = json.dumps(_record("lwf", [0, 0, 0], 135728))
    no_teacher = _record("decor", [0, 213, 213], 0)
    del no_teacher["teacher_bytes"]
    cases = [
        (json.dumps(no_teacher), "missing key 'teacher_bytes'"),
        ("[1,2]", "expected a JSON object, got list"),
        (
            json.dumps(_record("decor", [], 0)),
            "state_bytes_per_task: expected a list of T=3 entries, got []",
        ),
        (good[:10], "invalid JSON at column 11: Expecting value"),
        (json.dumps(_record("decor", [0, 213, 213], "x")), "teacher_bytes: expected int, got 'x'"),
        (
            json.dumps({**_record("lwf", [0, 0, 0], 0), "avg_accuracy": ["a", "b", "c"]}),
            "avg_accuracy: expected list[float], got ['a', 'b', 'c']",
        ),
        (
            json.dumps({**_record("lwf", [0, 0, 0], 0), "method": ["decor"]}),
            "method: expected str, got ['decor']",
        ),
    ]
    runs = tmp_path / "runs.jsonl"
    for line, reason in cases:
        runs.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        assert cli.main(["report", "--results", str(runs)]) == 1
        assert capsys.readouterr().err == f"error: {runs}: line 3: {reason}\n"


def test_sweep_runs_every_grid_point(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DECOR_RESULTS_DIR", str(tmp_path / "results"))
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    assert cli.main(["sweep", "--config", config, "--grid", "K=4,8", "L=1,2"]) == 0
    runs = (tmp_path / "results" / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(runs) == 4
    with open(tmp_path / "results" / "sweep_summary.csv", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert sorted((row["K"], row["L"]) for row in summary) == [
        ("4", "1"), ("4", "2"), ("8", "1"), ("8", "2")
    ]
    for grid in (["K=1", "L=1"], ["K=4", "L=1", "Q=3"]):
        assert cli.main(["sweep", "--config", config, "--grid", *grid]) == 2
