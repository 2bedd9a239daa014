import json

import pytest
import yaml

from decor import cli, config as config_mod, nn
from decor.config import SCHEMA, ExperimentConfig, identity_hash, load_config
from decor.data import SyntheticConfig, generate_synthetic_tasks, save_feature_file
from decor.harness import run_sequence
from decor.regularizer import DecorState

TINY = {
    "T": 2,
    "K": 4,
    "epochs_per_task": 1,
    "seeds": [0],
    "probe": {"epochs": 2},
    "data": {"num_classes": 4, "samples_per_class": 40},
}


def _record(method, state_bytes, teacher_bytes, seed=0, **settings):
    config = {"method": method, "K": 32, "L": 2, "lambda": 0.2, **settings}
    return {
        "method": method,
        "T": 3,
        "seed": seed,
        "config_hash": identity_hash(config),
        "config": config,
        "accuracy": [[100.0], [90.0, 100.0], [80.0, 90.0, 100.0]],
        "avg_accuracy": [100.0, 95.0, 90.0],
        "forgetting": [0.0, 10.0, 15.0],
        "storage_bits_per_task": [0, 1000, 1000],
        "state_bytes_per_task": state_bytes,
        "teacher_bytes": teacher_bytes,
        "wall_ms_per_task": [1.0, 1.0, 1.0],
        "wall_ms_total": 3.0,
    }


@pytest.fixture(autouse=True)
def results_dir(tmp_path, monkeypatch):
    """Every run writes under tmp_path; the working directory stays empty."""
    monkeypatch.setenv("DECOR_RESULTS_DIR", str(tmp_path / "results"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    yield tmp_path / "results"
    assert list(cwd.iterdir()) == []


def _write_config(tmp_path, body):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(body), encoding="utf-8")
    return str(path)


def test_run_with_a_bad_key_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", _write_config(tmp_path, {**TINY, "probe": {"lr": -1}})])
    assert code == 2
    assert "probe.lr:" in capsys.readouterr().err


def test_run_then_report(tmp_path, capsys):
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    assert cli.main(["run", "--config", config]) == 0
    runs = tmp_path / "results" / "runs.jsonl"
    (record,) = [json.loads(line) for line in runs.read_text(encoding="utf-8").splitlines()]
    assert record["method"] == "decor" and record["config"]["lambda"] == 0.2
    assert cli.main(["report", "--results", str(runs)]) == 0
    assert [path.name for path in (tmp_path / "results").iterdir()] == ["runs.jsonl"]


def test_a_diverging_run_exits_1_naming_where_it_diverged(tmp_path, capsys):
    # lambda 5 at momentum 0.9 drives the predictor's logits to overflow in
    # task 4's 9th step; at T=2 the run ends before that
    config = _write_config(tmp_path, {"method": "decor", "lambda": 5, "seeds": [0]})
    assert cli.main(["run", "--config", config]) == 1
    assert capsys.readouterr().err == "error: decor seed 0 task 4 epoch 1 step 9: non-finite logits\n"


def test_a_diverging_probe_exits_1_naming_where_it_diverged(tmp_path, capsys):
    # task 1's probe overflows in its 2nd step; on Linux it runs in a child,
    # so its error crosses to the parent when task 2 ends
    body = {**TINY, "method": "finetune", "probe": {"lr": 1.0e308, "epochs": 2}}
    assert cli.main(["run", "--config", _write_config(tmp_path, body)]) == 1
    assert capsys.readouterr().err == "error: finetune seed 0 task 1 probe: non-finite logits\n"


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
        (lambda: nn.mean_cross_entropy([[0.0, 0.0]], [5]), "target outside [0, 2)"),
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
        (json.dumps({**_record("lwf", [0, 0, 0], 0), "config": [1]}), "config: expected dict, got [1]"),
    ]
    runs = tmp_path / "runs.jsonl"
    for line, reason in cases:
        runs.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        assert cli.main(["report", "--results", str(runs)]) == 1
        assert capsys.readouterr().err == f"error: {runs}: line 3: {reason}\n"


def _report_rows(capsys, runs):
    capsys.readouterr()
    assert cli.main(["report", "--results", str(runs)]) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()[2:]]


def test_sweep_runs_every_grid_point(tmp_path, capsys):
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    assert cli.main(["sweep", "--config", config, "--grid", "lambda=0.2,1", "K=4,8"]) == 0
    runs = tmp_path / "results" / "runs.jsonl"
    records = [json.loads(line) for line in runs.read_text(encoding="utf-8").splitlines()]
    assert [(r["config"]["lambda"], r["config"]["K"]) for r in records] == [
        (0.2, 4), (0.2, 8), (1.0, 4), (1.0, 8)
    ]
    assert [path.name for path in (tmp_path / "results").iterdir()] == ["runs.jsonl"]
    rows = _report_rows(capsys, runs)
    assert [(row[0], row[1], row[-2:]) for row in rows] == [
        ("decor", "1", ["K=4", "lambda=0.2"]),
        ("decor", "1", ["K=8", "lambda=0.2"]),
        ("decor", "1", ["K=4", "lambda=1.0"]),
        ("decor", "1", ["K=8", "lambda=1.0"]),
    ]
    # a rerun of one point replaces its record in the report
    assert cli.main(["sweep", "--config", config, "--grid", "K=8", "lambda=1"]) == 0
    assert [row[:2] for row in _report_rows(capsys, runs)] == [["decor", "1"]] * 4


def test_run_takes_a_grid_and_sweep_without_one_runs_the_one_point(tmp_path):
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    runs = tmp_path / "results" / "runs.jsonl"

    def written_K():
        return [json.loads(line)["config"]["K"] for line in runs.read_text(encoding="utf-8").splitlines()]

    assert cli.main(["run", "--config", config, "--grid", "K=4,8"]) == 0
    assert written_K() == [4, 8]
    assert cli.main(["sweep", "--config", config]) == 0
    assert written_K() == [4, 8, TINY["K"]]


@pytest.mark.parametrize(
    "grid, key",
    [
        (["Q=3"], "Q"),
        (["K=1"], "K"),
        (["probe.lr=-1"], "probe.lr"),
        (["K="], "K"),
        (["seeds=1"], "seeds"),
        (["probe=3"], "probe"),
        (["K=4", "K=8"], "K"),
        (["K=[4"], "K"),
    ],
)
def test_a_bad_grid_exits_2_naming_the_key(tmp_path, capsys, grid, key):
    config = _write_config(tmp_path, TINY)
    assert cli.main(["sweep", "--config", config, "--grid", *grid]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_a_bad_last_grid_point_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sequence", lambda *args: pytest.fail("a run started"))
    config = _write_config(tmp_path, {**TINY, "method": "decor"})
    assert cli.main(["sweep", "--config", config, "--grid", "lambda=0.2,-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: lambda: ")
    assert not (tmp_path / "results" / "runs.jsonl").exists()


def _scalar_keys():
    for key, entry in SCHEMA.items():
        for sub, name in entry.items() if isinstance(entry, dict) else [(None, entry)]:
            if not isinstance(getattr(ExperimentConfig(), name), tuple):
                yield key if sub is None else f"{key}.{sub}", name


@pytest.mark.parametrize("key, name", list(_scalar_keys()))
def test_every_scalar_key_is_a_grid_axis(tmp_path, key, name):
    default = getattr(ExperimentConfig(), name)
    # JSON scalars are YAML too
    (point,) = cli._grid_points([f"{key}={json.dumps(default)}"])
    assert point == {key: default}
    assert load_config(_write_config(tmp_path, {}), point) == ExperimentConfig()


def test_a_finished_run_is_kept_when_a_later_one_fails(tmp_path, monkeypatch, capsys):
    real = cli.run_sequence

    def fail_on_seed_1(config, tasks, seed):
        if seed == 1:
            raise RuntimeError("seed 1 failed")
        return real(config, tasks, seed)

    monkeypatch.setattr(cli, "run_sequence", fail_on_seed_1)
    assert cli.main(["run", "--config", _write_config(tmp_path, {**TINY, "seeds": [0, 1]})]) == 1
    assert capsys.readouterr().err == "error: seed 1 failed\n"
    lines = (tmp_path / "results" / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["seed"] for line in lines] == [0]


def test_report_keeps_the_last_record_per_config_and_seed(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    records = [
        _record("decor", [0, 213, 213], 0, seed=0),
        _record("decor", [0, 213, 213], 0, seed=1),
        _record("decor", [0, 213, 213], 0, seed=0, **{"lambda": 1.0}),
        {**_record("decor", [0, 213, 213], 0, seed=0, **{"lambda": 1.0}), "avg_accuracy": [100, 95, 50]},
    ]
    runs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rows = _report_rows(capsys, runs)
    assert [(row[0], row[1], row[2], row[-1]) for row in rows] == [
        ("decor", "2", "90.00", "lambda=0.2"),
        ("decor", "1", "50.00", "lambda=1.0"),
    ]


def test_a_rewritten_feature_file_is_another_config(tmp_path, capsys):
    data = tmp_path / "feats.csv"
    config = _write_config(tmp_path, {**TINY, "data": {"source": "file", "path": str(data)}})
    for seed in (0, 1):
        synthetic = SyntheticConfig(num_classes=4, samples_per_class=40, seed=seed)
        save_feature_file(generate_synthetic_tasks(synthetic, T=2), data)
        assert cli.main(["run", "--config", config]) == 0
    rows = _report_rows(capsys, tmp_path / "results" / "runs.jsonl")
    assert [row[:2] for row in rows] == [["finetune", "1"]] * 2
    assert all(row[-1].startswith("data.sha256=") for row in rows)


def test_a_feature_file_is_read_once_for_all_seeds(tmp_path, monkeypatch, results_dir):
    data = tmp_path / "feats.csv"
    synthetic = SyntheticConfig(num_classes=4, samples_per_class=40, seed=0)
    save_feature_file(generate_synthetic_tasks(synthetic, T=2), data)
    path = _write_config(tmp_path, {**TINY, "seeds": [0, 1, 2], "data": {"source": "file", "path": str(data)}})
    real = config_mod.load_feature_file
    calls = []
    monkeypatch.setattr(config_mod, "load_feature_file", lambda p: calls.append(p) or real(p))
    assert cli.main(["run", "--config", path]) == 0
    assert calls == [str(data)]

    def untimed(record: dict) -> dict:
        return {key: value for key, value in record.items() if not key.startswith("wall_ms")}

    config = load_config(path)
    expected = [untimed(run_sequence(config, config.tasks_for_seed(s), s).to_json_dict()) for s in (0, 1, 2)]
    lines = (results_dir / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    assert [untimed(json.loads(line)) for line in lines] == expected
