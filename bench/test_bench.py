"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import measure
import spans
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE_CONFIG = {
    "T": 2,
    "K": 4,
    "epochs_per_task": 1,
    "momentum": 0.0,
    "probe": {"epochs": 2},
    "data": {"num_classes": 4, "samples_per_class": 40},
}
SMOKE_METHODS = ("finetune", "decor", "lwf", "simclr", "simclr+decor", "simclr+lwf")


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _bindings() -> dict:
    """Every attribute of every decor module and every traced class."""
    snapshot = {}
    for module in spans._decor_modules():
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
    for target in spans.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        if class_name:
            cls = getattr(sys.modules[module_name], class_name)
            snapshot[(target.owner, target.attr)] = cls.__dict__[target.attr]
    return snapshot


def test_tracer_restores_the_original_functions():
    import decor.harness
    import decor.nn

    before = _bindings()
    forward_cached = decor.nn.forward_cached
    tracer = spans.Tracer()
    with tracer:
        assert tracer.missing == []
        assert decor.nn.forward_cached is not forward_cached
        assert decor.harness.run_sequence is not before[("decor.harness", "run_sequence")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_declared_metrics_match_the_emitted_ones():
    assert measure.END_TO_END_UNITS == _declared("end_to_end")
    assert measure.PER_LAYER_UNITS == _declared("per_layer")
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("via_cli", [False, True], ids=["run_sequence", "cli"])
def test_smoke_workload_runs_untraced_and_traced(tmp_path, via_cli):
    methods = ("finetune", "lwf", "simclr") if via_cli else SMOKE_METHODS
    smoke = Workload("smoke", methods, SMOKE_CONFIG, via_cli=via_cli)
    results = {}
    for trace in (False, True):
        result, details = measure.measure(smoke, 3, 0.0, trace, tmp_path / f"work{int(trace)}", golden=None)
        assert details["problems"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = _declared("per_layer" if trace else "end_to_end")
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        assert not (tmp_path / f"work{int(trace)}").exists()
        results[trace] = result["metrics"]
    assert results[False]["run_s"]["value"] > 0
    assert results[False]["setup_s"]["value"] > 0
    layers = results[True]
    assert layers["harness.train_steps"]["value"] > 0
    assert layers["probe.evaluate_s"]["value"] > 0
    assert (layers["kmeans.fit_calls"]["value"] > 0) == (not via_cli)
    assert (layers["cli.self_s"]["value"] > 0) == via_cli


def test_golden_covers_every_workload_and_method():
    from workloads import load_golden

    golden = load_golden()
    assert golden["seed"] == 0
    for name, workload in WORKLOADS.items():
        assert sorted(golden["workloads"][name]) == sorted(workload.methods)
