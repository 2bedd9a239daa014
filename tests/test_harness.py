"""End-to-end tests of `run_sequence` and the continual metrics.

The goldens below were recorded from a run of every method on a small
config at seed 0. They are compared bitwise: a refactor of the training
step that reorders any floating-point operation shows up here.
"""

import errno
import os
import signal
import sys
import warnings

import pytest
from hypothesis import given, strategies as st

from decor import harness
from decor.config import config_from_dict
from decor.errors import NumericError, StateError
from decor.harness import AccuracyMatrix, average_accuracy, max_forgetting, run_sequence
from oracles import naive_average_accuracy, naive_max_forgetting

SMALL = {
    "T": 3,
    "K": 8,
    "epochs_per_task": 5,
    "probe": {"epochs": 10},
    "data": {"num_classes": 6, "samples_per_class": 100},
}

# method -> (accuracy, state_bytes_per_task, teacher_bytes) at seed 0
GOLDEN = {
    "finetune": ([[100.0], [100.0, 100.0], [100.0, 100.0, 95.0]], [0, 0, 0], 0),
    "decor": ([[100.0], [100.0, 100.0], [100.0, 97.5, 90.0]], [0, 73, 73], 0),
    "lwf": ([[100.0], [100.0, 100.0], [97.5, 100.0, 95.0]], [0, 0, 0], 135728),
    "simclr": ([[100.0], [100.0, 97.5], [100.0, 100.0, 92.5]], [0, 0, 0], 0),
    "simclr+decor": ([[100.0], [100.0, 100.0], [100.0, 100.0, 92.5]], [0, 73, 73], 0),
    "simclr+lwf": ([[100.0], [100.0, 97.5], [100.0, 100.0, 90.0]], [0, 0, 0], 265216),
}


def _run(method, **overrides):
    config = config_from_dict({**SMALL, **overrides, "method": method, "seeds": [0]})
    return run_sequence(config, config.tasks_for_seed(0), 0)


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_outputs(method):
    record = _run(method)
    assert (record.accuracy, record.state_bytes_per_task, record.teacher_bytes) == GOLDEN[method]


def test_goldens_tell_every_method_apart():
    assert len({repr(accuracy) for accuracy, _, _ in GOLDEN.values()}) == len(GOLDEN)


def test_decor_with_lambda_zero_replays_finetune():
    decor = _run("decor", **{"lambda": 0})
    finetune = _run("finetune")
    assert decor.accuracy == finetune.accuracy
    assert decor.avg_accuracy == finetune.avg_accuracy
    assert decor.forgetting == finetune.forgetting


@pytest.mark.parametrize("method", ["decor", "simclr+lwf"])
def test_two_runs_of_one_config_are_equal(method):
    first, second = (
        {k: v for k, v in vars(_run(method)).items() if not k.startswith("wall_ms")}
        for _ in range(2)
    )
    assert first == second


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` starts during the test."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def children(monkeypatch):
    """The ("fork", pid) and ("reap", pid) calls the test makes, in order."""
    log = []
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            log.append(("fork", pid))
        return pid

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        if reaped[0]:
            log.append(("reap", reaped[0]))
        return reaped

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return log


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _paper_run(method, **overrides):
    config = config_from_dict({**overrides, "method": method, "seeds": [0]})
    return run_sequence(config, config.tasks_for_seed(0), 0)


def _kinds(log):
    return [kind for kind, _ in log]


def _pids(log, kind):
    return [pid for k, pid in log if k == kind]


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="probes run in children on Linux only")


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_a_probe_in_a_child_gives_the_inline_bits(method, forks, monkeypatch):
    forked = _run(method, epochs_per_task=1)
    # every boundary's probe but the last runs in a child, on Linux only
    assert len(forks) == (2 if sys.platform == "linux" else 0)
    monkeypatch.delattr(os, "fork")
    inline = _run(method, epochs_per_task=1)
    assert forked.accuracy == inline.accuracy
    assert forked.avg_accuracy == inline.avg_accuracy
    assert forked.forgetting == inline.forgetting


def test_a_diverging_run_reaps_the_probe_in_flight(children, monkeypatch):
    # lambda 5 at momentum 0.9 overflows in task 4's 9th step, while, with 4
    # CPUs, the probes of tasks 1-3 run in children that only the error path
    # can reap
    cpus(monkeypatch, 4)
    with pytest.raises(NumericError, match="^decor seed 0 task 4 epoch 1 step 9: "):
        _paper_run("decor", **{"lambda": 5})
    if sys.platform == "linux":
        assert _kinds(children) == ["fork"] * 3 + ["reap"] * 3
    assert _pids(children, "reap") == _pids(children, "fork")


def test_a_failed_fork_runs_the_probe_inline(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    record = _run("decor")
    assert (record.accuracy, record.state_bytes_per_task, record.teacher_bytes) == GOLDEN["decor"]


@pytest.mark.skipif(sys.platform != "linux", reason="probes run in children on Linux only")
def test_a_probe_child_that_dies_is_named(monkeypatch):
    parent, real = os.getpid(), harness._probe

    def probe(probe_args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(probe_args)

    monkeypatch.setattr(harness, "_probe", probe)
    message = "^finetune seed 0 task 1 probe: probe process exited with code -9 and no result$"
    with pytest.raises(StateError, match=message):
        _run("finetune", epochs_per_task=1)


def test_a_fork_that_warns_as_python_3_12_does_loses_no_child(forks, monkeypatch):
    # Python 3.12+ warns in the parent after the fork when threads are live;
    # under an "error" filter the warning would lose the child's pid
    spy = os.fork

    def fork():
        pid = spy()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forked = _run("finetune", epochs_per_task=1)
    assert len(forks) == (2 if sys.platform == "linux" else 0)
    monkeypatch.delattr(os, "fork")
    inline = _run("finetune", epochs_per_task=1)
    assert (forked.accuracy, forked.avg_accuracy, forked.forgetting) == (
        inline.accuracy,
        inline.avg_accuracy,
        inline.forgetting,
    )


@linux_only
@pytest.mark.parametrize(
    "n, kinds",
    [
        # one child at a time: each is reaped before the next starts
        (1, ["fork", "reap"] * 4),
        # a full FIFO reaps its oldest child before the next probe starts
        (2, ["fork", "fork", "reap", "fork", "reap", "fork", "reap", "reap"]),
    ],
)
def test_the_probe_children_in_flight_never_outnumber_the_cpus(n, kinds, children, monkeypatch):
    cpus(monkeypatch, n)
    _paper_run("finetune", epochs_per_task=1)
    assert _kinds(children) == kinds
    assert _pids(children, "reap") == _pids(children, "fork")  # in task order


@linux_only
@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_four_cpus_keep_every_probe_child_in_flight(method, children, monkeypatch):
    cpus(monkeypatch, 4)
    forked = _paper_run(method, epochs_per_task=1)
    # the FIFO never fills before the last boundary, which reaps in task order
    assert _kinds(children) == ["fork"] * 4 + ["reap"] * 4
    assert _pids(children, "reap") == _pids(children, "fork")
    monkeypatch.delattr(os, "fork")
    inline = _paper_run(method, epochs_per_task=1)
    assert (forked.accuracy, forked.avg_accuracy, forked.forgetting) == (
        inline.accuracy,
        inline.avg_accuracy,
        inline.forgetting,
    )


@st.composite
def _lower_triangles(draw):
    T = draw(st.integers(1, 6))
    value = st.floats(0.0, 100.0, allow_nan=False)
    return [draw(st.lists(value, min_size=t, max_size=t)) for t in range(1, T + 1)]


@given(_lower_triangles())
def test_metrics_match_the_naive_formulas(rows):
    A = AccuracyMatrix(len(rows))
    for t, row in enumerate(rows, start=1):
        for j, value in enumerate(row, start=1):
            A.set_entry(t, j, value)
    for t in range(1, len(rows) + 1):
        assert average_accuracy(A, t) == pytest.approx(naive_average_accuracy(rows, t), abs=1e-9)
        assert max_forgetting(A, t) == pytest.approx(naive_max_forgetting(rows, t), abs=1e-9)
