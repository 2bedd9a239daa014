"""Continual-learning run orchestration and metrics.

`run_sequence` trains an encoder through an ordered task sequence, probing
the frozen encoder at the end of every task. Every method runs through one
training step, `_step`, the one place where the loss

    L = L_base + lwf_weight * KL + lam * L_pd

is formed, from two parts named by the method table in `config`:

- L_base picks the views and the head: cross-entropy over the seen classes
  on one augmented view through the classifier, or NT-Xent on two views
  through the projector;
- the regularizer is a hook on view 0 and the other term is 0: none, LwF
  (KL from the teacher snapshot on the head output) or decor (L_pd, the
  cross-entropy of the index predictor on the encoder output against the
  stored indices).

At each boundary LwF snapshots the encoder and head, and decor clusters
the next task's features into the index table. The probe only reads the
frozen encoder, and no probe depends on another, so on Linux every
boundary's probe but the last runs in a forked child beside the next
tasks' training and K-means, with up to one child per CPU the process may
use; elsewhere, and at the last boundary, it runs in the calling process.
Boundary t's probe result is appended, in task order, as row t of the
run's accuracy rows: A[t][j] for j <= t. From rows 1..t come the average
seen-task accuracy A_t and the mean maximum forgetting F_t:

    A_t = (1/t) * sum_{j<=t} A[t][j]
    F_t = (1/(t-1)) * sum_{j<t} max_{tau<=t} (A[tau][j] - A[t][j])

One run is deterministic for any core count given (config, seed):
every random choice flows through a named sub-seed stream, and a
regularizer at weight 0 does not run, so decor at lambda 0 and LwF at
weight 0 replay the finetune trajectory bit for bit; a probe gives the
same bits in a child as inline. A training step that goes non-finite
raises a NumericError naming the method, seed, task, epoch and step; a
probe that does, one naming the method, seed and task.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from . import nn
from .config import METHODS, ExperimentConfig, identity_hash
from .data import TaskDataset, validate_task_sequence
from .errors import ConfigError, NumericError, StateError
from .objectives import (
    TeacherSnapshot,
    augment_two_views,
    augment_view,
    lwf_distill_loss,
    nt_xent_loss,
    supervised_ce_loss,
)
from .probe import evaluate_probe
from .regularizer import (
    DecorState,
    distill_loss,
    increment,
    init_index_predictor,
    serialize_state,
    storage_bits,
)
from .seeds import sub_seed


def average_accuracy(rows: list[list[float]]) -> float:
    """Mean accuracy over all tasks seen by the last of `rows`."""
    return float(np.mean(rows[-1]))


def max_forgetting(rows: list[list[float]]) -> float:
    """Mean over past tasks of the last row's drop from the best accuracy
    any of `rows` gave it.

    Defined as 0 for one row (empty sum).
    """
    total = 0.0
    for j in range(len(rows) - 1):
        best = max(row[j] for row in rows[j:])
        total += best - rows[-1][j]
    return total / max(len(rows) - 1, 1)


@dataclass
class RunRecord:
    """Everything one (config, seed) run produced, JSON-serializable."""

    method: str
    T: int
    seed: int
    config_hash: str
    config: dict  # ExperimentConfig.identity() of the run
    accuracy: list[list[float]]
    avg_accuracy: list[float]
    forgetting: list[float]
    storage_bits_per_task: list[int]
    state_bytes_per_task: list[int]
    teacher_bytes: int
    wall_ms_per_task: list[float]
    wall_ms_total: float

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _JSON_FIELDS}

    @classmethod
    def from_json_dict(cls, d) -> "RunRecord":
        """Inverse of `to_json_dict`; extra keys are ignored, and a record
        that does not fit raises ValueError saying what is wrong."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        missing = [name for name in _JSON_FIELDS if name not in d]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        for f in fields(cls):
            if not _fits(d[f.name], f.type):
                raise ValueError(f"{f.name}: expected {f.type}, got {d[f.name]!r}")
        record = cls(**{name: d[name] for name in _JSON_FIELDS})
        if record.T < 1:
            raise ValueError(f"T: expected an integer >= 1, got {record.T!r}")
        for name in _PER_TASK_FIELDS:
            value = getattr(record, name)
            if len(value) != record.T:
                raise ValueError(f"{name}: expected a list of T={record.T} entries, got {value!r}")
        return record


_JSON_FIELDS = [f.name for f in fields(RunRecord)]
# the fields declared as list[...] hold one entry per task
_PER_TASK_FIELDS = [f.name for f in fields(RunRecord) if f.type.startswith("list[")]


def _fits(value, type_name: str) -> bool:
    """Whether a JSON value has the type a RunRecord field declares."""
    if type_name.startswith("list["):
        return isinstance(value, list) and all(_fits(v, type_name[5:-1]) for v in value)
    kinds = {"str": (str,), "int": (int,), "float": (int, float), "dict": (dict,)}
    return type(value) in kinds[type_name]


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


class _SgdMomentum:
    """Velocity-tracking wrapper around the pure sgd_step.

    v <- momentum * v + g; p <- p - lr * v. With momentum 0 this reduces to
    plain SGD exactly (v == g every step).
    """

    def __init__(self, lr: float, momentum: float):
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[str, nn.GradientSet] = {}

    def step(self, name: str, net: nn.Network, grads: nn.GradientSet) -> nn.Network:
        if self.momentum == 0.0:
            return nn.sgd_step(net, grads, self.lr)
        v = self._velocity.get(name)
        v = grads if v is None else nn.add_grads(grads, v, scale=self.momentum)
        self._velocity[name] = v
        return nn.sgd_step(net, v, self.lr)

    def reset(self, name: str) -> None:
        self._velocity.pop(name, None)


def _step(
    config: ExperimentConfig, modules: dict, batch: tuple, seen_mask: np.ndarray,
    state: DecorState | None, teacher: TeacherSnapshot | None,
) -> tuple[dict[str, float], dict[str, nn.GradientSet]]:
    """One step on `batch` = (x, labels, sample_ids, aug_cfg); moves no parameter.

    Returns (losses, grads): base, kl, pd and total = base + lwf_weight * kl
    + lam * pd, with kl and pd 0.0 where their regularizer is off, and the
    gradient of total for each module to be stepped.
    """
    x, labels, sample_ids, aug_cfg = batch
    encoder, head = modules["encoder"], modules["head"]
    contrastive = METHODS[config.method][0] == "simclr"
    views = augment_two_views(x, aug_cfg) if contrastive else (augment_view(x, aug_cfg),)
    feats, enc_caches = zip(*(nn.forward_cached(encoder, v) for v in views))
    outs, head_caches = zip(*(nn.forward_cached(head, f) for f in feats))
    if contrastive:
        base, douts = nt_xent_loss(*outs, config.nt_xent_temperature)
        douts = list(douts)
    else:
        base, dout = supervised_ce_loss(outs[0], labels, class_mask=seen_mask)
        douts = [dout]
    losses = {"base": base, "kl": 0.0, "pd": 0.0}
    grads = {}

    # regularizer hooks, both on view 0: LwF on the head output, decor on the
    # encoder output
    if teacher is not None:
        losses["kl"], dkl = lwf_distill_loss(teacher, outs[0], views[0])
        douts[0] = douts[0] + config.lwf_weight * dkl
    head_grads, dfeats = zip(*(nn.backward(head, c, d) for c, d in zip(head_caches, douts)))
    dfeats = list(dfeats)
    if state is not None:
        predictor = modules["predictor"]
        plogits, p_cache = nn.forward_cached(predictor, feats[0])
        losses["pd"], dplogits = distill_loss(plogits, state, sample_ids)
        grads["predictor"], dfeats_pd = nn.backward(predictor, p_cache, config.lam * dplogits)
        dfeats[0] = dfeats[0] + dfeats_pd

    enc_grads = [nn.backward(encoder, c, d, input_grad=False)[0] for c, d in zip(enc_caches, dfeats)]
    grads["encoder"] = reduce(nn.add_grads, enc_grads)
    grads["head"] = reduce(nn.add_grads, head_grads)
    losses["total"] = losses["base"] + config.lwf_weight * losses["kl"] + config.lam * losses["pd"]
    return losses, grads


def _probe(probe_args: tuple) -> tuple[str, object]:
    """`evaluate_probe(*probe_args)` as ("ok", accuracies) or ("error", exception)."""
    try:
        # as in training, numpy's overflow warnings are off: a diverging
        # probe still ends at its finiteness check on the logits
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", evaluate_probe(*probe_args)
    except Exception as exc:
        return "error", exc


def _start_probe(probe_args: tuple) -> tuple[int, int] | None:
    """Run `_probe(probe_args)` in a forked child; returns (pid, read end of
    the pipe its pickled outcome comes through), or None where the probe
    is to run inline: off Linux (macOS's Accelerate BLAS is not fork-safe)
    or when the fork fails."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return None
    read_fd, write_fd = os.pipe()
    try:
        # Python 3.12+ warns from os.fork() in a process with more than one
        # thread (a BLAS worker is one); a warning filter that raised it
        # would lose the pid of a child that already exists
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # out of processes or memory: the probe runs inline
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # the child leaves through os._exit: no exit handlers, no flush of
        # buffers it shares with the parent
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_probe(probe_args)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _finish_probe(pid: int, read_fd: int) -> tuple[str, object]:
    """Wait for a probe child; returns its outcome, as `_probe` gives it."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        return "error", StateError(f"probe process exited with code {code} and no result")
    return pickle.loads(data)


def run_sequence(config: ExperimentConfig, tasks: list[TaskDataset], seed: int) -> RunRecord:
    """Train through the task sequence and evaluate at every boundary.

    `tasks` must be a class-disjoint sequence of length config.T.

    On Linux the probe of boundary t < T runs in a forked child on the
    frozen encoder while the next tasks train. The children wait in a FIFO
    that holds at most one per CPU the process may use. A boundary whose
    FIFO is full first collects the oldest child, so with one CPU at most
    one child exists. The last boundary's probe runs in the calling
    process, as every probe does elsewhere and as one whose fork failed
    does, and the children still in flight are collected after it. Row t
    of the accuracy rows is appended in task order. A task's
    `wall_ms_per_task` entry thus holds no probe that ran beside training,
    only the waits for the children it collected. A probe that fails
    raises its own exception type, naming the method, seed and task. No
    child outlives the call: when the run fails, every child in flight is
    killed and reaped.
    """
    if config.method not in METHODS:
        raise ConfigError(f"method: unknown value {config.method!r}")
    contrastive = METHODS[config.method][0] == "simclr"
    reg = config.regularizer()
    validate_task_sequence(tasks)
    if len(tasks) != config.T:
        raise ConfigError(f"config.T={config.T} but {len(tasks)} tasks supplied")
    num_classes = int(max(t.labels.max() for t in tasks)) + 1
    identity = config.identity()
    in_dim = tasks[0].feature_dim

    if contrastive:
        head_dims, head_stream = [config.projector_hidden, config.projector_out], "init-projector"
    else:
        head_dims, head_stream = [num_classes], "init-classifier"
    # the modules `_step` trains; "predictor" joins once decor has a state
    modules = {
        "encoder": nn.init_network(
            [in_dim, *config.encoder_hidden, config.encoder_out], seed=sub_seed(seed, "init-encoder")
        ),
        "head": nn.init_network([config.encoder_out, *head_dims], seed=sub_seed(seed, head_stream)),
    }

    optimizer = _SgdMomentum(config.lr, config.momentum)
    state: DecorState | None = None
    teacher: TeacherSnapshot | None = None
    teacher_bytes = 0

    accuracy: list[list[float]] = []  # row t: boundary t's probe of tasks 1..t
    storage_bits_per_task: list[int] = []
    state_bytes_per_task: list[int] = []
    wall_ms_per_task: list[float] = []
    seen_mask = np.zeros(num_classes, dtype=bool)

    def record_probe(t: int, outcome: tuple[str, object]) -> None:
        """Append row t from a probe's outcome; an error is re-raised naming the run and task."""
        kind, value = outcome
        if kind == "error":
            raise type(value)(f"{config.method} seed {seed} task {t} probe: {value}") from value
        if t != len(accuracy) + 1 or len(value) != t:
            raise StateError(f"row {t} of {len(value)} entries cannot follow {len(accuracy)} rows")
        for acc in value:
            if not 0.0 <= acc <= 100.0:
                raise ConfigError(f"accuracy {acc} outside [0, 100]")
        accuracy.append(value)

    def collect_oldest() -> None:
        done, *child = in_flight.popleft()
        record_probe(done, _finish_probe(*child))

    in_flight: deque[tuple[int, int, int]] = deque()  # (t, pid, read end) of each probe child
    max_children = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    run_start = time.perf_counter()
    try:
        for t, task in enumerate(tasks, start=1):
            task_start = time.perf_counter()
            seen_mask[list(task.class_set)] = True
            train_x, train_y, train_ids = task.train_view()
            n = train_x.shape[0]
            if n == 0:
                raise ConfigError(f"task {task.task_id} has no train rows")

            if state is not None:
                modules["predictor"] = init_index_predictor(
                    config.predictor_config(), config.encoder_out, seed=sub_seed(seed, "init-predictor", t)
                )
                optimizer.reset("predictor")
            storage_bits_per_task.append(0 if state is None else storage_bits(len(state), state.K))
            state_bytes_per_task.append(0 if state is None else len(serialize_state(state)))

            # numpy's overflow warnings are off: a blow-up still ends at the step's
            # finiteness check (the logits' or the new parameters'), re-raised
            # naming the step
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    for epoch in range(config.epochs_per_task):
                        shuffle_rng = np.random.default_rng(sub_seed(seed, "shuffle", t, epoch))
                        for b, rows in enumerate(_batches(n, config.batch_size, shuffle_rng)):
                            if contrastive and len(rows) < 2:
                                continue  # a lone pair has no negatives
                            aug_cfg = config.augmentation_config(sub_seed(seed, "augment", t, epoch, b))
                            batch = (train_x[rows], train_y[rows], train_ids[rows], aug_cfg)
                            _, grads = _step(config, modules, batch, seen_mask, state, teacher)
                            for name, g in grads.items():
                                modules[name] = optimizer.step(name, modules[name], g)
            except NumericError as exc:
                where = f"{config.method} seed {seed} task {t} epoch {epoch + 1} step {b + 1}"
                raise NumericError(f"{where}: {exc}") from exc

            # task boundary: probe every seen task, then snapshot/cluster for
            # the next. Before the last boundary the probe starts in a child
            # that runs beside the next tasks; the last one runs here while
            # the children in flight end.
            encoder = modules["encoder"]
            probe_args = (encoder, tasks[:t], num_classes, config.probe_config(sub_seed(seed, "probe", t)))
            if len(in_flight) == max_children:
                collect_oldest()
            child = _start_probe(probe_args) if t < config.T else None
            if child is None:
                outcome = _probe(probe_args)
                while in_flight:
                    collect_oldest()
                record_probe(t, outcome)
            else:
                in_flight.append((t, *child))

            if reg == "lwf":
                teacher = TeacherSnapshot.capture(encoder, modules["head"], config.lwf_temperature)
                teacher_bytes = max(teacher_bytes, teacher.num_bytes())
            if reg == "decor" and t < config.T:
                next_x, _, next_ids = tasks[t].train_view()
                state = increment(encoder, next_x, config.K, sub_seed(seed, "kmeans", t), next_ids)
            wall_ms_per_task.append((time.perf_counter() - task_start) * 1000.0)
    finally:
        for _, pid, read_fd in in_flight:  # the run failed: kill and reap every child
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    return RunRecord(
        method=config.method,
        T=config.T,
        seed=seed,
        config_hash=identity_hash(identity),
        config=identity,
        accuracy=accuracy,
        avg_accuracy=[average_accuracy(accuracy[:t]) for t in range(1, config.T + 1)],
        forgetting=[max_forgetting(accuracy[:t]) for t in range(1, config.T + 1)],
        storage_bits_per_task=storage_bits_per_task,
        state_bytes_per_task=state_bytes_per_task,
        teacher_bytes=teacher_bytes,
        wall_ms_per_task=wall_ms_per_task,
        wall_ms_total=(time.perf_counter() - run_start) * 1000.0,
    )
