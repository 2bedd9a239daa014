"""Continual-learning run orchestration and metrics.

`run_sequence` trains an encoder through an ordered task sequence, probing
the frozen encoder at the end of every task. Every method runs through one
training step, built from two parts named by the method table in `config`:

- the base objective picks the views and the head: one augmented view
  through the classifier with cross-entropy over the seen classes, or two
  views through the projector with NT-Xent;
- the regularizer is a hook on view 0's gradients: none, LwF (adds
  lwf_weight * dKL to the head output gradient) or decor (the index
  predictor's lam-weighted gradient is added to the encoder output
  gradient).

At each boundary LwF snapshots the encoder and head, and decor clusters
the next task's features into the index table. The probe results fill a
lower-triangular AccuracyMatrix from which the average seen-task accuracy
A_t and the mean maximum forgetting F_t are computed:

    A_t = (1/t) * sum_{j<=t} A[t][j]
    F_t = (1/(t-1)) * sum_{j<t} max_{tau<=t} (A[tau][j] - A[t][j])

One run is single-threaded and fully deterministic given (config, seed):
every random choice flows through a named sub-seed stream, so enabling the
regularizer with weight 0 replays the finetune trajectory bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace as dc_replace
from functools import reduce

import numpy as np

from . import nn
from .config import METHODS, ExperimentConfig
from .data import TaskDataset, validate_task_sequence
from .errors import ConfigError, StateError
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


class AccuracyMatrix:
    """Lower-triangular accuracy store; each (t, j) written exactly once."""

    def __init__(self, T: int):
        if T < 1:
            raise ConfigError(f"T must be >= 1, got {T}")
        self.T = T
        self._values = np.full((T, T), np.nan)
        self._written = np.zeros((T, T), dtype=bool)

    def set_entry(self, t: int, j: int, value: float) -> None:
        self._check_coords(t, j)
        if self._written[t - 1, j - 1]:
            raise StateError(f"A[{t}][{j}] already written")
        if not 0.0 <= value <= 100.0:
            raise ConfigError(f"accuracy {value} outside [0, 100]")
        self._values[t - 1, j - 1] = value
        self._written[t - 1, j - 1] = True

    def entry(self, t: int, j: int) -> float:
        self._check_coords(t, j)
        if not self._written[t - 1, j - 1]:
            raise StateError(f"A[{t}][{j}] not written yet")
        return float(self._values[t - 1, j - 1])

    def _check_coords(self, t: int, j: int) -> None:
        if not (1 <= j <= t <= self.T):
            raise IndexError(f"need 1 <= j <= t <= {self.T}, got t={t}, j={j}")

    def row_complete(self, t: int) -> bool:
        return bool(self._written[t - 1, :t].all())

    def rows(self) -> list[list[float]]:
        """Lower-triangular contents as nested lists (row t has t entries)."""
        return [[float(self._values[t, j]) for j in range(t + 1)] for t in range(self.T)]


def average_accuracy(A: AccuracyMatrix, t: int) -> float:
    """Mean accuracy over all tasks seen by the end of task t."""
    if not A.row_complete(t):
        raise StateError(f"row {t} incomplete")
    return float(np.mean([A.entry(t, j) for j in range(1, t + 1)]))


def max_forgetting(A: AccuracyMatrix, t: int) -> float:
    """Mean over past tasks of the drop from the historical best accuracy.

    Defined as 0 at t=1 (empty sum).
    """
    if t == 1:
        if not A.row_complete(1):
            raise StateError("row 1 incomplete")
        return 0.0
    for tau in range(1, t + 1):
        if not A.row_complete(tau):
            raise StateError(f"row {tau} incomplete")
    total = 0.0
    for j in range(1, t):
        best = max(A.entry(tau, j) for tau in range(j, t + 1))
        total += best - A.entry(t, j)
    return total / (t - 1)


@dataclass
class RunRecord:
    """Everything one (config, seed) run produced, JSON-serializable."""

    method: str
    T: int
    K: int
    L: int
    lam: float
    seed: int
    config_hash: str
    probe_mode: str
    accuracy: list[list[float]]
    avg_accuracy: list[float]
    forgetting: list[float]
    storage_bits_per_task: list[int]
    state_bytes_per_task: list[int]
    teacher_bytes: int
    wall_ms_per_task: list[float]
    wall_ms_total: float
    events: list = field(default_factory=list, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {_JSON_KEYS.get(name, name): getattr(self, name) for name in _JSON_FIELDS}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunRecord":
        return cls(**{name: d[_JSON_KEYS.get(name, name)] for name in _JSON_FIELDS})

    def assert_event_order(self) -> None:
        """The state used by task t must exist before task t trains at all."""
        first_step = {}
        built_at = {}
        for pos, (kind, task) in enumerate(self.events):
            if kind == "train_step" and task not in first_step:
                first_step[task] = pos
            elif kind == "increment":
                built_at[task] = pos
        for task, pos in built_at.items():
            if task in first_step and pos >= first_step[task]:
                raise StateError(f"state for task {task} built after training began")


# every RunRecord field but the in-memory `events` goes to JSON, under its
# own name or the key given here
_JSON_FIELDS = [f.name for f in fields(RunRecord) if f.name != "events"]
_JSON_KEYS = {"lam": "lambda"}


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


def run_sequence(config: ExperimentConfig, tasks: list[TaskDataset], seed: int) -> RunRecord:
    """Train through the task sequence and evaluate at every boundary.

    `tasks` must be a class-disjoint sequence of length config.T.
    """
    if config.method not in METHODS:
        raise ConfigError(f"method: unknown value {config.method!r}")
    base, reg = METHODS[config.method]
    contrastive = base == "simclr"
    validate_task_sequence(tasks)
    if len(tasks) != config.T:
        raise ConfigError(f"config.T={config.T} but {len(tasks)} tasks supplied")
    num_classes = int(max(t.labels.max() for t in tasks)) + 1
    in_dim = tasks[0].feature_dim

    encoder = nn.init_network(
        [in_dim, *config.encoder_hidden, config.encoder_out],
        seed=sub_seed(seed, "init-encoder"),
    )
    if contrastive:
        head = nn.init_network(
            [config.encoder_out, config.projector_hidden, config.projector_out],
            seed=sub_seed(seed, "init-projector"),
        )
    else:
        head = nn.init_network(
            [config.encoder_out, num_classes], seed=sub_seed(seed, "init-classifier")
        )

    optimizer = _SgdMomentum(config.lr, config.momentum)
    state: DecorState | None = None
    predictor = None
    teacher: TeacherSnapshot | None = None
    teacher_bytes = 0

    matrix = AccuracyMatrix(config.T)
    events: list[tuple[str, int]] = []
    storage_bits_per_task: list[int] = []
    state_bytes_per_task: list[int] = []
    wall_ms_per_task: list[float] = []
    avg_acc: list[float] = []
    forgetting: list[float] = []
    seen_mask = np.zeros(num_classes, dtype=bool)

    run_start = time.perf_counter()
    for t, task in enumerate(tasks, start=1):
        task_start = time.perf_counter()
        seen_mask[list(task.class_set)] = True
        train_x, train_y, train_ids = task.train_view()
        n = train_x.shape[0]
        if n == 0:
            raise ConfigError(f"task {task.task_id} has no train rows")

        if state is not None:
            predictor = init_index_predictor(
                config.predictor_config(),
                config.encoder_out,
                seed=sub_seed(seed, "init-predictor", t),
            )
            optimizer.reset("predictor")
        storage_bits_per_task.append(0 if state is None else storage_bits(len(state), state.K))
        state_bytes_per_task.append(0 if state is None else len(serialize_state(state)))

        for epoch in range(config.epochs_per_task):
            shuffle_rng = np.random.default_rng(sub_seed(seed, "shuffle", t, epoch))
            for b, rows in enumerate(_batches(n, config.batch_size, shuffle_rng)):
                if contrastive and len(rows) < 2:
                    continue  # a lone pair has no negatives
                aug_cfg = config.augmentation_config(sub_seed(seed, "augment", t, epoch, b))
                x = train_x[rows]
                if contrastive:
                    views = augment_two_views(x, aug_cfg)
                else:
                    views = (augment_view(x, aug_cfg),)
                feats, enc_caches = zip(*(nn.forward_cached(encoder, v) for v in views))
                outs, head_caches = zip(*(nn.forward_cached(head, f) for f in feats))
                if contrastive:
                    douts = list(nt_xent_loss(*outs, config.nt_xent_temperature)[1])
                else:
                    douts = [supervised_ce_loss(outs[0], train_y[rows], class_mask=seen_mask)[1]]

                # regularizer hooks, both on view 0: LwF on the head output,
                # decor on the encoder output
                if teacher is not None:
                    _, dkl = lwf_distill_loss(teacher, outs[0], views[0])
                    douts[0] = douts[0] + config.lwf_weight * dkl
                head_grads, dfeats = zip(
                    *(nn.backward(head, c, d) for c, d in zip(head_caches, douts))
                )
                dfeats = list(dfeats)
                if state is not None and config.lam != 0.0:
                    plogits, p_cache = nn.forward_cached(predictor, feats[0])
                    _, dplogits = distill_loss(plogits, state, train_ids[rows])
                    pred_grads, dfeats_pd = nn.backward(predictor, p_cache, config.lam * dplogits)
                    dfeats[0] = dfeats[0] + dfeats_pd
                    predictor = optimizer.step("predictor", predictor, pred_grads)

                enc_grads = [nn.backward(encoder, c, d)[0] for c, d in zip(enc_caches, dfeats)]
                encoder = optimizer.step("encoder", encoder, reduce(nn.add_grads, enc_grads))
                head = optimizer.step("head", head, reduce(nn.add_grads, head_grads))
                events.append(("train_step", t))

        # task boundary: probe every seen task, snapshot/cluster for the next
        probe_cfg = config.probe_config(sub_seed(seed, "probe", t))
        for j, acc in enumerate(evaluate_probe(encoder, tasks[:t], num_classes, probe_cfg), start=1):
            matrix.set_entry(t, j, acc)
        avg_acc.append(average_accuracy(matrix, t))
        forgetting.append(max_forgetting(matrix, t))

        if reg == "lwf":
            teacher = TeacherSnapshot.capture(encoder, head, config.lwf_temperature)
            teacher_bytes = max(teacher_bytes, teacher.num_bytes())
        if reg == "decor" and t < config.T:
            next_x, _, next_ids = tasks[t].train_view()
            state = increment(
                encoder, next_x, config.K, seed=sub_seed(seed, "kmeans", t), sample_ids=next_ids
            )
            events.append(("increment", t + 1))
        wall_ms_per_task.append((time.perf_counter() - task_start) * 1000.0)

    record = RunRecord(
        method=config.method,
        T=config.T,
        K=config.K,
        L=config.L,
        lam=config.lam,
        seed=seed,
        config_hash=config.config_hash(),
        probe_mode=config.probe_mode,
        accuracy=matrix.rows(),
        avg_accuracy=avg_acc,
        forgetting=forgetting,
        storage_bits_per_task=storage_bits_per_task,
        state_bytes_per_task=state_bytes_per_task,
        teacher_bytes=teacher_bytes,
        wall_ms_per_task=wall_ms_per_task,
        wall_ms_total=(time.perf_counter() - run_start) * 1000.0,
        events=events,
    )
    record.assert_event_order()
    return record


def sweep(config, K_values, L_values) -> list[RunRecord]:
    """One run per (K, L, seed) grid point, tasks rebuilt per seed."""
    K_values = list(K_values)
    L_values = list(L_values)
    if not K_values or not L_values:
        raise ConfigError("sweep grid is empty")
    records = []
    for K in K_values:
        for L in L_values:
            point = dc_replace(config, K=K, L=L)
            point.validate()
            for seed in point.seeds:
                tasks = point.tasks_for_seed(seed)
                records.append(run_sequence(point, tasks, seed))
    return records
