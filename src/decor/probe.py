"""Linear evaluation of a frozen encoder.

LEP trains one linear classifier on every seen task's train split; SLEP
first draws a fixed-size class-stratified subset per task. Accuracy is
always measured on held-out test rows. The encoder is never modified; the
harness asserts its checksum around every probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import TaskDataset
from .errors import ConfigError, StateError
from .seeds import rng_for, sub_seed

PROBE_MODES = ("LEP", "SLEP")


@dataclass(frozen=True)
class ProbeConfig:
    mode: str = "LEP"
    samples_per_task: int = 200  # SLEP only
    epochs: int = 50
    lr: float = 0.2
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PROBE_MODES:
            raise ConfigError(f"mode: must be LEP or SLEP, got {self.mode!r}")
        if self.samples_per_task < 1:
            raise ConfigError(f"samples_per_task: must be >= 1, got {self.samples_per_task}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")


def subset_sample(data: TaskDataset, n: int, seed: int) -> TaskDataset:
    """Class-stratified sample of n rows without replacement.

    Classes are processed in ascending id order; each gets floor(n / C)
    rows plus one extra for the first n mod C classes, capped at the rows
    the class actually has. If n covers the whole task the task itself is
    returned. Row order of the original dataset is preserved.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if len(data) == 0:
        raise ConfigError(f"task {data.task_id} is empty")
    if n >= len(data):
        return data
    classes = sorted(set(data.labels.tolist()))
    base, extra = divmod(n, len(classes))
    chosen: list[np.ndarray] = []
    for rank, c in enumerate(classes):
        quota = base + (1 if rank < extra else 0)
        rows = np.flatnonzero(data.labels == c)
        take = min(quota, rows.size)
        rng = rng_for(seed, "subset", data.task_id, c)
        chosen.append(rng.permutation(rows)[:take])
    idx = np.sort(np.concatenate(chosen))
    return data.subset(idx)


def linear_probe(train_sets, test_sets, num_classes: int, cfg: ProbeConfig) -> list[float]:
    """Train one linear classifier on the union of train sets; report the
    test accuracy of every task as a percentage.

    `train_sets` and `test_sets` are parallel lists of (features, labels)
    arrays, one entry per seen task.
    """
    if not train_sets:
        raise StateError("no seen tasks to probe")
    if len(train_sets) != len(test_sets):
        raise ConfigError("train/test task lists differ in length")
    x = np.vstack([f for f, _ in train_sets])
    y = np.concatenate([l for _, l in train_sets]).astype(np.int64)
    head = nn.init_network([x.shape[1], num_classes], seed=sub_seed(cfg.seed, "probe-init"))
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, "probe-shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            logits, caches = nn.forward_cached(head, x[rows])
            _, dlogits = nn.mean_cross_entropy(logits, y[rows])
            grads, _ = nn.backward(head, caches, dlogits)
            head = nn.sgd_step(head, grads, cfg.lr)
    accuracies = []
    for feats, labels in test_sets:
        pred = nn.forward(head, feats).argmax(axis=1)
        accuracies.append(float(np.mean(pred == labels) * 100.0))
    return accuracies


def evaluate_probe(
    encoder: nn.Network,
    tasks_seen: list[TaskDataset],
    num_classes: int,
    cfg: ProbeConfig,
) -> list[float]:
    """Full protocol for one checkpoint: extract, (subset,) train, score."""
    if not tasks_seen:
        raise StateError("no seen tasks to probe")
    before = nn.parameter_checksum(encoder)
    train_sets, test_sets = [], []
    for task in tasks_seen:
        train_part = task.train_only()
        if cfg.mode == "SLEP":
            train_part = subset_sample(
                train_part, cfg.samples_per_task, seed=sub_seed(cfg.seed, "slep", task.task_id)
            )
        tx, ty, _ = train_part.train_view()
        train_sets.append((nn.forward(encoder, tx), ty))
        ex, ey, _ = task.test_view()
        test_sets.append((nn.forward(encoder, ex), ey))
    accs = linear_probe(train_sets, test_sets, num_classes, cfg)
    if nn.parameter_checksum(encoder) != before:
        raise StateError("probe modified encoder parameters")
    return accs
