"""Linear evaluation of a frozen encoder.

One linear classifier is trained on every seen task's full train split,
and accuracy is measured on each task's held-out test rows. The encoder is
never modified; the probe asserts its checksum around every evaluation.

SGD updates the head's raw `W, b` in place; `nn.softmax_ce_grad` gives the
gradient and no input gradient is formed. Each step gathers its own rows,
which measured faster than gathering a whole epoch's at once. Labels are
range-checked once per probe, logits are checked for finiteness on every
step, and the final `W, b` pass `nn.DenseParams`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import TaskDataset
from .errors import ConfigError, NumericError, StateError
from .seeds import rng_for, sub_seed


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 50
    lr: float = 0.2
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")


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
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise IndexError(f"label outside [0, {num_classes})")
    head = nn.Network([nn.DenseParams(*_fit_head(x, y, num_classes, cfg))])
    accuracies = []
    for feats, labels in test_sets:
        pred = nn.forward(head, feats).argmax(axis=1)
        accuracies.append(float(np.mean(pred == labels) * 100.0))
    return accuracies


def _fit_head(x: np.ndarray, y: np.ndarray, num_classes: int, cfg: ProbeConfig):
    """Minibatch SGD on the head's raw arrays; returns the final (W, b)."""
    seed = sub_seed(cfg.seed, "probe-init")
    layer = nn.init_network([x.shape[1], num_classes], seed=seed).layers[0]
    w, b = layer.weights, layer.bias
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, "probe-shuffle", epoch).permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            xb = x[rows]
            logits = xb @ w.T + b
            if not np.isfinite(logits).all():
                raise NumericError("non-finite logits")
            g = nn.softmax_ce_grad(logits, y[rows])[0]
            w -= cfg.lr * (g.T @ xb)
            b -= cfg.lr * g.sum(axis=0)
    return w, b


def evaluate_probe(
    encoder: nn.Network,
    tasks_seen: list[TaskDataset],
    num_classes: int,
    cfg: ProbeConfig,
) -> list[float]:
    """Full protocol for one checkpoint: extract, train, score."""
    before = nn.parameter_checksum(encoder)
    train_sets, test_sets = [], []
    for task in tasks_seen:
        tx, ty, _ = task.train_view()
        train_sets.append((nn.forward(encoder, tx), ty))
        ex, ey, _ = task.test_view()
        test_sets.append((nn.forward(encoder, ex), ey))
    accs = linear_probe(train_sets, test_sets, num_classes, cfg)
    if nn.parameter_checksum(encoder) != before:
        raise StateError("probe modified encoder parameters")
    return accs
