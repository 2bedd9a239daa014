"""Class-incremental data: synthetic generator, task splitting, file I/O.

The synthetic generator places class means on a sphere and perturbs each
task's means by a fresh drift offset, so an encoder fine-tuned on later
tasks genuinely degrades on earlier ones. The on-disk format is a plain
text table:

    #decor-features v1 num_classes=<n> feature_dim=<d>
    task_id,sample_id,split,label,f1,...,fd

one sample per row, floats written with 17 significant digits so a
save/load round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .seeds import rng_for

FORMAT_HEADER_PREFIX = "#decor-features v1"
TRAIN_FRACTION = 4, 5  # train rows = floor(n * 4 / 5) per class


@dataclass(eq=False)
class TaskDataset:
    """One task's labeled feature vectors with stable sample ids."""

    task_id: int
    samples: np.ndarray  # (N, feature_dim)
    labels: np.ndarray  # (N,) global class ids
    sample_ids: np.ndarray  # (N,) unique across the whole sequence
    split: np.ndarray  # (N,) "train" | "test"

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        self.split = np.asarray(self.split, dtype="<U5")
        n = self.samples.shape[0]
        if self.samples.ndim != 2:
            raise ValidationError(f"task {self.task_id}: samples must be 2-D")
        for name, arr in (("labels", self.labels), ("sample_ids", self.sample_ids), ("split", self.split)):
            if arr.shape != (n,):
                raise ValidationError(f"task {self.task_id}: {name} length != {n}")
        if n and not set(np.unique(self.split)) <= {"train", "test"}:
            raise ValidationError(f"task {self.task_id}: split tags must be train|test")
        if len(set(self.sample_ids.tolist())) != n:
            raise ValidationError(f"task {self.task_id}: duplicate sample ids")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.samples.shape[1]

    @property
    def class_set(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.labels))

    def _view(self, mask: np.ndarray):
        return (self.samples[mask], self.labels[mask], self.sample_ids[mask])

    def train_view(self):
        """(samples, labels, sample_ids) of the train split."""
        return self._view(self.split == "train")

    def test_view(self):
        return self._view(self.split == "test")

    def subset(self, row_indices) -> "TaskDataset":
        idx = np.asarray(row_indices, dtype=np.int64)
        return TaskDataset(
            self.task_id,
            self.samples[idx],
            self.labels[idx],
            self.sample_ids[idx],
            self.split[idx],
        )

    def train_only(self) -> "TaskDataset":
        return self.subset(np.flatnonzero(self.split == "train"))


def validate_task_sequence(tasks: list[TaskDataset]) -> None:
    """Class sets pairwise disjoint, sample ids unique across the sequence."""
    if not tasks:
        raise ConfigError("task sequence is empty")
    seen_classes: set[int] = set()
    seen_ids: set[int] = set()
    for task in tasks:
        classes = set(task.class_set)
        overlap = classes & seen_classes
        if overlap:
            raise ConfigError(f"task {task.task_id} reuses classes {sorted(overlap)}")
        seen_classes |= classes
        ids = set(task.sample_ids.tolist())
        if ids & seen_ids:
            raise ValidationError(f"task {task.task_id} reuses sample ids")
        seen_ids |= ids


@dataclass(frozen=True)
class SyntheticConfig:
    num_classes: int = 10
    feature_dim: int = 64
    samples_per_class: int = 200
    class_separation: float = 6.0
    within_class_sigma: float = 1.5
    drift_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ConfigError(f"num_classes: must be >= 1, got {self.num_classes}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim: must be >= 1, got {self.feature_dim}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class: must be >= 1, got {self.samples_per_class}")
        if self.class_separation <= 0:
            raise ConfigError(f"class_separation: must be > 0, got {self.class_separation}")
        if self.within_class_sigma < 0:
            raise ConfigError(f"within_class_sigma: must be >= 0, got {self.within_class_sigma}")
        if self.drift_sigma < 0:
            raise ConfigError(f"drift_sigma: must be >= 0, got {self.drift_sigma}")


def split_classes_into_tasks(num_classes: int, T: int, seed: int) -> list[list[int]]:
    """Random permutation of class ids chunked into T equal disjoint sets."""
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if num_classes % T != 0:
        raise ConfigError(f"num_classes={num_classes} is not divisible by T={T}")
    perm = rng_for(seed, "class-split").permutation(num_classes)
    per = num_classes // T
    return [sorted(int(c) for c in perm[i * per : (i + 1) * per]) for i in range(T)]


def generate_synthetic_tasks(cfg: SyntheticConfig, T: int) -> list[TaskDataset]:
    """Deterministic drifting-Gaussian class-incremental sequence.

    Class means sit on a sphere of radius `class_separation`; every task
    adds one shared Gaussian offset (scale `drift_sigma`) to its class
    means. Each class is split 80/20 train/test by a seeded shuffle.
    """
    class_sets = split_classes_into_tasks(cfg.num_classes, T, cfg.seed)

    directions = rng_for(cfg.seed, "class-means").standard_normal(
        (cfg.num_classes, cfg.feature_dim)
    )
    norms = np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-12)
    base_means = directions / norms * cfg.class_separation

    tasks = []
    next_id = 0
    for t, classes in enumerate(class_sets, start=1):
        offset = rng_for(cfg.seed, "drift", t).standard_normal(cfg.feature_dim) * cfg.drift_sigma
        xs, ys, ids, tags = [], [], [], []
        for c in classes:
            noise_rng = rng_for(cfg.seed, "noise", t, c)
            x = (
                base_means[c][None, :]
                + offset[None, :]
                + cfg.within_class_sigma * noise_rng.standard_normal((cfg.samples_per_class, cfg.feature_dim))
            )
            n = cfg.samples_per_class
            n_train = n * TRAIN_FRACTION[0] // TRAIN_FRACTION[1]
            order = rng_for(cfg.seed, "split", t, c).permutation(n)
            tag = np.empty(n, dtype="<U5")
            tag[order[:n_train]] = "train"
            tag[order[n_train:]] = "test"
            xs.append(x)
            ys.append(np.full(n, c, dtype=np.int64))
            ids.append(np.arange(next_id, next_id + n, dtype=np.int64))
            tags.append(tag)
            next_id += n
        tasks.append(
            TaskDataset(
                task_id=t,
                samples=np.vstack(xs),
                labels=np.concatenate(ys),
                sample_ids=np.concatenate(ids),
                split=np.concatenate(tags),
            )
        )
    validate_task_sequence(tasks)
    return tasks


def save_feature_file(tasks: list[TaskDataset], path, num_classes: int | None = None) -> None:
    """Write the documented text format; exact float round trip."""
    if num_classes is None:
        num_classes = max(int(t.labels.max()) for t in tasks if len(t)) + 1
    dim = tasks[0].feature_dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_HEADER_PREFIX} num_classes={num_classes} feature_dim={dim}\n")
        for task in tasks:
            for i in range(len(task)):
                feats = ",".join(f"{v:.17g}" for v in task.samples[i])
                fh.write(
                    f"{task.task_id},{int(task.sample_ids[i])},{task.split[i]},"
                    f"{int(task.labels[i])},{feats}\n"
                )


def load_feature_file(path) -> list[TaskDataset]:
    """Parse the feature file; errors name the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file (no header)")
    header = lines[0]
    if not header.startswith(FORMAT_HEADER_PREFIX):
        raise ParseError(f"{path}: line 1: bad header {header[:40]!r}")
    fields = dict(
        part.split("=", 1) for part in header[len(FORMAT_HEADER_PREFIX):].split() if "=" in part
    )
    try:
        num_classes = int(fields["num_classes"])
        dim = int(fields["feature_dim"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: line 1: header missing num_classes/feature_dim") from exc

    rows: dict[int, list] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4 + dim:
            raise ParseError(
                f"{path}: line {lineno}: expected {4 + dim} columns, got {len(parts)}"
            )
        try:
            task_id = int(parts[0])
            sample_id = int(parts[1])
            label = int(parts[3])
            feats = [float(v) for v in parts[4:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        split = parts[2]
        if split not in ("train", "test"):
            raise ParseError(f"{path}: line {lineno}: split must be train|test, got {split!r}")
        if not 0 <= label < num_classes:
            raise ValidationError(
                f"{path}: line {lineno}: label {label} outside [0, {num_classes})"
            )
        rows.setdefault(task_id, []).append((sample_id, split, label, feats))

    if not rows:
        raise ParseError(f"{path}: no data rows")
    tasks = []
    for task_id in sorted(rows):
        recs = rows[task_id]
        tasks.append(
            TaskDataset(
                task_id=task_id,
                samples=np.array([r[3] for r in recs], dtype=np.float64),
                labels=np.array([r[2] for r in recs], dtype=np.int64),
                sample_ids=np.array([r[0] for r in recs], dtype=np.int64),
                split=np.array([r[1] for r in recs], dtype="<U5"),
            )
        )
    validate_task_sequence(tasks)
    return tasks
