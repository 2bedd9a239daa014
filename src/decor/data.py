"""Class-incremental data: synthetic generator, task splitting, file I/O.

The synthetic generator places class means on a sphere and perturbs each
task's means by a fresh drift offset, so an encoder fine-tuned on later
tasks genuinely degrades on earlier ones. The on-disk format is a plain
text table, one sample per row:

    #decor-features v1 num_classes=<n> feature_dim=<d>
    task_id,sample_id,split,label,f1,...,fd

Ids and label fit int64 and the label lies in [0, n). The split is exactly
`train` or `test`, with no spaces. The d features are finite floats,
written with 17 significant digits so a save/load round trip is exact.
Lines end in \n, \r\n or \r, empty lines are skipped, and there are no
comment lines. Loading is one C pass; a line walk runs only to name an error.
"""

from __future__ import annotations

import warnings
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

    @property
    def train_per_class(self) -> int:
        return self.samples_per_class * TRAIN_FRACTION[0] // TRAIN_FRACTION[1]


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
            n_train = cfg.train_per_class
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
    """Parse a file of the grammar above; errors name the offending line.

    `np.loadtxt` parses it in one C pass; checks run on whole arrays, and a
    stable sort on task id keeps file order within each task. Only a
    rejected file is walked line by line, to name its first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first:
        raise ParseError(f"{path}: empty file (no header)")
    header = first.rstrip("\n")
    if not header.startswith(FORMAT_HEADER_PREFIX) or header.splitlines() != [header]:
        raise ParseError(f"{path}: line 1: bad header {header[:40]!r}")
    tokens = header[len(FORMAT_HEADER_PREFIX):].split()
    fields = dict(part.split("=", 1) for part in tokens if "=" in part)
    try:
        num_classes = int(fields["num_classes"])
        shape = (int(fields["feature_dim"]),)
        row = np.dtype([("task", "i8"), ("id", "i8"), ("split", "U6"), ("label", "i8"), ("f", "f8", shape)])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: line 1: header needs num_classes and feature_dim >= 0") from exc
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(path, row, delimiter=",", comments=None, skiprows=1, ndmin=1, encoding="utf-8")
        except UserWarning:
            raise ParseError(f"{path}: no data rows") from None
        except ValueError:
            rows = None
    if rows is None or not (
        np.isin(rows["split"], ("train", "test")).all()
        and ((rows["label"] >= 0) & (rows["label"] < num_classes)).all()
        and np.isfinite(rows["f"]).all()
    ):
        _raise_first_bad_line(path, row, num_classes)
    order = np.argsort(rows["task"], kind="stable")
    task_ids, starts = np.unique(rows["task"][order], return_index=True)
    tasks = [
        TaskDataset(int(task_id), rows["f"][i], rows["label"][i], rows["id"][i], rows["split"][i])
        for task_id, i in zip(task_ids, np.split(order, starts[1:]))
    ]
    validate_task_sequence(tasks)
    return tasks


def _raise_first_bad_line(path, row: np.dtype, num_classes: int) -> None:
    """Raise the error of a rejected file's first bad line; a non-finite
    feature is named only if no line fails anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    columns = 4 + row["f"].shape[0]
    non_finite = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != columns:
            raise ParseError(f"{path}: line {lineno}: expected {columns} columns, got {len(parts)}")
        try:
            (rec,) = np.loadtxt([line], row, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {str(exc).partition(' at row ')[0]}") from exc
        if parts[2] not in ("train", "test"):
            raise ParseError(f"{path}: line {lineno}: split must be train|test, got {parts[2]!r}")
        if not 0 <= rec["label"] < num_classes:
            raise ValidationError(f"{path}: line {lineno}: label {rec['label']} outside [0, {num_classes})")
        if non_finite is None and not np.isfinite(rec["f"]).all():
            non_finite = lineno
    if non_finite is None:
        raise ParseError(f"{path}: the parser rejected rows that no line check names")
    raise ValidationError(f"{path}: line {non_finite}: non-finite feature value")
