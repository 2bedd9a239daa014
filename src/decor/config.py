"""Experiment configuration: schema, validation, file loading.

Configs are YAML files with nested sections. `SCHEMA` below is the one
place the schema is written: it maps every YAML key to an ExperimentConfig
field, and that field's declared type and default give the key's type and
default. Parsing is total: every invalid value produces a ConfigError
naming the offending YAML key, never a traceback. All run randomness
derives from the per-run seed through named streams, so records are
reproducible.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, fields as dc_fields

import yaml

from .data import SyntheticConfig, TaskDataset, generate_synthetic_tasks, load_feature_file
from .errors import ConfigError
from .objectives import AugmentationConfig
from .probe import ProbeConfig
from .regularizer import PredictorConfig
from .seeds import sub_seed

# method tag -> (base objective, regularizer)
METHODS = {
    "finetune": ("supervised", "none"),
    "decor": ("supervised", "decor"),
    "lwf": ("supervised", "lwf"),
    "simclr": ("simclr", "none"),
    "simclr+decor": ("simclr", "decor"),
    "simclr+lwf": ("simclr", "lwf"),
}


@dataclass
class ExperimentConfig:
    """Full specification of one experiment (all seeds)."""

    method: str = "finetune"
    T: int = 5
    K: int = 32
    L: int = 2
    lam: float = 0.2
    epochs_per_task: int = 20
    lr: float = 0.02
    momentum: float = 0.9
    batch_size: int = 32
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    encoder_hidden: tuple[int, ...] = (128,)
    encoder_out: int = 64
    predictor_hidden: int = 128
    projector_hidden: int = 128
    projector_out: int = 64

    noise_sigma: float = 0.1
    mask_fraction: float = 0.2
    nt_xent_temperature: float = 0.5
    lwf_temperature: float = 2.0
    lwf_weight: float = 1.0

    probe_mode: str = "LEP"
    probe_samples_per_task: int = 200
    probe_epochs: int = 50
    probe_lr: float = 0.2
    probe_batch_size: int = 64

    data_source: str = "synthetic"  # synthetic | file
    data_path: str = ""
    num_classes: int = 10
    feature_dim: int = 64
    samples_per_class: int = 200
    class_separation: float = 6.0
    within_class_sigma: float = 1.5
    drift_sigma: float = 2.0

    results_dir: str = "results"

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown value {self.method!r}")
        if self.T < 1:
            raise ConfigError(f"T: must be >= 1, got {self.T}")
        if self.lam < 0:
            raise ConfigError(f"lambda: must be >= 0, got {self.lam}")
        if self.epochs_per_task < 1:
            raise ConfigError(f"epochs_per_task: must be >= 1, got {self.epochs_per_task}")
        if self.lr <= 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds: must be non-negative")
        if self.encoder_out < 1:
            raise ConfigError(f"encoder.out_dim: must be >= 1, got {self.encoder_out}")
        if any(h < 1 for h in self.encoder_hidden):
            raise ConfigError("encoder.hidden_dims: entries must be >= 1")
        if self.nt_xent_temperature <= 0:
            raise ConfigError("nt_xent_temperature: must be > 0")
        if self.lwf_temperature <= 0:
            raise ConfigError("lwf.temperature: must be > 0")
        if self.lwf_weight < 0:
            raise ConfigError("lwf.weight: must be >= 0")
        if self.data_source not in ("synthetic", "file"):
            raise ConfigError(f"data.source: must be synthetic or file, got {self.data_source!r}")
        if self.data_source == "file" and not self.data_path:
            raise ConfigError("data.path: required when data.source is file")
        # the sub-configs check their own ranges
        self.predictor_config()
        self.augmentation_config(0)
        self.probe_config(0)
        if self.data_source == "synthetic":
            if self.num_classes % self.T != 0:
                raise ConfigError(
                    f"data.num_classes: {self.num_classes} not divisible by T={self.T}"
                )
            self.synthetic_config(0)

    def predictor_config(self) -> PredictorConfig:
        return self._build(PredictorConfig, L="L", hidden_dim="predictor_hidden", K="K")

    def augmentation_config(self, seed: int) -> AugmentationConfig:
        return self._build(
            AugmentationConfig, seed=seed, noise_sigma="noise_sigma", mask_fraction="mask_fraction"
        )

    def probe_config(self, seed: int) -> ProbeConfig:
        return self._build(
            ProbeConfig,
            seed=seed,
            mode="probe_mode",
            samples_per_task="probe_samples_per_task",
            epochs="probe_epochs",
            lr="probe_lr",
            batch_size="probe_batch_size",
        )

    def synthetic_config(self, seed: int) -> SyntheticConfig:
        # every SyntheticConfig field but the seed has the same name here
        names = [f.name for f in dc_fields(SyntheticConfig) if f.name != "seed"]
        return self._build(SyntheticConfig, seed=seed, **{n: n for n in names})

    def _build(self, cls, seed: int | None = None, **sources: str):
        """`cls` from the fields named in `sources` (its field -> ours).

        The sub-config's errors start with its own field name; they are
        re-raised under the YAML key that sets that field.
        """
        kwargs = {sub: getattr(self, name) for sub, name in sources.items()}
        if seed is not None:
            kwargs["seed"] = seed
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            sub, _, reason = str(exc).partition(": ")
            if sub not in sources:
                raise
            raise ConfigError(f"{_YAML_KEYS[sources[sub]]}: {reason}") from exc

    def tasks_for_seed(self, seed: int) -> list[TaskDataset]:
        """Build (or load) the task sequence this run trains on."""
        if self.data_source == "synthetic":
            return generate_synthetic_tasks(self.synthetic_config(sub_seed(seed, "data")), self.T)
        tasks = load_feature_file(self.data_path)
        if len(tasks) != self.T:
            raise ConfigError(f"T: config says {self.T} but {self.data_path} has {len(tasks)} tasks")
        return tasks

    def to_dict(self) -> dict:
        d = {}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(value, tuple) else value
        return d

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# YAML key -> ExperimentConfig field; a nested mapping is a section
SCHEMA = {
    "method": "method",
    "T": "T",
    "K": "K",
    "L": "L",
    "lambda": "lam",
    "epochs_per_task": "epochs_per_task",
    "lr": "lr",
    "momentum": "momentum",
    "batch_size": "batch_size",
    "seeds": "seeds",
    "nt_xent_temperature": "nt_xent_temperature",
    "results_dir": "results_dir",
    "encoder": {"hidden_dims": "encoder_hidden", "out_dim": "encoder_out"},
    "predictor": {"hidden_dim": "predictor_hidden"},
    "projector": {"hidden_dim": "projector_hidden", "out_dim": "projector_out"},
    "augment": {"noise_sigma": "noise_sigma", "mask_fraction": "mask_fraction"},
    "lwf": {"temperature": "lwf_temperature", "weight": "lwf_weight"},
    "probe": {
        "mode": "probe_mode",
        "samples_per_task": "probe_samples_per_task",
        "epochs": "probe_epochs",
        "lr": "probe_lr",
        "batch_size": "probe_batch_size",
    },
    "data": {
        "source": "data_source",
        "path": "data_path",
        "num_classes": "num_classes",
        "feature_dim": "feature_dim",
        "samples_per_class": "samples_per_class",
        "class_separation": "class_separation",
        "within_class_sigma": "within_class_sigma",
        "drift_sigma": "drift_sigma",
    },
}

# ExperimentConfig field -> its YAML key ("section.key" inside a section)
_YAML_KEYS = {name: key for key, name in SCHEMA.items() if isinstance(name, str)} | {
    name: f"{section}.{sub}"
    for section, entry in SCHEMA.items()
    if isinstance(entry, dict)
    for sub, name in entry.items()
}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(key: str, kind, value):
    """`value` as the declared type `kind` (int, float, str or tuple[int, ...])."""
    if kind == tuple[int, ...]:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list of integers (got {value!r})")
        return tuple(_coerce(key, int, v) for v in value)
    try:
        if kind is int and (
            isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
        ):
            raise ValueError("expected an integer")
        if kind is str and not isinstance(value, str):
            raise ValueError("expected a string")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc} (got {value!r})") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config; unknown or ill-typed keys are named."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    kwargs = {}
    for key, value in raw.items():
        entry = SCHEMA.get(key)
        if entry is None:
            raise ConfigError(f"{key}: unknown key")
        if not isinstance(entry, dict):
            kwargs[entry] = _coerce(key, _FIELD_TYPES[entry], value)
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: expected a mapping of settings")
        for sub, sub_value in value.items():
            if sub not in entry:
                raise ConfigError(f"{key}.{sub}: unknown key")
            kwargs[entry[sub]] = _coerce(f"{key}.{sub}", _FIELD_TYPES[entry[sub]], sub_value)
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file; every failure is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
