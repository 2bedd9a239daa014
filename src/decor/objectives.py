"""Training objectives and baselines.

Supervised cross-entropy, a feature-space augmentation pair generator
(additive Gaussian noise plus random coordinate masking), the NT-Xent
contrastive loss over two views, and a teacher-snapshot KL distillation
loss for the learning-without-forgetting baseline. Every loss returns its
analytic gradient; all of them are covered by finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class AugmentationConfig:
    """Noise + masking analog of time-frequency masking for feature vectors.

    noise_sigma=0 and mask_fraction=0 is the identity augmentation. The
    number of masked coordinates per sample is floor(mask_fraction * dim).
    """

    noise_sigma: float = 0.0
    mask_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ConfigError(f"mask_fraction: must be in [0, 1], got {self.mask_fraction}")


def _augment_once(batch: np.ndarray, cfg: AugmentationConfig, rng: np.random.Generator) -> np.ndarray:
    n, d = batch.shape
    view = batch + cfg.noise_sigma * rng.standard_normal((n, d))
    num_masked = int(cfg.mask_fraction * d)
    if num_masked > 0:
        # per-sample masked coordinates, chosen without replacement
        cols = np.argsort(rng.random((n, d)), axis=1)[:, :num_masked]
        view[np.arange(n)[:, None], cols] = 0.0
    return view


def augment_view(batch: np.ndarray, cfg: AugmentationConfig) -> np.ndarray:
    """One augmented copy; deterministic given cfg.seed."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {x.shape}")
    rng = np.random.default_rng(cfg.seed)
    return _augment_once(x, cfg, rng)


def augment_two_views(batch: np.ndarray, cfg: AugmentationConfig):
    """Two independently augmented copies of the batch.

    View A consumes the generator first, then view B; the pair is
    bit-identical across calls with the same config.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {x.shape}")
    rng = np.random.default_rng(cfg.seed)
    view_a = _augment_once(x, cfg, rng)
    view_b = _augment_once(x, cfg, rng)
    return view_a, view_b


def supervised_ce_loss(head_logits: np.ndarray, labels, class_mask: np.ndarray | None = None):
    """Mean cross-entropy between classifier logits and integer labels.

    Returns (loss, dlogits). `class_mask` restricts the softmax to the
    allowed (seen) classes during incremental training.
    """
    return nn.mean_cross_entropy(head_logits, labels, class_mask=class_mask)


def _normalize_rows(u: np.ndarray):
    norms = np.sqrt((u * u).sum(axis=1, keepdims=True))
    norms = np.maximum(norms, 1e-12)
    return u / norms, norms


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def nt_xent_loss(projections_a: np.ndarray, projections_b: np.ndarray, temperature: float = 0.5):
    """Normalized-temperature cross-entropy over two views.

    Row i of each view is one sample; its positive is the matching row of
    the other view and the negatives are every other row of both views.
    The mean is over all 2N anchors. Returns (loss, (grad_a, grad_b)) with
    gradients taken with respect to the raw (unnormalized) projections.
    """
    za = np.asarray(projections_a, dtype=np.float64)
    zb = np.asarray(projections_b, dtype=np.float64)
    if za.shape != zb.shape or za.ndim != 2:
        raise ShapeError(f"views must share a 2-D shape, got {za.shape} and {zb.shape}")
    n = za.shape[0]
    if n < 2:
        raise ConfigError("NT-Xent needs at least 2 pairs (no negatives otherwise)")
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")

    u = np.vstack([za, zb])  # (2n, d) raw
    z, norms = _normalize_rows(u)
    m = 2 * n
    sim = (z @ z.T) / temperature
    np.fill_diagonal(sim, -np.inf)  # anchors never contrast with themselves
    pos = (np.arange(m) + n) % m

    rowmax = sim.max(axis=1, keepdims=True)
    e = np.exp(sim - rowmax)
    denom = e.sum(axis=1)
    logits_pos = sim[np.arange(m), pos]
    loss = float(np.mean(np.log(denom) + rowmax[:, 0] - logits_pos))

    # dL/dsim, then chain through the cosine similarities and normalization
    g = e / denom[:, None]
    g[np.arange(m), pos] -= 1.0
    g /= m
    dz = ((g + g.T) @ z) / temperature
    du = (dz - (dz * z).sum(axis=1, keepdims=True) * z) / norms
    return loss, (du[:n], du[n:])


@dataclass(frozen=True)
class TeacherSnapshot:
    """Frozen copy of an encoder plus one head, used only by the LwF baseline.

    Construct via `TeacherSnapshot.capture` so the stored parameters are
    private copies of the live model.
    """

    encoder: nn.Network
    head: nn.Network
    temperature: float = 2.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.encoder.output_dim != self.head.input_dim:
            raise ShapeError("teacher head does not chain onto teacher encoder")

    @classmethod
    def capture(cls, encoder: nn.Network, head: nn.Network, temperature: float = 2.0):
        return cls(encoder.copy(), head.copy(), temperature)

    def logits(self, batch: np.ndarray) -> np.ndarray:
        return nn.forward(self.head, nn.forward(self.encoder, batch))

    def num_bytes(self) -> int:
        """Storage footprint of the snapshot (raw float64 parameters)."""
        return nn.parameter_nbytes(self.encoder) + nn.parameter_nbytes(self.head)


def lwf_distill_loss(teacher: TeacherSnapshot, student_logits: np.ndarray, batch: np.ndarray):
    """Mean KL(teacher || student) over temperature-softened outputs.

    The teacher forward happens inside this call on the same batch; only
    the student receives gradients. Returns (loss, dstudent_logits).
    """
    s = np.asarray(student_logits, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"student logits must be 2-D, got shape {s.shape}")
    t = teacher.logits(batch)
    if t.shape != s.shape:
        raise ShapeError(f"teacher output shape {t.shape} != student shape {s.shape}")
    tau = teacher.temperature
    log_p = _log_softmax(t / tau)
    log_q = _log_softmax(s / tau)
    p = np.exp(log_p)
    n = s.shape[0]
    loss = float(np.sum(p * (log_p - log_q)) / n)
    dstudent = (np.exp(log_q) - p) / (tau * n)
    return loss, dstudent
