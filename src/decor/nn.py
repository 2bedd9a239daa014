"""Minimal dense-network engine with analytic gradients.

Everything runs in float64 with no global random state. Networks are plain
dataclasses and `sgd_step` returns a new Network instead of mutating, which
keeps training loops replayable and makes bitwise-equality checks between
runs meaningful. Gradients are verified against central finite differences
via `finite_difference_check`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("identity", "rectifier")

# Additive logit mask; exp(MASKED_LOGIT - rowmax) underflows to exactly 0.0.
MASKED_LOGIT = -1e30


@dataclass
class DenseParams:
    """One affine layer y = x @ weights.T + bias followed by its activation."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_dim {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericError("non-finite layer parameter")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Network:
    """Ordered dense layers; adjacent dimensions must chain."""

    layers: list[DenseParams]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer output dim {a.out_dim} feeds layer expecting {b.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "Network":
        return Network(
            [
                DenseParams(l.weights.copy(), l.bias.copy(), l.activation)
                for l in self.layers
            ]
        )


@dataclass
class GradientSet:
    """One gradient array per parameter array, shape-congruent with a Network."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weight_grads) != len(self.bias_grads):
            raise ShapeError("weight/bias gradient lists differ in length")


def init_dense(
    in_dim: int, out_dim: int, rng: np.random.Generator, activation: str = "identity"
) -> DenseParams:
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out)), zero bias."""
    a = np.sqrt(6.0 / (in_dim + out_dim))
    weights = rng.uniform(-a, a, size=(out_dim, in_dim))
    return DenseParams(weights, np.zeros(out_dim), activation)


def init_network(dims: list[int], seed: int, hidden_activation: str = "rectifier") -> Network:
    """Build a fresh network; hidden layers use `hidden_activation`, the final
    layer is identity (heads apply their own loss on raw logits)."""
    if len(dims) < 2:
        raise ConfigError("need at least input and output dims")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        act = hidden_activation if i < len(dims) - 2 else "identity"
        layers.append(init_dense(dims[i], dims[i + 1], rng, act))
    return Network(layers)


def _as_batch(batch: np.ndarray, expected_dim: int) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"batch must be 2-D (rows, features), got shape {x.shape}")
    if x.shape[1] != expected_dim:
        raise ShapeError(f"batch has {x.shape[1]} columns, network expects {expected_dim}")
    return x


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; output is (rows, net.output_dim)."""
    h = _as_batch(batch, net.input_dim)
    for layer in net.layers:
        z = h @ layer.weights.T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "rectifier" else z
    return h


def forward_cached(net: Network, batch: np.ndarray):
    """Forward pass that also returns per-layer (input, preactivation) caches."""
    h = _as_batch(batch, net.input_dim)
    caches = []
    for layer in net.layers:
        z = h @ layer.weights.T + layer.bias
        caches.append((h, z))
        h = np.maximum(z, 0.0) if layer.activation == "rectifier" else z
    return h, caches


def backward(net: Network, caches, grad_output: np.ndarray):
    """Backpropagate dLoss/dOutput through the cached forward pass.

    Returns (GradientSet, grad_input). Loss kernels already fold in any 1/N
    batch averaging, so no extra scaling happens here.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != caches[-1][1].shape:
        raise ShapeError(
            f"grad_output shape {g.shape} does not match output shape {caches[-1][1].shape}"
        )
    weight_grads: list[np.ndarray] = [None] * len(net.layers)
    bias_grads: list[np.ndarray] = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        h_in, z = caches[i]
        if layer.activation == "rectifier":
            g = g * (z > 0.0)
        weight_grads[i] = g.T @ h_in
        bias_grads[i] = g.sum(axis=0)
        g = g @ layer.weights
    return GradientSet(weight_grads, bias_grads), g


def add_grads(a: GradientSet, b: GradientSet, scale: float = 1.0) -> GradientSet:
    """a + scale * b, elementwise; shapes must match."""
    if len(a.weight_grads) != len(b.weight_grads):
        raise ShapeError("gradient sets have different layer counts")
    return GradientSet(
        [wa + scale * wb for wa, wb in zip(a.weight_grads, b.weight_grads)],
        [ba + scale * bb for ba, bb in zip(a.bias_grads, b.bias_grads)],
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax (max subtraction); accepts 1-D or 2-D input."""
    z = np.asarray(logits, dtype=np.float64)
    one_d = z.ndim == 1
    if one_d:
        z = z[None, :]
    if z.ndim != 2:
        raise ShapeError(f"logits must be 1-D or 2-D, got shape {z.shape}")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if one_d else p


def mean_cross_entropy(logits: np.ndarray, targets, class_mask: np.ndarray | None = None):
    """Mean cross-entropy over a batch of logit rows.

    `class_mask`, when given, is a boolean (num_classes,) vector; disallowed
    classes receive an additive MASKED_LOGIT before the softmax so they carry
    zero probability and zero gradient. Targets must be allowed classes.
    Returns (loss, dlogits) with dlogits = (softmax - one_hot) / batch_size.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {z.shape}")
    if y.ndim != 1 or y.shape[0] != z.shape[0]:
        raise ShapeError(f"targets shape {y.shape} does not match {z.shape[0]} rows")
    if not np.isfinite(z).all():
        raise NumericError("non-finite logits")
    n, c = z.shape
    if n == 0:
        raise ShapeError("empty batch")
    if y.min() < 0 or y.max() >= c:
        raise IndexError(f"target outside [0, {c})")
    if class_mask is not None:
        mask = np.asarray(class_mask, dtype=bool)
        if mask.shape != (c,):
            raise ShapeError(f"class_mask shape {mask.shape} != ({c},)")
        if not mask[y].all():
            raise IndexError("target labels a masked class")
        z = np.where(mask[None, :], z, z + MASKED_LOGIT)
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(lse - shifted[np.arange(n), y]))
    p = softmax(z)
    p[np.arange(n), y] -= 1.0
    return loss, p / n


def sgd_step(net: Network, grads: GradientSet, lr: float) -> Network:
    """Plain SGD: each parameter p <- p - lr * g. Returns a new Network."""
    if lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    if len(grads.weight_grads) != len(net.layers):
        raise ShapeError("gradient layer count does not match network")
    layers = []
    for layer, dw, db in zip(net.layers, grads.weight_grads, grads.bias_grads):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ShapeError("gradient shape does not match parameter shape")
        layers.append(
            DenseParams(layer.weights - lr * dw, layer.bias - lr * db, layer.activation)
        )
    return Network(layers)


def _param_coords(net: Network):
    coords = []
    for li, layer in enumerate(net.layers):
        for idx in np.ndindex(layer.weights.shape):
            coords.append((li, "w", idx))
        for idx in np.ndindex(layer.bias.shape):
            coords.append((li, "b", idx))
    return coords


def finite_difference_check(
    net: Network,
    loss_fn,
    batch: np.ndarray,
    epsilon: float = 1e-5,
    max_params: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    `loss_fn(net, batch)` must return (loss, GradientSet). Returns the max
    over sampled parameters of |analytic - central| / max(1, |central|).
    """
    if not 0 < epsilon <= 1e-2:
        raise ConfigError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    base_loss, grads = loss_fn(net, batch)
    if not np.isfinite(base_loss):
        raise NumericError(f"loss is not finite: {base_loss}")
    coords = _param_coords(net)
    if max_params is not None and len(coords) > max_params:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=max_params, replace=False)
        coords = [coords[i] for i in picked]

    work = net.copy()

    def _array(li: int, name: str) -> np.ndarray:
        layer = work.layers[li]
        return layer.weights if name == "w" else layer.bias

    worst = 0.0
    for li, name, idx in coords:
        arr = _array(li, name)
        orig = arr[idx]
        arr[idx] = orig + epsilon
        loss_plus = loss_fn(work, batch)[0]
        arr[idx] = orig - epsilon
        loss_minus = loss_fn(work, batch)[0]
        arr[idx] = orig
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise NumericError("non-finite loss during finite differencing")
        central = (loss_plus - loss_minus) / (2.0 * epsilon)
        grad_arr = grads.weight_grads[li] if name == "w" else grads.bias_grads[li]
        analytic = grad_arr[idx]
        worst = max(worst, abs(analytic - central) / max(1.0, abs(central)))
    return float(worst)


def parameter_nbytes(net: Network) -> int:
    return sum(l.weights.nbytes + l.bias.nbytes for l in net.layers)


def parameter_checksum(net: Network) -> str:
    """SHA-256 over all parameter bytes; detects any in-place mutation."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.activation.encode())
        h.update(np.ascontiguousarray(layer.weights).tobytes())
        h.update(np.ascontiguousarray(layer.bias).tobytes())
    return h.hexdigest()
