"""Independent reference implementations used as test oracles.

These deliberately share no code with the library paths they check.
"""

import struct
from itertools import product

import numpy as np

from decor import nn
from decor.errors import ConfigError, NumericError
from decor.nn import Network
from decor.regularizer import DecorState
from decor.seeds import rng_for, sub_seed


def brute_force_kmeans_optimum(x: np.ndarray, K: int) -> float:
    """Exact minimum clustering objective over all K^n labelings.

    Uses sum ||x_i - c_{lab(i)}||^2 = sum ||x||^2 - sum_k ||s_k||^2 / n_k,
    vectorized over every labeling, so 3^8 instances stay fast.
    """
    n, _ = x.shape
    labelings = np.array(list(product(range(K), repeat=n)))
    onehot = np.eye(K)[labelings]
    counts = onehot.sum(axis=1)
    sums = np.einsum("pnk,nd->pkd", onehot, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_cluster = np.where(counts > 0, (sums**2).sum(axis=2) / counts, 0.0)
    return float(((x**2).sum() - per_cluster.sum(axis=1)).min())


def brute_force_nearest(codes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-point nearest code index by explicit pairwise comparison."""
    out = np.empty(x.shape[0], dtype=np.int64)
    for i, point in enumerate(x):
        best_idx, best_dist = 0, np.inf
        for k, code in enumerate(codes):
            dist = float(np.sum((point - code) ** 2))
            if dist < best_dist:
                best_idx, best_dist = k, dist
        out[i] = best_idx
    return out


def naive_average_accuracy(rows: list[list[float]], t: int) -> float:
    """Direct transcription of the average seen-task accuracy."""
    return sum(rows[t - 1][j] for j in range(t)) / t


def naive_max_forgetting(rows: list[list[float]], t: int) -> float:
    """Direct transcription of the mean maximum forgetting (0 at t=1)."""
    if t == 1:
        return 0.0
    total = 0.0
    for j in range(1, t):  # 1-based past task j
        best = max(rows[tau - 1][j - 1] for tau in range(j, t + 1))
        total += best - rows[t - 1][j - 1]
    return total / (t - 1)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x)
        x[idx] = orig - eps
        lo = fn(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def softmax(logits) -> np.ndarray:
    """exp(z_i) / sum_j exp(z_j) of one logit vector, shifted by its max."""
    e = np.exp(np.asarray(logits, dtype=np.float64) - np.max(logits))
    return e / e.sum()


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


def deserialize_state(data: bytes, sample_ids=None) -> DecorState:
    """Reader of the DCIX record that `regularizer.serialize_state` writes,
    from the layout in that module's docstring: a 13-byte header ("DCIX",
    version 1, K, N) and ceil(log2 K) bits per index.

    Indices come back in ascending sample-id order; callers that used
    non-contiguous ids must pass the same ids again (sorted ascending
    internally) to rebind them.
    """
    if len(data) < 13:
        raise ConfigError(f"record too short for header: {len(data)} bytes")
    magic, version, K, n = struct.unpack("<4sBII", data[:13])
    if magic != b"DCIX":
        raise ConfigError(f"bad magic {magic!r}")
    if version != 1:
        raise ConfigError(f"unsupported version {version}")
    if K < 2:
        raise ConfigError(f"K must be >= 2, got {K}")
    b = (K - 1).bit_length()  # ceil(log2 K)
    expected = 13 + (n * b + 7) // 8
    if len(data) != expected:
        raise ConfigError(f"record length {len(data)} != expected {expected}")
    raw = np.frombuffer(data[13:], dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: n * b].reshape(n, b)
    indices = (bits.astype(np.int64) << np.arange(b, dtype=np.int64)[None, :]).sum(axis=1)
    if sample_ids is None:
        sample_ids = np.arange(n, dtype=np.int64)
    else:
        sample_ids = np.sort(np.asarray(sample_ids, dtype=np.int64))
        if sample_ids.size != n:
            raise ConfigError(f"got {sample_ids.size} sample ids for N={n}")
    return DecorState(sample_ids, indices, K)


def reference_probe_head(x: np.ndarray, y: np.ndarray, num_classes: int, cfg) -> Network:
    """The linear probe's SGD loop as one `Network` per step.

    Each step gathers its rows, runs `nn.forward_cached`, `nn.backward` (input
    gradient included) and `nn.sgd_step`, and writes the softmax-CE gradient
    out in full, in the same operation order as the library's core.
    """
    head = nn.init_network([x.shape[1], num_classes], seed=sub_seed(cfg.seed, "probe-init"))
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, "probe-shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            logits, caches = nn.forward_cached(head, x[rows])
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            p = e / e.sum(axis=1, keepdims=True)
            p[np.arange(len(rows)), y[rows]] -= 1.0
            grads, _ = nn.backward(head, caches, p / len(rows))
            head = nn.sgd_step(head, grads, cfg.lr)
    return head
