"""Independent reference implementations used as test oracles.

These deliberately share no code with the library paths they check.
"""

import struct
from itertools import product

import numpy as np

from decor import nn
from decor.data import FORMAT_HEADER_PREFIX, TaskDataset, validate_task_sequence
from decor.errors import ConfigError, NumericError, ParseError, StateError, ValidationError
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


def reference_load_feature_file(path) -> list[TaskDataset]:
    """The feature-file loader as a per-line Python walk: every float boxed,
    rows grouped in a dict. The library's one-pass loader must build the
    same arrays, or raise the same error class at the same line."""
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
        samples = np.array([r[3] for r in recs], dtype=np.float64)
        if not np.isfinite(samples).all():
            # rare, so the line is looked for only now
            bad = next(
                lineno
                for lineno, line in enumerate(lines[1:], start=2)
                if line.strip() and not np.isfinite([float(v) for v in line.split(",")[4:]]).all()
            )
            raise ValidationError(f"{path}: line {bad}: non-finite feature value")
        tasks.append(
            TaskDataset(
                task_id=task_id,
                samples=samples,
                labels=np.array([r[2] for r in recs], dtype=np.int64),
                sample_ids=np.array([r[0] for r in recs], dtype=np.int64),
                split=np.array([r[1] for r in recs], dtype="<U5"),
            )
        )
    validate_task_sequence(tasks)
    return tasks


def _sq_dists(features: np.ndarray, codes: np.ndarray) -> np.ndarray:
    diff = features[:, None, :] - codes[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_kmeanspp_init(features: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with `rng.choice(n, p=...)` drawing each center."""
    n = features.shape[0]
    centers = np.empty((K, features.shape[1]), dtype=np.float64)
    centers[0] = features[rng.integers(n)]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = features[idx]
        d2 = np.minimum(d2, ((features - centers[k]) ** 2).sum(axis=1))
    return centers


def reference_nearest(features: np.ndarray, row_norms: np.ndarray, centers: np.ndarray):
    """Nearest center of every row and its squared distance, every score,
    distance and mean recomputed in full on every call."""
    K, D = centers.shape
    code_sq = np.einsum("kd,kd->k", centers, centers)
    scores = features @ (-2.0 * centers.T) + code_sq  # ||x - c||^2 - ||x||^2
    labels = scores.argmin(axis=1)
    if K > 1:
        rows = np.arange(len(labels))
        best = scores[rows, labels]
        scores[rows, labels] = np.inf
        gap = scores.min(axis=1) - best
        bound = 8 * (D + 4) * np.finfo(np.float64).eps * (row_norms + np.sqrt(code_sq.max())) ** 2
        near = np.flatnonzero(~(gap > bound))
        if near.size:
            labels[near] = _sq_dists(features[near], centers).argmin(axis=1)
    diff = features - centers[labels]
    return labels, np.einsum("nd,nd->n", diff, diff)


def reference_lloyd(features: np.ndarray, centers: np.ndarray, max_iters: int, tol: float):
    """Lloyd iterations that recompute every score, distance and mean on
    every step; returns (centers, labels, objective, history)."""
    K = centers.shape[0]
    centers = centers.copy()
    row_norms = np.sqrt(np.einsum("nd,nd->n", features, features))
    history: list[float] = []
    prev_obj = np.inf
    labels = None
    for _ in range(max_iters):
        new_labels, nearest = reference_nearest(features, row_norms, centers)
        obj = float(nearest.sum())
        if obj > prev_obj * (1.0 + 1e-12) + 1e-12:
            raise StateError(f"objective increased: {prev_obj} -> {obj}")
        history.append(obj)
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            prev_obj = obj
            break
        labels = new_labels
        converged = prev_obj - obj < tol * max(prev_obj, 1e-12) if np.isfinite(prev_obj) else False
        prev_obj = obj
        if converged:
            break
        counts = np.bincount(labels, minlength=K)
        starts = np.cumsum(counts) - counts
        grouped = features[np.argsort(labels, kind="stable")]
        filled = np.flatnonzero(counts)
        for k in filled:
            centers[k] = np.add.reduce(grouped[starts[k] : starts[k] + counts[k]], axis=0)
        centers[filled] /= counts[filled, None]
        for k in np.flatnonzero(counts == 0):
            far = int(nearest.argmax())
            centers[k] = features[far]
            nearest[far] = -1.0
    labels, nearest = reference_nearest(features, row_norms, centers)
    obj = float(nearest.sum())
    if history and obj > history[-1] * (1.0 + 1e-12) + 1e-12:
        raise StateError(f"final assignment raised objective: {history[-1]} -> {obj}")
    history.append(obj)
    return centers, labels, obj, history


def reference_kmeans_fit(
    x: np.ndarray, K: int, seed: int, max_iters: int = 100, tol: float = 1e-6, n_restarts: int = 20
):
    """The restarts one after another in one thread, the lowest final
    objective winning and ties going to the earliest restart; returns
    (centers, labels, history) of the winner."""
    best = None
    for r in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        centers0 = reference_kmeanspp_init(x, K, rng)
        centers, labels, obj, history = reference_lloyd(x, centers0, max_iters, tol)
        if best is None or obj < best[2]:
            best = (centers, labels, obj, history)
    centers, labels, _, history = best
    return centers, labels, history
