"""Deterministic K-means (Lloyd iterations with k-means++ seeding).

Produces the codebook used at task boundaries and the nearest-code index of
every sample. Given the same seed the result is bit-identical across runs;
ties in nearest-code assignment always break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, StateError


@dataclass
class Codebook:
    codes: np.ndarray  # (K, feature_dim)

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.float64)
        if self.codes.ndim != 2:
            raise ShapeError(f"codes must be 2-D, got shape {self.codes.shape}")
        if not np.isfinite(self.codes).all():
            raise NumericError("non-finite code vector")


@dataclass
class IndexAssignment:
    indices: np.ndarray  # (N,) int64
    K: int

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise ShapeError("indices must be 1-D")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.K):
            raise IndexError(f"assignment index outside [0, {self.K})")


def _sq_dists(features: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # (N, K); same summation order as a per-pair np.sum((x - c)**2)
    diff = features[:, None, :] - codes[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeanspp_init(features: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(features: np.ndarray, centers: np.ndarray, max_iters: int, tol: float):
    """Lloyd iterations from given initial centers.

    Returns (centers, labels, objective, history). The objective is checked
    to be non-increasing after every assignment step.
    """
    n, _ = features.shape
    K = centers.shape[0]
    centers = centers.copy()
    history: list[float] = []
    prev_obj = np.inf
    labels = None
    for _ in range(max_iters):
        d2 = _sq_dists(features, centers)
        new_labels = d2.argmin(axis=1)  # argmin ties -> lowest index
        obj = float(d2[np.arange(n), new_labels].sum())
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
        # means update; repair empty clusters with the farthest-from-code sample
        nearest = d2[np.arange(n), labels].copy()
        for k in range(K):
            members = labels == k
            if members.any():
                centers[k] = features[members].mean(axis=0)
        for k in range(K):
            if not (labels == k).any():
                far = int(nearest.argmax())
                centers[k] = features[far]
                nearest[far] = -1.0  # each repaired cluster claims a distinct sample
    # final re-assignment so indices are consistent with the final centers
    d2 = _sq_dists(features, centers)
    labels = d2.argmin(axis=1)
    obj = float(d2[np.arange(n), labels].sum())
    if history and obj > history[-1] * (1.0 + 1e-12) + 1e-12:
        raise StateError(f"final assignment raised objective: {history[-1]} -> {obj}")
    history.append(obj)
    return centers, labels, obj, history


def kmeans_fit(
    features: np.ndarray,
    K: int,
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 1e-6,
    n_restarts: int = 20,
    collect_history: bool = False,
):
    """Cluster rows of `features` into K codes.

    Runs `n_restarts` independent k-means++ seedings (sub-seeded from `seed`)
    and keeps the run with the lowest final objective, ties going to the
    earliest restart. Returns (Codebook, IndexAssignment), plus the winning
    objective history when `collect_history` is set.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("non-finite feature value")
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    if x.shape[0] < K:
        raise ConfigError(f"need at least K={K} samples, got {x.shape[0]}")
    if n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {n_restarts}")

    best = None
    for r in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        centers0 = _kmeanspp_init(x, K, rng)
        centers, labels, obj, history = _lloyd(x, centers0, max_iters, tol)
        if best is None or obj < best[2]:
            best = (centers, labels, obj, history)
    centers, labels, _, history = best
    result = Codebook(centers), IndexAssignment(labels, K)
    if collect_history:
        return (*result, history)
    return result
