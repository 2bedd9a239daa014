"""Deterministic K-means (Lloyd iterations with k-means++ seeding).

Produces the codebook used at task boundaries and the nearest-code index of
every sample. Given the same seed the result is bit-identical across runs;
ties in nearest-code assignment always break to the lowest index.

The reference for the assignment is `_sq_dists`, which sums (x - c)^2 per
(row, code) pair over an N x K x D difference tensor. Lloyd iterations give
the same labels, codes and objectives bit for bit, at the cost of one GEMM:

- each row is scored by x . (-2c) + ||c||^2, its squared distance to each
  code less the constant ||x||^2;
- rounding moves a score and the reference distance by at most a known
  amount set by D, eps, ||x|| and the largest ||c||. A row whose best two
  scores are further apart than twice that has the same unique nearest code
  under both. A row at or under the bound, exact ties included, is
  recomputed with `_sq_dists`. This is the exact re-check in the spirit of
  Elkan (2003): bounds only decide where the reference must run;
- the objective and the distances used for empty-cluster repair come from
  the chosen (row, code) pairs alone, summed in the reference's order.
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


def _nearest(features: np.ndarray, row_norms: np.ndarray, centers: np.ndarray):
    """Nearest center of every row and its squared distance.

    Equal, bit for bit, to `d2 = _sq_dists(features, centers)`, then
    `labels = d2.argmin(axis=1)` and `d2[arange(n), labels]`.
    """
    K, D = centers.shape
    code_sq = np.einsum("kd,kd->k", centers, centers)
    scores = features @ (-2.0 * centers.T) + code_sq  # ||x - c||^2 - ||x||^2
    labels = scores.argmin(axis=1)
    if K > 1:
        # With u = eps/2 and g(n) = n*u / (1 - n*u), the kernel's sum and the
        # score plus ||x||^2 each lie within g(D+2) * (||x|| + ||c||)^2 of the
        # exact squared distance, in whatever order BLAS sums (Higham, 2002,
        # ch. 3). So the two differ by at most 2*g(D+2) * (||x|| + max ||c||)^2
        # ~ (D+2) * eps * (...)^2, and a row whose two best scores are more
        # than twice that apart has the same unique argmin under the kernel.
        # The bound is over 4x that, for the rounding of the norms, the gap
        # and the bound; rows at or under it (ties too, and non-finite gaps)
        # are recomputed with the kernel, which breaks ties to the lowest index.
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


def _lloyd(features: np.ndarray, centers: np.ndarray, max_iters: int, tol: float):
    """Lloyd iterations from given initial centers.

    Returns (centers, labels, objective, history). The objective is checked
    to be non-increasing after every assignment step.
    """
    K = centers.shape[0]
    centers = centers.copy()
    row_norms = np.sqrt(np.einsum("nd,nd->n", features, features))
    history: list[float] = []
    prev_obj = np.inf
    labels = None
    for _ in range(max_iters):
        new_labels, nearest = _nearest(features, row_norms, centers)
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
        # means update. Each cluster's members are one contiguous block of the
        # rows sorted stably by label, and ndarray.mean is add.reduce over them
        # divided by the count, so each mean is bitwise the one that
        # features[labels == k].mean(axis=0) gives. (np.add.at is not when
        # D == 1: it sums in row order, and mean sums a column pairwise.)
        counts = np.bincount(labels, minlength=K)
        starts = np.cumsum(counts) - counts
        grouped = features[np.argsort(labels, kind="stable")]
        filled = np.flatnonzero(counts)
        for k in filled:
            centers[k] = np.add.reduce(grouped[starts[k] : starts[k] + counts[k]], axis=0)
        centers[filled] /= counts[filled, None]
        # repair empty clusters with the farthest-from-code sample
        for k in np.flatnonzero(counts == 0):
            far = int(nearest.argmax())
            centers[k] = features[far]
            nearest[far] = -1.0  # each repaired cluster claims a distinct sample
    # final re-assignment so indices are consistent with the final centers
    labels, nearest = _nearest(features, row_norms, centers)
    obj = float(nearest.sum())
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
