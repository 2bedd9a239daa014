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

Each Lloyd step recomputes only what moved. A kept value depends only on
bits that did not change, so it is bitwise the recomputed one:
- a center with unchanged bits keeps its scores. The bound holds however
  and whenever a score was summed, so labels do not depend on which are new;
- a distance is an einsum over its own row: a row whose label and center
  are both unchanged keeps it;
- a mean reduces its members in ascending row order: a cluster with the same
  members keeps it. A repaired cluster was empty, so it gains members first.

Restarts run in strands: the calling thread plus a thread per further CPU
the process may use, at most one per restart and per _ROWS_PER_STRAND rows.
A strand holds the interpreter lock a fixed time per numpy call and frees it
for a time that grows with the rows, so on few rows strands queue for the
lock (2 cores: 320 rows ran 1.3x slower on two strands, 1,200 rows 1.5x faster).
Strand s runs restarts s, s + S, ... in arrays the caller allocated and
stops at its first error. Results are kept by restart index and the winner
is picked in restart order, so core count and finishing order change
nothing; the earliest failing restart's error is raised, as in a serial loop.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, StateError

_ROWS_PER_STRAND = 400


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


class _Work:
    """One strand's N x D and K x N work arrays. `kmeans_fit` makes them in
    the calling thread, so a worker's allocator arena never holds them."""

    def __init__(self, n: int, d: int, k: int):
        self.rows, self.rows2 = np.empty((n, d)), np.empty((n, d))
        self.scores, self.fresh, self.code_sq = np.empty((k, n)), np.empty((k, n)), np.empty(k)
        self.hits = np.empty((k, n), dtype=bool)

    def sq_to(self, features: np.ndarray, c: np.ndarray) -> np.ndarray:
        # ((features - c) ** 2).sum(axis=1), summed over the same layout
        np.subtract(features, c, out=self.rows)
        return np.square(self.rows, out=self.rows).sum(axis=1)


def _kmeanspp_init(features: np.ndarray, K: int, rng: np.random.Generator, work: _Work) -> np.ndarray:
    n = features.shape[0]
    centers = np.empty((K, features.shape[1]), dtype=np.float64)
    centers[0] = features[rng.integers(n)]
    d2 = work.sq_to(features, centers[0])
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        else:
            # what rng.choice(n, p=d2 / total) does for one draw, less its checks of p
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[k] = features[idx]
        np.minimum(d2, work.sq_to(features, centers[k]), out=d2)
    return centers


def _nearest(features, row_norms, centers, stale, labels, nearest, work: _Work) -> np.ndarray:
    """Nearest center of each row, its squared distance put in `nearest`, given the last
    assignment (`labels`, `nearest`) and the centers moved since (`stale`). Bitwise equal
    to `d2 = _sq_dists(features, centers)`, `d2.argmin(axis=1)` and `d2[arange(n), labels]`."""
    moved = np.flatnonzero(stale)
    if not moved.size:
        return labels
    (n, D), K = features.shape, centers.shape[0]
    scores, code_sq = work.scores, work.code_sq
    code_sq[moved] = np.einsum("kd,kd->k", centers[moved], centers[moved])
    fresh = np.matmul(-2.0 * centers[moved], features.T, out=work.fresh[: moved.size])
    scores[moved] = np.add(fresh, code_sq[moved, None], out=fresh)  # ||x - c||^2 - ||x||^2
    # With u = eps/2 and g(n) = n*u / (1 - n*u), the kernel's sum and the
    # score plus ||x||^2 each lie within g(D+2) * (||x|| + ||c||)^2 of the
    # exact squared distance, in whatever order and GEMM the score was summed
    # (Higham, 2002, ch. 3). So a row whose other scores exceed its best by
    # over 2*g(D+2) * (||x|| + max ||c||)^2 has the same unique argmin under
    # the kernel. The bound is over 4x that, for rounding the norms, the bound
    # and best + bound; a row with another score at or under best + bound
    # (ties, non-finite scores) is recomputed with the kernel, lowest index first.
    bound = 8 * (D + 4) * np.finfo(np.float64).eps * (row_norms + np.sqrt(code_sq.max())) ** 2
    hits = np.less_equal(scores, scores.min(axis=0) + bound, out=work.hits)
    new = hits.argmax(axis=0)
    near = np.flatnonzero(np.count_nonzero(hits, axis=0) != 1)
    if near.size:
        new[near] = _sq_dists(features[near], centers).argmin(axis=1)
    redo = np.flatnonzero((new != labels) | stale[new])
    diff = work.rows[: redo.size]  # mode="clip": "raise" gathers through a temporary
    np.take(features, redo, axis=0, out=diff, mode="clip")
    diff -= np.take(centers, new[redo], axis=0, out=work.rows2[: redo.size], mode="clip")
    nearest[redo] = np.einsum("nd,nd->n", diff, diff)
    return new


def _lloyd(features: np.ndarray, centers: np.ndarray, max_iters: int, tol: float, work: _Work | None = None):
    """Lloyd iterations from given initial centers; returns (centers, labels,
    objective, history). The objective is checked to be non-increasing after
    every assignment step."""
    (n, D), K = features.shape, centers.shape[0]
    work = work or _Work(n, D, K)
    centers = centers.copy()
    row_norms = np.sqrt(np.einsum("nd,nd->n", features, features))
    stale, labels, nearest = np.ones(K, dtype=bool), np.full(n, -1), np.empty(n)
    history, prev_obj = [], np.inf
    for _ in range(max_iters):
        new_labels = _nearest(features, row_norms, centers, stale, labels, nearest, work)
        stale[:] = False
        obj = float(nearest.sum())
        if obj > prev_obj * (1.0 + 1e-12) + 1e-12:
            raise StateError(f"objective increased: {prev_obj} -> {obj}")
        history.append(obj)
        if np.array_equal(new_labels, labels):
            break
        previous, labels = labels, new_labels
        converged = prev_obj - obj < tol * max(prev_obj, 1e-12) if np.isfinite(prev_obj) else False
        prev_obj = obj
        if converged:
            break
        # means update: each cluster's members are one contiguous block of the
        # rows sorted stably by label, summed by add.reduce as ndarray.mean sums
        # them (np.add.at is not: for D == 1 it sums in row order, mean
        # pairwise). Only clusters that gained or lost a row are reduced again.
        before = centers.copy()
        counts = np.bincount(labels, minlength=K)
        starts = np.cumsum(counts) - counts
        grouped = np.take(features, np.argsort(labels, kind="stable"), axis=0, out=work.rows, mode="clip")
        changed = labels != previous
        touched = np.isin(np.arange(K), np.concatenate((labels[changed], previous[changed])))
        filled = np.flatnonzero(touched & (counts > 0))
        for k in filled:
            centers[k] = np.add.reduce(grouped[starts[k] : starts[k] + counts[k]], axis=0)
        centers[filled] /= counts[filled, None]
        # repair empty clusters with distinct far samples, marked on a copy of the kept distances
        far_from = nearest.copy()
        for k in np.flatnonzero(counts == 0):
            far = int(far_from.argmax())
            centers[k] = features[far]
            far_from[far] = -1.0
        stale = (centers.view(np.int64) != before.view(np.int64)).any(axis=1)
    # final re-assignment so indices are consistent with the final centers
    labels = _nearest(features, row_norms, centers, stale, labels, nearest, work)
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

    strands = min(len(os.sched_getaffinity(0)), n_restarts, max(1, x.shape[0] // _ROWS_PER_STRAND))
    works = [_Work(*x.shape, K) for _ in range(strands)]
    results, failures = [None] * n_restarts, {}  # by restart index

    def strand(s: int) -> None:
        for r in range(s, n_restarts, strands):
            try:
                rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
                results[r] = _lloyd(x, _kmeanspp_init(x, K, rng, works[s]), max_iters, tol, works[s])
            except Exception as exc:
                failures[r] = exc
                return

    threads = [threading.Thread(target=strand, args=(s,)) for s in range(1, strands)]
    try:
        for t in threads:
            t.start()
        strand(0)
    finally:
        for t in threads:
            t.join()
    if failures:
        raise failures[min(failures)]
    centers, labels, _, history = min(results, key=lambda result: result[2])
    result = Codebook(centers), IndexAssignment(labels, K)
    if collect_history:
        return (*result, history)
    return result
