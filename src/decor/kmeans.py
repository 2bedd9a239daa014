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

k-means++ seeds all restarts together, each with its own generator drawn
in the order a lone restart draws. After each new center one GEMM scores every (restart, row) pair as ||x||^2 - 2x.c + ||c||^2. The
score and the subtract-square-sum kernel each lie within g(D+2) *
(||x|| + ||c||)^2 of the exact squared distance (see `_nearest`), in
whatever order either was summed, so they differ by under an eighth of
`_nearest`'s bound. Where score - bound exceeds the pair's current d2, the
kernel's distance does too and np.minimum would keep d2 bitwise: only the
other pairs, non-finite scores included, are recomputed with the kernel.
Totals and CDFs are row operations on an (R, N) array, which sum and
accumulate each contiguous row as the 1-D calls do.

`kmeans_fit` seeds its restarts in one batch, then runs Lloyd on each in
turn in the calling thread. The lowest objective wins, ties going to the
earliest restart, and the first failing restart's error is raised. One set
of work arrays serves the whole fit: N x D rows, K x N scores, and R x N
seeding arrays for the R restarts. Seeding gathers its candidate pairs at
most N at a time into the N x D rows.
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


class _Work:
    """A fit's work arrays: N x D rows, K x N scores for Lloyd and R x N
    seeding arrays for up to R restarts."""

    def __init__(self, n: int, d: int, k: int, restarts: int):
        self.rows, self.rows2 = np.empty((n, d)), np.empty((n, d))
        self.scores, self.fresh, self.code_sq = np.empty((k, n)), np.empty((k, n)), np.empty(k)
        self.hits = np.empty((k, n), dtype=bool)
        self.d2, self.cdf, self.screen = (np.empty((restarts, n)) for _ in range(3))
        self.mask = np.empty((restarts, n), dtype=bool)


def _kmeanspp_batch(features: np.ndarray, K: int, rngs: list, work: _Work) -> np.ndarray:
    """k-means++ initial centers of one restart per generator, (len(rngs), K, D).
    Bitwise the centers and generator states of seeding each restart alone with
    `d2 = np.minimum(d2, ((features - c) ** 2).sum(axis=1))` after every center."""
    (n, D), R = features.shape, len(rngs)
    d2, cdf, screen, mask = work.d2[:R], work.cdf[:R], work.screen[:R], work.mask[:R]
    flat = d2.reshape(-1)
    sq = np.einsum("nd,nd->n", features, features)
    norms = np.sqrt(sq)
    factor = 8 * (D + 4) * np.finfo(np.float64).eps  # `_nearest`'s bound
    centers = np.empty((R, K, D))
    idx = np.array([rng.integers(n) for rng in rngs])
    centers[:, 0] = features[idx]
    d2.fill(np.inf)  # so the first screen recomputes every pair
    for k in range(1, K):
        new = centers[:, k - 1]
        # screen: the score s = ||x||^2 - 2x.c + ||c||^2 is within bound / 8 of
        # the kernel's sum. Where s - bound > d2 the kernel's distance exceeds
        # d2 too, so np.minimum keeps d2; every other pair is recomputed.
        np.matmul(new * -2.0, features.T, out=screen)
        screen += sq
        screen += sq[idx, None]
        np.add(norms, norms[idx, None], out=cdf)
        np.square(cdf, out=cdf)
        cdf *= factor
        screen -= cdf
        np.logical_not(np.greater(screen, d2, out=mask), out=mask)
        pairs = np.flatnonzero(mask)
        for start in range(0, pairs.size, n):  # at most N rows at a time
            chunk = pairs[start : start + n]
            r, i = np.divmod(chunk, n)
            rows = np.take(features, i, axis=0, out=work.rows[: chunk.size], mode="clip")
            rows -= np.take(new, r, axis=0, out=work.rows2[: chunk.size], mode="clip")
            flat[chunk] = np.minimum(flat[chunk], np.square(rows, out=rows).sum(axis=1))
        # draws: what rng.choice(n, p=d2 / total) does for one draw, less its
        # checks of p; a restart whose rows all coincide with centers draws uniformly
        totals = d2.sum(axis=1)
        live = np.flatnonzero(~(totals <= 0.0))
        part = np.take(d2, live, axis=0, out=screen[: live.size], mode="clip")
        part /= totals[live, None]
        part = np.cumsum(part, axis=1, out=cdf[: live.size])
        part /= part[:, -1:]
        for row, r in enumerate(live):
            idx[r] = part[row].searchsorted(rngs[r].random(), side="right")
        for r in np.flatnonzero(totals <= 0.0):
            idx[r] = rngs[r].integers(n)
        centers[:, k] = features[idx]
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
    k, col = np.divmod(np.flatnonzero(hits), n)
    new = np.zeros(n, np.intp)
    new[col] = k  # right for a row with one hit; every other row is recomputed
    near = np.flatnonzero(np.bincount(col, minlength=n) != 1)
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
    work = work or _Work(n, D, K, 0)
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
        # pairwise). Only clusters that gained or lost a row are gathered and
        # reduced again; `previous` is -1 on the first step.
        before = centers.copy()
        counts = np.bincount(labels, minlength=K)
        changed = labels != previous
        touched = np.zeros(K, dtype=bool)
        touched[labels[changed]] = True
        left = previous[changed]
        touched[left[left >= 0]] = True
        members = np.flatnonzero(touched[labels])
        members = members[np.argsort(labels[members], kind="stable")]
        grouped = np.take(features, members, axis=0, out=work.rows[: members.size], mode="clip")
        gathered = np.where(touched, counts, 0)
        starts = np.cumsum(gathered) - gathered
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

    work = _Work(*x.shape, K, n_restarts)
    rngs = [np.random.default_rng(np.random.SeedSequence([int(seed), r])) for r in range(n_restarts)]
    results = [_lloyd(x, init, max_iters, tol, work) for init in _kmeanspp_batch(x, K, rngs, work)]
    centers, labels, _, history = min(results, key=lambda result: result[2])
    result = Codebook(centers), IndexAssignment(labels, K)
    if collect_history:
        return (*result, history)
    return result
