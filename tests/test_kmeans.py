import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from decor import kmeans
from decor.errors import ConfigError, NumericError, StateError
from decor.kmeans import Codebook, IndexAssignment, _kmeanspp_batch, _lloyd, _nearest, _sq_dists, _Work, kmeans_fit
from oracles import (
    brute_force_kmeans_optimum,
    brute_force_nearest,
    reference_kmeans_fit,
    reference_kmeanspp_init,
    reference_lloyd,
)

FOUR_POINTS = np.array([[0.0], [2.0], [10.0], [12.0]])


class TestFit:
    def test_points_equal_centroids(self):
        x = np.array([[0.0], [10.0]])
        cb, _, history = kmeans_fit(x, 2, seed=0, collect_history=True)
        assert sorted(cb.codes.ravel().tolist()) == [0.0, 10.0]
        assert history[-1] == 0.0

    def test_two_pair_clusters(self):
        # brute force over all 2-partitions of 4 points gives {1, 11}, obj 4
        cb, _, history = kmeans_fit(FOUR_POINTS, 2, seed=0, collect_history=True)
        assert sorted(cb.codes.ravel().tolist()) == [1.0, 11.0]
        assert history[-1] == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_k_equals_n(self):
        x = np.random.default_rng(0).standard_normal((5, 2))
        _, asn, history = kmeans_fit(x, 5, seed=1, collect_history=True)
        assert history[-1] == pytest.approx(0.0, abs=1e-18)
        assert sorted(asn.indices.tolist()) == list(range(5))

    def test_fewer_samples_than_k(self):
        with pytest.raises(ConfigError):
            kmeans_fit(np.ones((3, 2)), 4, seed=0)

    def test_non_finite_features(self):
        x = np.array([[0.0], [np.inf]])
        with pytest.raises(NumericError):
            kmeans_fit(x, 2, seed=0)

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(3).standard_normal((40, 5))
        a_cb, a_asn = kmeans_fit(x, 4, seed=11)
        b_cb, b_asn = kmeans_fit(x, 4, seed=11)
        assert np.array_equal(a_cb.codes, b_cb.codes)
        assert np.array_equal(a_asn.indices, b_asn.indices)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_objective_history(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 3))
        _, _, history = kmeans_fit(x, 3, seed=seed, collect_history=True)
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_reaches_brute_force_optimum_small(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        K = int(rng.integers(2, min(n, 3) + 1))
        x = rng.uniform(-5, 5, size=(n, d))
        cb, asn, history = kmeans_fit(x, K, seed=seed, collect_history=True)
        # the reported objective is the one its own codes and indices give
        assert history[-1] == pytest.approx(((x - cb.codes[asn.indices]) ** 2).sum(), abs=1e-12)
        assert history[-1] == pytest.approx(brute_force_kmeans_optimum(x, K), abs=1e-9)

    def test_final_assignment_is_nearest(self):
        x = np.random.default_rng(7).standard_normal((64, 4))
        cb, asn = kmeans_fit(x, 5, seed=7)
        assert np.array_equal(asn.indices, brute_force_nearest(cb.codes, x))

    def test_indices_in_range(self):
        x = np.random.default_rng(8).standard_normal((50, 2))
        _, asn = kmeans_fit(x, 6, seed=8)
        assert asn.indices.min() >= 0 and asn.indices.max() < 6

    def test_permutation_changes_only_order(self):
        # same initial centroids: the multiset of (sample -> code vector)
        # pairings must be permutation invariant
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 3))
        init = x[:4].copy()
        c1, l1, _, _ = _lloyd(x, init, max_iters=100, tol=1e-6)
        perm = rng.permutation(20)
        c2, l2, _, _ = _lloyd(x[perm], init, max_iters=100, tol=1e-6)
        pairs1 = sorted(map(tuple, np.round(c1[l1], 9)[np.lexsort(x.T)]))
        pairs2 = sorted(map(tuple, np.round(c2[l2], 9)[np.lexsort(x[perm].T)]))
        assert pairs1 == pairs2

    def test_duplicate_points_keep_k_codes(self):
        # empty-cluster repair must keep exactly K distinct rows
        x = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 2)
        cb, asn = kmeans_fit(x, 3, seed=0)
        assert cb.codes.shape == (3, 2)
        assert asn.indices.shape == (8,)


class TestObjective:
    """The objective Lloyd reports: history[0] is the sum of squared
    distances to the nearest initial center."""

    def test_exact_centroids_zero(self):
        x = np.array([[1.0, 1.0], [3.0, 3.0]])
        _, _, _, history = _lloyd(x, x.copy(), max_iters=100, tol=1e-6)
        assert set(history) == {0.0}

    def test_single_point_squared_distance(self):
        _, _, _, history = _lloyd(np.array([[3.0, 4.0]]), np.zeros((1, 2)), 100, 1e-6)
        assert history[0] == pytest.approx(25.0)

    def test_worked_example(self):
        _, labels, obj, history = _lloyd(FOUR_POINTS, np.array([[1.0], [11.0]]), 100, 1e-6)
        assert history[0] == pytest.approx(4.0, abs=1e-12)
        assert obj == pytest.approx(4.0, abs=1e-12)
        assert labels.tolist() == [0, 0, 1, 1]


class TestNearTies:
    """Rows the GEMM scores cannot call are recomputed with the kernel."""

    # At 1e8 the GEMM form ||x||^2 - 2x.c + ||c||^2 cancels terms of 1e16
    # down to distances of a few units, so its argmin is wrong on many rows.
    # Every coordinate and difference below is exact in float64, so the
    # kernel's distances are exact, and many rows are exactly equidistant
    # from two or more codes.
    CODES = 1e8 + np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]])

    def _points(self):
        rng = np.random.default_rng(0)
        near = 1e8 + rng.integers(-2, 5, size=(400, 2)) * 0.5
        far = 1e8 + np.array([[1e3, 0.0], [-1e3, 5.0], [3.0, 2e3]])  # clear winners
        return np.vstack([near, far])

    def test_offset_points_get_the_exact_nearest_code(self):
        x = self._points()
        expected = brute_force_nearest(self.CODES, x)
        plain = (x @ (-2.0 * self.CODES.T) + (self.CODES**2).sum(axis=1)).argmin(axis=1)
        assert not np.array_equal(plain, expected)
        d2 = ((x[:, None, :] - self.CODES[None]) ** 2).sum(axis=2)
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        # no Lloyd iteration: only the assignment to the given centers
        _, labels, _, _ = _lloyd(x, self.CODES, max_iters=0, tol=1e-6)
        assert np.array_equal(labels, expected)

    def test_fit_on_offset_points_assigns_the_nearest_code(self):
        x = self._points()
        cb, asn = kmeans_fit(x, 5, seed=0)
        assert np.array_equal(asn.indices, brute_force_nearest(cb.codes, x))

    def test_a_row_with_no_score_in_the_bound_is_recomputed(self):
        # row 0's score against code 2 is -inf + inf = NaN, so no score of
        # that row is within the bound, and only the kernel can call it
        x = np.array([[1e300, 0.0], [1.0, 2.0], [3.0, -1.0]])
        c = np.array([[0.0, 0.0], [5.0, 5.0], [1e300, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _sq_dists(x, c).argmin(axis=1)
            norms = np.sqrt(np.einsum("nd,nd->n", x, x))
            labels = _nearest(x, norms, c, np.ones(3, bool), np.full(3, -1), np.empty(3), _Work(3, 2, 3, 0))
        assert expected.tolist() == [2, 0, 0] and labels.tolist() == [2, 0, 0]


class TestTypes:
    def test_assignment_range_validated(self):
        with pytest.raises(IndexError):
            IndexAssignment(np.array([0, 3]), 3)

    def test_codebook_requires_finite(self):
        with pytest.raises(NumericError):
            Codebook(np.array([[np.nan]]))


def _blobs(rng, n, d, k, spread=0.3):
    centers = rng.uniform(-10, 10, size=(k, d))
    return centers[rng.integers(k, size=n)] + spread * rng.standard_normal((n, d))


def _duplicated(rng, n_distinct, copies, d):
    x = np.repeat(rng.standard_normal((n_distinct, d)), copies, axis=0)
    return x[rng.permutation(x.shape[0])]


# name -> (data from an rng, K, kmeans_fit keyword arguments)
PINNED_CASES = {
    "gauss-60x2-k3": (lambda r: r.standard_normal((60, 2)), 3, {}),
    "gauss-200x8-k8": (lambda r: r.standard_normal((200, 8)), 8, {}),
    "gauss-400x16-k16": (lambda r: r.standard_normal((400, 16)), 16, {}),
    "gauss-300x64-k32": (lambda r: r.standard_normal((300, 64)), 32, {}),
    "blobs-500x4-k5": (lambda r: _blobs(r, 500, 4, 5), 5, {}),
    "blobs-240x64-k24": (lambda r: _blobs(r, 240, 64, 12, spread=1.5) + 2.0, 24, {}),
    "relu-300x32-k16": (lambda r: np.maximum(r.standard_normal((300, 32)), 0.0), 16, {}),
    "uniform-1000x2-k20": (lambda r: r.uniform(size=(1000, 2)), 20, {}),
    "grid-100x2-k7": (lambda r: r.integers(0, 4, size=(100, 2)).astype(float), 7, {}),
    "line-80x1-k6": (lambda r: r.standard_normal((80, 1)), 6, {}),
    "cauchy-150x4-k6": (lambda r: r.standard_cauchy((150, 4)), 6, {}),
    "offset-200x8-k8": (lambda r: 1e3 + r.standard_normal((200, 8)), 8, {}),
    "tiny-100x4-k5": (lambda r: 1e-8 * r.standard_normal((100, 4)), 5, {}),
    "scales-200x6-k9": (lambda r: r.standard_normal((200, 6)) * np.logspace(-3, 3, 6), 9, {}),
    "duplicated-120x3-k10": (lambda r: _duplicated(r, 30, 4, 3), 10, {}),
    "duplicated-fewer-than-k": (lambda r: _duplicated(r, 3, 5, 2), 6, {}),
    "two-values-8x2-k3": (lambda r: np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 2), 3, {}),
    "k-equals-n-12x3": (lambda r: r.standard_normal((12, 3)), 12, {}),
    "k-equals-n-duplicates": (lambda r: np.array([[1.0], [1.0], [2.0], [3.0]]), 4, {}),
    "n-is-k-plus-1": (lambda r: r.standard_normal((9, 5)), 8, {}),
    "k1-50x5": (lambda r: r.standard_normal((50, 5)), 1, {}),
    "all-equal-20x3-k4": (lambda r: np.full((20, 3), 1.5), 4, {}),
    "all-zero-10x2-k2": (lambda r: np.zeros((10, 2)), 2, {}),
    "capped-iters-300x8-k12": (
        lambda r: r.standard_normal((300, 8)),
        12,
        {"max_iters": 2, "n_restarts": 3},
    ),
    "loose-tol-300x8-k12": (lambda r: r.standard_normal((300, 8)), 12, {"tol": 1e-2}),
}

# sha256 over the labels, the codes and the objective history, recorded
# with `_sq_dists` assigning every row: a fit whose float operations differ
# from that reference path anywhere shows up here
PINNED_SHA256 = {
    "all-equal-20x3-k4": "f77a315957ee3ada3e02f6b1c2a1b75e3ba066f30ece9ba40782a4fe73fff578",
    "all-zero-10x2-k2": "b707241545a346265aab1ffb32ff64b55bf8f8dc1b56a46ef33ce3d15db11d33",
    "blobs-240x64-k24": "b6100339bf1a4213cf829c8069e1a8fbafa93f2e7c83dd46482b2b58beeab7a8",
    "blobs-500x4-k5": "b039a1af97fc62c5443092d0d881331b80fce0844eda0a6b7163bd99de83fa19",
    "capped-iters-300x8-k12": "707462e74f1ed894ade774d4daebc3d3d0d254a94a2b79be9fc8329412b4c407",
    "cauchy-150x4-k6": "799d4a506a750e00e88fbcf10ff56139a4930a22765a058e44ddf05caf60f01c",
    "duplicated-120x3-k10": "5610b0f5b8d3a8f493c0a8fb1d326971923ab325bdf95c7fc4184f27ab3ab72c",
    "duplicated-fewer-than-k": "67fa0de2e17b5fd70bf2450c107702591f0a3300ede4f47e9d24ecf2abdb3da5",
    "gauss-200x8-k8": "0ea4369bd1c51bed57dc4d1766d9df2c104240fad452e40b75758ebd18a00a5b",
    "gauss-300x64-k32": "796a75c9126c8ee5895b12287fab0f06adcdc6f5613db71c6fafb28d2762c00a",
    "gauss-400x16-k16": "1d58c7fd6abdf87daf98c03724f33c3422126d1d6ce60694d908babd5a695d7a",
    "gauss-60x2-k3": "9fac9205aa23c08f9e79047addf9a03ae71340339851eead8207873ce5b9d493",
    "grid-100x2-k7": "f0de6780ee383a8f2c60eed4ef7810c99e8b2b005aeee05a93312cd1462954e8",
    "k-equals-n-12x3": "76871c3b2f5c2a0bfdc8feb4d3c80147d972232256689fd5b70c489f965358c0",
    "k-equals-n-duplicates": "ff07a38e20d01db2e08ce1ad7c4c293d1b1b5880ef33b31c371b2fa304ee3f88",
    "k1-50x5": "5f2767f84fb596caf413fc9e4b74e1e124b4cdb5f413fd0c6a3ee2c7c3a7ed89",
    "line-80x1-k6": "9704060f76c89232f7576c7033e30b3a430299d4c8b4f086f32b45d4a7889f5a",
    "loose-tol-300x8-k12": "b372ae651d6efddf6ac067a8c7ffc130a8220186e82b5a50f715f8188e9f2853",
    "n-is-k-plus-1": "31e2974c5afe8c30653a012321aed2bb0d29360f3f93f351860bba16b06c124b",
    "offset-200x8-k8": "55468ddf6d023fc32788c9699f3081a2b3bcfebad0d70e40849ff2b88670cf70",
    "relu-300x32-k16": "9f7e369d6511cc2942ed32a0787e95dec7c911fc8a49798c70030b46b49ac87d",
    "scales-200x6-k9": "3887f5abd557102ec9266d5773b0be98486308a03c55949a7951ca6614f10839",
    "tiny-100x4-k5": "058ef00c5e206261bc02cecda3fd9b16b4da14d70a15dcda68bbaf2a8251c52e",
    "two-values-8x2-k3": "cef5d816cb94753167aa8a1e0caefc145022baf94aac82e1b2f34af6880ab643",
    "uniform-1000x2-k20": "227e70d3f217d5c636f970a834fb1794764a2b2357a5ceece5d1162eb491ede3",
}


def _fit_digest(name: str) -> str:
    make, K, kwargs = PINNED_CASES[name]
    x = make(np.random.default_rng(sorted(PINNED_CASES).index(name)))
    cb, asn, history = kmeans_fit(x, K, seed=5, collect_history=True, **kwargs)
    h = hashlib.sha256()
    for part in (asn.indices, cb.codes, np.array(history)):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pinned_fit_outputs(name):
    assert _fit_digest(name) == PINNED_SHA256[name]


def _bits(*arrays) -> list:
    """Dtype, shape and raw bytes: equal only if bit for bit equal (0.0 is not -0.0)."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.ascontiguousarray, arrays)]


def _fit_bits(x, K, seed, **kwargs) -> list:
    cb, asn, history = kmeans_fit(x, K, seed=seed, collect_history=True, **kwargs)
    return _bits(cb.codes, asn.indices, np.array(history))


def _reference_bits(x, K, seed, **kwargs) -> list:
    centers, labels, history = reference_kmeans_fit(x, K, seed, **kwargs)
    return _bits(centers, labels, np.array(history))


class TestSeeding:
    """k-means++ draws with cdf.searchsorted(rng.random()), which must pick the
    index rng.choice(n, p=d2 / total) picks and leave the generator in the
    same state."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: r.standard_normal((60, 3)),  # random weights
            lambda r: r.standard_cauchy((40, 2)),  # weights over many scales
            lambda r: np.repeat(r.standard_normal((5, 2)), 4, axis=0),  # zeros among the weights
            lambda r: np.vstack([np.zeros((9, 2)), r.standard_normal((1, 2))]),  # one nonzero weight
            lambda r: np.full((6, 2), 2.5),  # every weight zero
        ],
        ids=["gauss", "cauchy", "duplicates", "one-nonzero", "all-equal"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_match_rng_choice(self, make, seed):
        x = make(np.random.default_rng(seed))
        K = min(len(x), 8)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        centers = _kmeanspp_batch(x, K, [ours], _Work(*x.shape, K, 1))[0]
        assert _bits(centers) == _bits(reference_kmeanspp_init(x, K, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("i", range(60))
    def test_batch_is_bitwise_each_restart_alone(self, i):
        x, K, R = _seeding_case(i)
        ours = [np.random.default_rng([i, r]) for r in range(R)]
        theirs = [np.random.default_rng([i, r]) for r in range(R)]
        centers = _kmeanspp_batch(x, K, ours, _Work(*x.shape, K, R + i % 3))
        assert centers.shape == (R, K, x.shape[1])
        for r in range(R):
            assert _bits(centers[r]) == _bits(reference_kmeanspp_init(x, K, theirs[r]))
            assert ours[r].bit_generator.state == theirs[r].bit_generator.state


def _seeding_case(i: int):
    """(x, K, restart count) of seeding case i: D from 1 to 64, 1 to 20 restarts,
    K from 1 to N, and rows with many equal or near-equal distances."""
    rng = np.random.default_rng(3000 + i)
    D = (1, 64)[i % 2] if i < 12 else int(rng.integers(1, 65))
    R, n = int(rng.integers(1, 21)), int(rng.integers(2, 70))
    kind = i % 6
    if kind == 0:
        x = rng.standard_normal((n, D)) * 10.0 ** rng.integers(-3, 4)
    elif kind == 1:  # duplicate rows
        x = np.repeat(rng.standard_normal((int(rng.integers(1, 8)), D)), int(rng.integers(2, 6)), axis=0)
        x = x[rng.permutation(len(x))]
    elif kind == 2:  # all rows equal: every total after the first center is 0
        x = np.full((n, D), rng.standard_normal())
    elif kind == 3:  # an exact lattice at 1e8: GEMM scores cancel, many exact ties
        x = 1e8 + rng.integers(-2, 5, size=(n, D)) * 0.5
    elif kind == 4:  # fewer rows than restarts
        R = int(rng.integers(3, 21))
        x = rng.standard_normal((int(rng.integers(1, R)), D))
    else:  # tight blobs far from the origin
        centers = rng.uniform(-10, 10, size=(4, D)) + 1e4
        x = centers[rng.integers(4, size=n)] + 1e-3 * rng.standard_normal((n, D))
    K = [1, len(x), int(rng.integers(1, len(x) + 1))][i // 6 % 3]
    return x, K, R


def _fuzz_case(i: int):
    """(x, K, kmeans_fit keyword arguments) of fuzz case i."""
    rng = np.random.default_rng(2000 + i)
    D, n = (1, 64)[i % 2] if i < 12 else int(rng.integers(1, 65)), int(rng.integers(2, 90))
    kind = i % 6
    if kind == 0:
        x, K = rng.standard_normal((n, D)), int(rng.integers(2, min(n, 12) + 1))
    elif kind == 1:  # duplicate rows, fewer distinct rows than K: empty clusters
        K = int(rng.integers(2, 11))
        x = np.repeat(rng.standard_normal((int(rng.integers(1, K)), D)), int(rng.integers(2, 6)), axis=0)
        x = x[rng.permutation(len(x))]
    elif kind == 2:
        x = rng.standard_normal((min(n, 14), D))
        K = len(x)
    elif kind == 3:
        x, K = rng.standard_normal((n, D)) * 10.0, 1
    elif kind == 4:  # an exact lattice at 1e8: many exact ties, GEMM scores cancel
        x, K = 1e8 + rng.integers(-2, 5, size=(n, min(D, 6))) * 0.5, int(rng.integers(2, 9))
    else:
        centers = rng.uniform(-10, 10, size=(4, D))
        x, K = centers[rng.integers(4, size=n)] + 0.5 * rng.standard_normal((n, D)), int(rng.integers(2, 9))
    kwargs = [{}, {"max_iters": 1}, {"tol": 0.0}, {"max_iters": 3, "n_restarts": 5}][i % 4]
    return x, min(K, len(x)), kwargs


class TestAgainstSerialRecompute:
    """The incremental Lloyd and the batched seeding against the serial loop
    that recomputes every score, distance and mean on every step."""

    @pytest.mark.parametrize("i", range(48))
    def test_fit_is_bitwise_the_serial_loop(self, i):
        x, K, kwargs = _fuzz_case(i)
        assert _fit_bits(x, K, i, **kwargs) == _reference_bits(x, K, i, **kwargs)

    @pytest.mark.parametrize("i", range(48))
    def test_lloyd_is_bitwise_the_full_recompute(self, i):
        x, K, kwargs = _fuzz_case(i)
        init = x[np.random.default_rng(i).choice(len(x), K, replace=False)]
        max_iters, tol = kwargs.get("max_iters", 100), kwargs.get("tol", 1e-6)
        c1, l1, o1, h1 = _lloyd(x, init, max_iters, tol)
        c2, l2, o2, h2 = reference_lloyd(x, init, max_iters, tol)
        assert _bits(c1, l1, np.array(h1 + [o1])) == _bits(c2, l2, np.array(h2 + [o2]))


def _restart_of(rng) -> int:
    return rng.bit_generator.seed_seq.entropy[1]


class TestRestarts:
    X = np.random.default_rng(4).standard_normal((150, 6))

    def test_starts_no_thread_on_eight_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        started, start = [], threading.Thread.start

        def recording_start(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        count = threading.active_count()
        bits = _fit_bits(self.X, 7, 3)
        assert started == [] and threading.active_count() == count
        assert bits == _reference_bits(self.X, 7, 3)

    def test_the_earliest_failing_restart_raises(self, monkeypatch):
        real_batch, real_lloyd = kmeans._kmeanspp_batch, kmeans._lloyd
        restarts, ran = [], []

        def batch(x, K, rngs, work):  # _lloyd then runs on these restarts in order
            restarts.extend(_restart_of(rng) for rng in rngs)
            return real_batch(x, K, rngs, work)

        def lloyd(*args):
            ran.append(restarts.pop(0))
            if ran[-1] in (3, 6):
                raise StateError(f"objective increased: restart {ran[-1]}")
            return real_lloyd(*args)

        monkeypatch.setattr(kmeans, "_kmeanspp_batch", batch)
        monkeypatch.setattr(kmeans, "_lloyd", lloyd)
        with pytest.raises(StateError) as error:
            kmeans_fit(self.X, 7, seed=3)
        assert str(error.value) == "objective increased: restart 3" and ran == [0, 1, 2, 3]

    def test_a_tied_winner_is_the_earliest_restart(self):
        # on a unit square's corners restarts 0 and 1 of seed 5 end at the
        # same objective with different codes
        x, seed = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 5
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, r])) for r in range(4)]
        runs = [reference_lloyd(x, reference_kmeanspp_init(x, 2, rng), 100, 1e-6) for rng in rngs]
        assert runs[0][2] == runs[1][2] and _bits(runs[0][0]) != _bits(runs[1][0])
        bits = _fit_bits(x, 2, seed, n_restarts=4)
        assert bits == _reference_bits(x, 2, seed, n_restarts=4)
        assert bits[0] == _bits(runs[0][0])[0]


def test_a_fit_peaks_under_twelve_times_its_feature_bytes():
    # seeding gathers its candidate (restart, row) pairs at most N at a time;
    # gathering them all at once peaks near 28x at this size
    x = np.random.default_rng(6).standard_normal((1200, 64))
    tracemalloc.start()
    try:
        kmeans_fit(x, 64, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * x.nbytes
