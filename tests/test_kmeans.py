import numpy as np
import pytest

from decor.errors import ConfigError, NumericError
from decor.kmeans import Codebook, IndexAssignment, _lloyd, kmeans_fit
from oracles import brute_force_kmeans_optimum, brute_force_nearest

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


class TestTypes:
    def test_assignment_range_validated(self):
        with pytest.raises(IndexError):
            IndexAssignment(np.array([0, 3]), 3)

    def test_codebook_requires_finite(self):
        with pytest.raises(NumericError):
            Codebook(np.array([[np.nan]]))
