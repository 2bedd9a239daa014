import numpy as np
import pytest
from hypothesis import given, strategies as st

from decor import nn
from decor.errors import ConfigError, ShapeError
from decor.regularizer import (
    HEADER_BYTES,
    DecorState,
    PredictorConfig,
    distill_loss,
    increment,
    init_index_predictor,
    serialize_state,
    storage_bits,
)
from oracles import deserialize_state, finite_difference_check


def _state(indices, K, ids=None):
    idx = np.asarray(indices)
    ids = np.arange(len(idx)) if ids is None else np.asarray(ids)
    return DecorState(ids, idx, K)


class TestIncrement:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 4)) * 0.1 + np.array([10.0, 0, 0, 0])
        b = rng.standard_normal((30, 4)) * 0.1 - np.array([10.0, 0, 0, 0])
        x = np.vstack([a, b])
        truth = np.array([0] * 30 + [1] * 30)
        identity = nn.Network([nn.DenseParams(np.eye(4), np.zeros(4))])
        state = _run_increment(identity, x, K=2)
        got = state.index_for(np.arange(60))
        # agreement up to label permutation
        direct = (got == truth).mean()
        flipped = (got == 1 - truth).mean()
        assert max(direct, flipped) == 1.0

    def test_index_count_matches_samples(self):
        encoder = nn.init_network([6, 8, 4], seed=0)
        x = np.random.default_rng(1).standard_normal((25, 6))
        state = increment(encoder, x, K=5, seed=2, sample_ids=np.arange(25))
        assert len(state) == 25

    def test_encoder_untouched(self):
        encoder = nn.init_network([6, 8, 4], seed=0)
        checksum = nn.parameter_checksum(encoder)
        x = np.random.default_rng(3).standard_normal((20, 6))
        increment(encoder, x, K=4, seed=0, sample_ids=np.arange(20))
        assert nn.parameter_checksum(encoder) == checksum

    def test_too_few_samples(self):
        encoder = nn.init_network([4, 3], seed=0)
        with pytest.raises(ConfigError, match="need at least K=5 samples, got 3"):
            increment(encoder, np.ones((3, 4)), K=5, seed=0, sample_ids=np.arange(3))

    def test_no_code_vectors_in_state(self):
        encoder = nn.init_network([4, 3], seed=0)
        x = np.random.default_rng(0).standard_normal((12, 4))
        state = increment(encoder, x, K=3, seed=1, sample_ids=np.arange(12))
        # the serialized record has room only for header + packed indices
        blob = serialize_state(state)
        assert len(blob) == HEADER_BYTES + (12 * 2 + 7) // 8
        assert not any(hasattr(state, name) for name in ("codes", "codebook", "centroids"))


def _run_increment(encoder, x, K):
    return increment(encoder, x, K=K, seed=0, sample_ids=np.arange(len(x)))


class TestPredictor:
    def test_linear_predictor(self):
        net = init_index_predictor(PredictorConfig(L=1, hidden_dim=128, K=32), in_dim=64, seed=0)
        assert len(net.layers) == 1
        assert net.layers[0].weights.shape == (32, 64)
        assert net.layers[0].activation == "identity"

    def test_two_layer_predictor(self):
        net = init_index_predictor(PredictorConfig(L=2, hidden_dim=128, K=32), in_dim=64, seed=0)
        shapes = [l.weights.shape for l in net.layers]
        assert shapes == [(128, 64), (32, 128)]
        assert [l.activation for l in net.layers] == ["rectifier", "identity"]

    def test_three_layer_predictor(self):
        net = init_index_predictor(PredictorConfig(L=3, hidden_dim=16, K=8), in_dim=4, seed=0)
        assert [l.weights.shape for l in net.layers] == [(16, 4), (16, 16), (8, 16)]

    def test_same_seed_bit_identical(self):
        cfg = PredictorConfig(L=2, hidden_dim=32, K=16)
        a = init_index_predictor(cfg, in_dim=8, seed=5)
        b = init_index_predictor(cfg, in_dim=8, seed=5)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PredictorConfig(L=0)
        with pytest.raises(ConfigError):
            PredictorConfig(K=1)


class TestDistillLoss:
    def test_uniform_logits(self):
        state = _state([3, 17], K=32)
        loss, _ = distill_loss(np.zeros((2, 32)), state, [0, 1])
        assert abs(loss - np.log(32)) < 1e-12

    def test_saturated_correct_index(self):
        state = _state([4], K=32)
        logits = np.zeros((1, 32))
        logits[0, 4] = 50.0
        loss, _ = distill_loss(logits, state, [0])
        assert loss < 1e-9

    def test_mean_of_two_closed_forms(self):
        # row 0 is an effective two-way choice at ln(3/2); row 1 is uniform (ln 32)
        state = _state([0, 9], K=32)
        logits = np.zeros((2, 32))
        logits[0, :] = -1e3
        logits[0, 0] = np.log(2.0)
        logits[0, 1] = 0.0
        loss, _ = distill_loss(logits, state, [0, 1])
        expected = (np.log(1.5) + np.log(32)) / 2
        assert abs(loss - expected) < 1e-9

    def test_missing_sample_id(self):
        state = _state([0, 1], K=4, ids=[10, 11])
        with pytest.raises(KeyError):
            distill_loss(np.zeros((1, 4)), state, [99])

    def test_width_must_match_k(self):
        state = _state([0], K=4)
        with pytest.raises(ShapeError):
            distill_loss(np.zeros((1, 5)), state, [0])

    def test_shuffled_batch_lookup(self):
        state = _state([5, 6, 7], K=8, ids=[100, 200, 300])
        assert np.array_equal(state.index_for([300, 100]), [7, 5])

    def test_unsorted_ids_stay_aligned(self):
        state = _state([7, 5, 6], K=8, ids=[300, 100, 200])
        assert np.array_equal(state.sample_ids, [100, 200, 300])
        assert np.array_equal(state.index_for([100, 200, 300]), [5, 6, 7])

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50, unique=True), st.randoms())
    def test_lookup_matches_a_dict(self, ids, rnd):
        indices = [rnd.randrange(5) for _ in ids]
        table = dict(zip(ids, indices))
        query = rnd.sample(ids, len(ids))
        state = _state(indices, K=5, ids=ids)
        assert state.index_for(query).tolist() == [table[i] for i in query]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            _state([0, 1], K=2, ids=[4, 4])

    def test_missing_id_in_empty_state(self):
        with pytest.raises(KeyError):
            _state([], K=2).index_for([0])

    def test_gradient_through_encoder_and_predictor(self):
        # finite differences through the composed encoder+predictor stack
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        encoder = nn.init_network([4, 6, 3], seed=1)
        predictor = init_index_predictor(PredictorConfig(L=2, hidden_dim=5, K=4), 3, seed=2)
        state = _state(rng.integers(0, 4, 6), K=4)
        stacked = nn.Network(encoder.layers + predictor.layers)

        def loss_fn(net, batch):
            logits, caches = nn.forward_cached(net, batch)
            loss, dlogits = distill_loss(logits, state, np.arange(6))
            grads, _ = nn.backward(net, caches, dlogits)
            return loss, grads

        assert finite_difference_check(stacked, loss_fn, x, 1e-5) < 1e-4


class TestStorage:
    def test_packed_example(self):
        assert storage_bits(1440, 32) == 7200
        assert storage_bits(1440, 32) // 8 == 900

    def test_empty_task(self):
        assert storage_bits(0, 32) == 0

    def test_one_bit_per_sample(self):
        assert storage_bits(8, 2) == 8

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            storage_bits(10, 1)

    @given(st.integers(1, 10_000), st.integers(2, 4096))
    def test_packed_never_exceeds_unpacked(self, n, k):
        # the in-memory table keeps one int64 per sample
        unpacked = _state(np.arange(n) % k, K=k).indices.nbytes * 8
        assert storage_bits(n, k) <= unpacked


class TestSerialization:
    def test_payload_size_1440_k32(self):
        state = _state(np.arange(1440) % 32, K=32, ids=np.arange(1440))
        blob = serialize_state(state)
        assert len(blob) == HEADER_BYTES + 900

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ids = rng.permutation(5000)[:137]
        idx = rng.integers(0, 7, 137)
        state = _state(idx, K=7, ids=ids)
        back = deserialize_state(serialize_state(state), sample_ids=ids)
        assert np.array_equal(state.index_for(ids), back.index_for(ids))
        assert back.K == 7

    @given(st.integers(2, 300), st.integers(1, 200))
    def test_round_trip_property(self, k, n):
        rng = np.random.default_rng(n * 1000 + k)
        idx = rng.integers(0, k, n)
        state = _state(idx, K=k)
        back = deserialize_state(serialize_state(state))
        assert np.array_equal(back.indices, idx)

    def test_payload_in_ascending_id_order(self):
        shuffled = _state([7, 5, 6], K=8, ids=[300, 100, 200])
        ordered = _state([5, 6, 7], K=8, ids=[100, 200, 300])
        assert serialize_state(shuffled) == serialize_state(ordered)

    def test_bad_magic(self):
        state = _state([0, 1], K=2)
        blob = b"XXXX" + serialize_state(state)[4:]
        with pytest.raises(ConfigError):
            deserialize_state(blob)

    def test_truncated_record(self):
        blob = serialize_state(_state([0, 1, 2], K=4))
        with pytest.raises(ConfigError):
            deserialize_state(blob[:-1])
