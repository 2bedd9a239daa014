import numpy as np
import pytest
from hypothesis import given, strategies as st

from decor import nn
from decor.errors import ConfigError, NumericError, ShapeError
from oracles import finite_difference_check, softmax


def _ce_loss_fn(targets):
    def loss_fn(net, batch):
        logits, caches = nn.forward_cached(net, batch)
        loss, dlogits = nn.mean_cross_entropy(logits, targets)
        grads, _ = nn.backward(net, caches, dlogits)
        return loss, grads

    return loss_fn


class TestForward:
    def test_identity_weights(self):
        net = nn.Network([nn.DenseParams(np.eye(2), np.zeros(2))])
        out = nn.forward(net, [[1.0, 2.0]])
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_weights_bias_only(self):
        net = nn.Network([nn.DenseParams(np.zeros((2, 3)), np.array([0.5, -0.5]))])
        out = nn.forward(net, np.random.default_rng(0).standard_normal((4, 3)))
        assert np.array_equal(out, np.tile([0.5, -0.5], (4, 1)))

    def test_hand_matrix_multiply(self):
        net = nn.Network([nn.DenseParams([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])])
        assert np.array_equal(nn.forward(net, [[1.0, 1.0]]), [[3.0, 7.0]])

    def test_zero_network_returns_zeros(self):
        net = nn.Network([nn.DenseParams(np.zeros((3, 4)), np.zeros(3), "rectifier")])
        out = nn.forward(net, np.ones((5, 4)))
        assert np.array_equal(out, np.zeros((5, 3)))

    def test_dimension_mismatch(self):
        net = nn.Network([nn.DenseParams(np.eye(2), np.zeros(2))])
        with pytest.raises(ShapeError):
            nn.forward(net, np.ones((1, 3)))

    def test_deterministic(self):
        net = nn.init_network([6, 8, 4], seed=3)
        x = np.random.default_rng(1).standard_normal((10, 6))
        a = nn.forward(net, x)
        b = nn.forward(net, x)
        assert np.array_equal(a, b)

    def test_rectifier_clips_negatives(self):
        net = nn.Network([nn.DenseParams(np.eye(2), np.zeros(2), "rectifier")])
        out = nn.forward(net, [[-1.0, 2.0]])
        assert np.array_equal(out, [[0.0, 2.0]])


def _ce_one(logits, target):
    """Cross-entropy of one logit vector, as a 1-row batch."""
    loss, dlogits = nn.mean_cross_entropy(np.asarray(logits)[None, :], [target])
    return loss, dlogits[0]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = _ce_one(np.zeros(32), 7)
        assert abs(loss - np.log(32)) < 1e-12

    def test_closed_form(self):
        loss, _ = _ce_one(np.array([np.log(2.0), 0.0]), 0)
        assert abs(loss - np.log(1.5)) < 1e-12

    def test_saturated_correct_class(self):
        loss, _ = _ce_one(np.array([50.0, 0.0]), 0)
        assert loss < 1e-9

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            _ce_one(np.zeros(4), 4)
        with pytest.raises(IndexError):
            _ce_one(np.zeros(4), -1)

    def test_grad_is_softmax_minus_onehot(self):
        logits = np.array([1.0, -2.0, 0.5])
        _, grad = _ce_one(logits, 1)
        expected = softmax(logits)
        expected[1] -= 1.0
        assert np.allclose(grad, expected, atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    def test_softmax_sums_to_one(self, vals):
        _, grad = _ce_one(np.array(vals), 0)
        p = grad + np.eye(len(vals))[0]  # the gradient is softmax - one_hot
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all()
        assert np.allclose(p, softmax(vals), rtol=0, atol=1e-15)

    @given(st.integers(2, 64))
    def test_uniform_ce_equals_log_k(self, k):
        loss, _ = _ce_one(np.full(k, 3.25), 0)
        assert abs(loss - np.log(k)) < 1e-12


class TestMeanCrossEntropy:
    def test_matches_single_sample_kernel(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((7, 4))
        targets = rng.integers(0, 4, 7)
        loss, dlogits = nn.mean_cross_entropy(logits, targets)
        singles = [_ce_one(logits[i], int(targets[i])) for i in range(7)]
        assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
        assert np.allclose(dlogits, np.stack([s[1] for s in singles]) / 7, atol=1e-15)

    def test_masked_classes_get_zero_grad(self):
        logits = np.zeros((3, 5))
        mask = np.array([True, True, False, False, True])
        loss, dlogits = nn.mean_cross_entropy(logits, [0, 1, 4], class_mask=mask)
        assert abs(loss - np.log(3)) < 1e-12  # softmax over 3 allowed classes
        assert np.array_equal(dlogits[:, ~mask], np.zeros((3, 2)))

    def test_target_on_masked_class_rejected(self):
        mask = np.array([True, False])
        with pytest.raises(IndexError):
            nn.mean_cross_entropy(np.zeros((1, 2)), [1], class_mask=mask)

    def test_non_finite_logits(self):
        with pytest.raises(NumericError):
            nn.mean_cross_entropy(np.array([[np.nan, 0.0]]), [0])


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        net = nn.init_network([3, 2], seed=0)
        grads = nn.GradientSet([np.ones((2, 3))], [np.ones(2)])
        stepped = nn.sgd_step(net, grads, 0.0)
        assert np.array_equal(stepped.layers[0].weights, net.layers[0].weights)
        assert np.array_equal(stepped.layers[0].bias, net.layers[0].bias)

    def test_one_step_arithmetic(self):
        net = nn.Network([nn.DenseParams(np.array([[1.0]]), np.array([1.0]))])
        grads = nn.GradientSet([np.array([[0.5]])], [np.array([0.5])])
        stepped = nn.sgd_step(net, grads, 0.1)
        assert stepped.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)
        assert stepped.layers[0].bias[0] == pytest.approx(0.95, abs=1e-15)

    def test_two_steps_equal_doubled_lr(self):
        net = nn.init_network([4, 3], seed=1)
        g = nn.GradientSet(
            [np.random.default_rng(2).standard_normal((3, 4))],
            [np.random.default_rng(3).standard_normal(3)],
        )
        twice = nn.sgd_step(nn.sgd_step(net, g, 0.05), g, 0.05)
        once = nn.sgd_step(net, g, 0.1)
        assert np.allclose(twice.layers[0].weights, once.layers[0].weights, rtol=1e-12)
        assert np.allclose(twice.layers[0].bias, once.layers[0].bias, rtol=1e-12)

    def test_negative_lr(self):
        net = nn.init_network([2, 2], seed=0)
        with pytest.raises(ConfigError):
            nn.sgd_step(net, nn.GradientSet([np.zeros((2, 2))], [np.zeros(2)]), -0.1)

    def test_shape_mismatch(self):
        net = nn.init_network([2, 2], seed=0)
        bad = nn.GradientSet([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ShapeError):
            nn.sgd_step(net, bad, 0.1)


class TestInit:
    def test_glorot_bounds(self):
        layer = nn.init_dense(100, 50, np.random.default_rng(0))
        a = np.sqrt(6.0 / 150)
        assert np.abs(layer.weights).max() <= a
        assert np.array_equal(layer.bias, np.zeros(50))

    def test_same_seed_bit_identical(self):
        a = nn.init_network([8, 16, 4], seed=42)
        b = nn.init_network([8, 16, 4], seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_hidden_layers_are_rectifier(self):
        net = nn.init_network([4, 8, 8, 2], seed=0)
        assert [l.activation for l in net.layers] == ["rectifier", "rectifier", "identity"]


class TestFiniteDifference:
    def test_linear_least_squares_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))
        net = nn.init_network([3, 2], seed=1)

        def loss_fn(n_, b_):
            pred, caches = nn.forward_cached(n_, b_)
            loss = 0.5 * float(((pred - y) ** 2).mean())
            dpred = (pred - y) / pred.size
            grads, _ = nn.backward(n_, caches, dpred)
            return loss, grads

        assert finite_difference_check(net, loss_fn, x, 1e-5) < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_two_layer_rectifier_ce(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        targets = rng.integers(0, 3, 6)
        net = nn.init_network([4, 5, 3], seed=seed)
        err = finite_difference_check(net, _ce_loss_fn(targets), x, 1e-5)
        assert err < 1e-4

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4))
        targets = rng.integers(0, 3, 6)
        net = nn.init_network([4, 5, 3], seed=9)
        honest = _ce_loss_fn(targets)

        def corrupted(n_, b_):
            loss, grads = honest(n_, b_)
            grads.weight_grads[0][0, 0] += 0.1
            return loss, grads

        assert finite_difference_check(net, corrupted, x, 1e-5) > 1e-2

    def test_epsilon_validation(self):
        net = nn.init_network([2, 2], seed=0)
        with pytest.raises(ConfigError):
            finite_difference_check(net, _ce_loss_fn([0, 1]), np.ones((2, 2)), epsilon=0.5)

    def test_sampled_subset(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        targets = rng.integers(0, 3, 4)
        net = nn.init_network([4, 8, 3], seed=4)
        err = finite_difference_check(net, _ce_loss_fn(targets), x, 1e-5, max_params=10)
        assert err < 1e-4


class TestHelpers:
    def test_checksum_detects_mutation(self):
        net = nn.init_network([3, 3], seed=0)
        before = nn.parameter_checksum(net)
        net.layers[0].weights[0, 0] += 1e-12
        assert nn.parameter_checksum(net) != before

    def test_stack_networks_composes(self):
        rng = np.random.default_rng(0)
        a = nn.init_network([4, 6], seed=1)
        b = nn.init_network([6, 2], seed=2)
        x = rng.standard_normal((5, 4))
        stacked = nn.Network(a.layers + b.layers)
        assert np.array_equal(nn.forward(stacked, x), nn.forward(b, nn.forward(a, x)))

    def test_stack_dim_mismatch(self):
        a, b = nn.init_network([4, 6], seed=1), nn.init_network([5, 2], seed=2)
        with pytest.raises(ShapeError):
            nn.Network(a.layers + b.layers)

    def test_add_grads_scaling(self):
        zero = nn.GradientSet([np.zeros((2, 2))], [np.zeros(2)])
        g = nn.GradientSet([np.ones((2, 2))], [np.ones(2)])
        combined = nn.add_grads(zero, g, scale=0.25)
        assert np.array_equal(combined.weight_grads[0], np.full((2, 2), 0.25))


@pytest.mark.parametrize("sizes", [[5, 3], [6, 8, 7, 4]])
def test_backward_without_input_grad_gives_the_same_gradients(sizes):
    net = nn.init_network(sizes, seed=2)
    x = np.random.default_rng(3).standard_normal((9, sizes[0]))
    out, caches = nn.forward_cached(net, x)
    d = np.random.default_rng(4).standard_normal(out.shape)
    full, dx = nn.backward(net, caches, d)
    grads, none = nn.backward(net, caches, d, input_grad=False)
    assert dx.shape == x.shape and none is None
    for a, b in zip(full.weight_grads + full.bias_grads, grads.weight_grads + grads.bias_grads):
        assert a.tobytes() == b.tobytes()
