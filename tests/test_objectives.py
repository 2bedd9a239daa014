import numpy as np
import pytest

from decor import nn
from decor.errors import ConfigError, ShapeError
from decor.objectives import (
    AugmentationConfig,
    TeacherSnapshot,
    augment_two_views,
    augment_view,
    lwf_distill_loss,
    nt_xent_loss,
    supervised_ce_loss,
)
from oracles import numeric_gradient


class TestSupervisedCE:
    def test_perfect_one_hot(self):
        logits = np.full((4, 10), -50.0)
        labels = [2, 5, 0, 9]
        logits[np.arange(4), labels] = 50.0
        loss, _ = supervised_ce_loss(logits, labels)
        assert loss < 1e-9

    def test_uniform_over_ten(self):
        loss, _ = supervised_ce_loss(np.zeros((3, 10)), [0, 4, 9])
        assert abs(loss - np.log(10)) < 1e-12

    def test_closed_form(self):
        loss, _ = supervised_ce_loss(np.array([[np.log(2.0), 0.0]]), [0])
        assert abs(loss - np.log(1.5)) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            supervised_ce_loss(np.zeros((2, 3)), [0, 3])


class TestAugmentation:
    def test_identity_augmentation(self):
        cfg = AugmentationConfig(noise_sigma=0.0, mask_fraction=0.0, seed=1)
        x = np.random.default_rng(0).standard_normal((6, 12))
        va, vb = augment_two_views(x, cfg)
        assert np.array_equal(va, x) and np.array_equal(vb, x)

    def test_same_seed_bit_identical(self):
        cfg = AugmentationConfig(noise_sigma=0.3, mask_fraction=0.2, seed=9)
        x = np.random.default_rng(1).standard_normal((5, 20))
        first = augment_two_views(x, cfg)
        second = augment_two_views(x, cfg)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_mask_count_per_view(self):
        cfg = AugmentationConfig(noise_sigma=0.0, mask_fraction=0.25, seed=3)
        x = np.ones((8, 100))
        va, vb = augment_two_views(x, cfg)
        assert np.array_equal((va == 0).sum(axis=1), np.full(8, 25))
        assert np.array_equal((vb == 0).sum(axis=1), np.full(8, 25))

    def test_views_differ_under_noise(self):
        cfg = AugmentationConfig(noise_sigma=0.5, mask_fraction=0.0, seed=4)
        x = np.zeros((3, 10))
        va, vb = augment_two_views(x, cfg)
        assert not np.array_equal(va, vb)

    def test_single_view_is_first_draw(self):
        cfg = AugmentationConfig(noise_sigma=0.2, mask_fraction=0.1, seed=5)
        x = np.random.default_rng(2).standard_normal((4, 10))
        va, _ = augment_two_views(x, cfg)
        assert np.array_equal(augment_view(x, cfg), va)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            AugmentationConfig(mask_fraction=1.5)


class TestNtXent:
    def test_orthogonal_pairs_closed_form(self):
        za = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = nt_xent_loss(za, za.copy(), temperature=1.0)
        assert abs(loss - np.log(1.0 + 2.0 / np.e)) < 1e-9

    def test_symmetric_in_views(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        assert nt_xent_loss(a, b, 0.5)[0] == pytest.approx(nt_xent_loss(b, a, 0.5)[0], abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        assert nt_xent_loss(a, b, 0.5)[0] == pytest.approx(
            nt_xent_loss(5.0 * a, 5.0 * b, 0.5)[0], abs=1e-9
        )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        assert nt_xent_loss(a, b, 0.5)[0] == pytest.approx(
            nt_xent_loss(a[perm], b[perm], 0.5)[0], abs=1e-12
        )

    def test_identical_views_maximal_positive_similarity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 5))
        va, vb = augment_two_views(a, AugmentationConfig(seed=0))
        assert np.array_equal(va, vb)
        norm = va / np.linalg.norm(va, axis=1, keepdims=True)
        assert np.allclose((norm * norm).sum(axis=1), 1.0, atol=1e-12)

    def test_single_pair_rejected(self):
        with pytest.raises(ConfigError):
            nt_xent_loss(np.ones((1, 3)), np.ones((1, 3)), 0.5)

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            nt_xent_loss(np.ones((2, 3)), np.ones((2, 3)), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nt_xent_loss(np.ones((2, 3)), np.ones((3, 3)), 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_numeric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        _, (ga, gb) = nt_xent_loss(a, b, 0.5)
        na = numeric_gradient(lambda v: nt_xent_loss(v, b, 0.5)[0], a.copy())
        nb = numeric_gradient(lambda v: nt_xent_loss(a, v, 0.5)[0], b.copy())
        assert np.abs(ga - na).max() < 1e-6
        assert np.abs(gb - nb).max() < 1e-6


class TestLwf:
    def _teacher(self, temperature=1.0, dim=2):
        identity = nn.Network([nn.DenseParams(np.eye(dim), np.zeros(dim))])
        return TeacherSnapshot.capture(identity, identity.copy(), temperature)

    def test_student_equals_teacher_zero(self):
        teacher = self._teacher(temperature=2.0, dim=3)
        batch = np.random.default_rng(0).standard_normal((5, 3))
        loss, grads = lwf_distill_loss(teacher, teacher.logits(batch), batch)
        assert abs(loss) < 1e-12
        assert np.abs(grads).max() < 1e-12

    def test_closed_form_kl(self):
        teacher = self._teacher(temperature=1.0)
        batch = np.log(np.array([[0.75, 0.25]]))
        student = np.log(np.array([[0.5, 0.5]]))
        loss, _ = lwf_distill_loss(teacher, student, batch)
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert abs(loss - expected) < 1e-12

    def test_kl_nonnegative_randomized(self):
        teacher = self._teacher(temperature=2.0, dim=4)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            batch = rng.standard_normal((2, 4))
            student = rng.standard_normal((2, 4))
            loss, _ = lwf_distill_loss(teacher, student, batch)
            assert loss >= -1e-15

    def test_dim_mismatch(self):
        teacher = self._teacher(dim=2)
        with pytest.raises(ShapeError):
            lwf_distill_loss(teacher, np.zeros((1, 3)), np.zeros((1, 2)))

    def test_snapshot_is_a_frozen_copy(self):
        encoder = nn.init_network([3, 4], seed=0)
        head = nn.init_network([4, 2], seed=1)
        checksum = nn.parameter_checksum(encoder)
        teacher = TeacherSnapshot.capture(encoder, head, 2.0)
        encoder.layers[0].weights += 1.0  # live model moves on
        assert nn.parameter_checksum(teacher.encoder) == checksum

    def test_snapshot_size_scales_with_parameters(self):
        encoder = nn.init_network([64, 128, 64], seed=0)
        head = nn.init_network([64, 10], seed=1)
        teacher = TeacherSnapshot.capture(encoder, head, 2.0)
        parameters = (64 * 128 + 128) + (128 * 64 + 64) + (64 * 10 + 10)
        expected = parameters * 8
        assert teacher.num_bytes() == expected

    def test_gradient_matches_numeric(self):
        teacher = self._teacher(temperature=2.0, dim=3)
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((4, 3))
        student = rng.standard_normal((4, 3))
        _, grads = lwf_distill_loss(teacher, student, batch)
        numeric = numeric_gradient(
            lambda s: lwf_distill_loss(teacher, s, batch)[0], student.copy()
        )
        assert np.abs(grads - numeric).max() < 1e-6
