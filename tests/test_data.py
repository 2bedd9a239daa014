import numpy as np
import pytest

from decor.data import (
    SyntheticConfig,
    TaskDataset,
    generate_synthetic_tasks,
    load_feature_file,
    save_feature_file,
    split_classes_into_tasks,
    validate_task_sequence,
)
from decor.errors import ConfigError, ParseError, ValidationError
from decor.kmeans import kmeans_fit


class TestSplitClasses:
    def test_five_tasks_of_two(self):
        sets = split_classes_into_tasks(10, 5, seed=0)
        assert len(sets) == 5
        assert all(len(s) == 2 for s in sets)
        assert sorted(c for s in sets for c in s) == list(range(10))

    def test_ten_singletons(self):
        sets = split_classes_into_tasks(10, 10, seed=1)
        assert [len(s) for s in sets] == [1] * 10

    def test_not_divisible(self):
        with pytest.raises(ConfigError):
            split_classes_into_tasks(9, 5, seed=0)

    def test_deterministic(self):
        assert split_classes_into_tasks(10, 5, seed=3) == split_classes_into_tasks(10, 5, seed=3)

    def test_seed_changes_permutation(self):
        all_same = all(
            split_classes_into_tasks(10, 5, seed=s) == split_classes_into_tasks(10, 5, seed=0)
            for s in range(1, 6)
        )
        assert not all_same


class TestSyntheticGeneration:
    def test_zero_noise_collapses_to_means(self):
        cfg = SyntheticConfig(
            num_classes=4, feature_dim=8, samples_per_class=10, within_class_sigma=0.0, seed=0
        )
        tasks = generate_synthetic_tasks(cfg, T=2)
        for task in tasks:
            for c in task.class_set:
                rows = task.samples[task.labels == c]
                assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))
        # K-means with K = classes recovers the classes exactly
        task = tasks[0]
        _, asn = kmeans_fit(task.samples, K=2, seed=0)
        same = asn.indices == asn.indices[0]
        truth = task.labels == task.labels[0]
        assert np.array_equal(same, truth)

    def test_deterministic_generation(self):
        cfg = SyntheticConfig(seed=7)
        a = generate_synthetic_tasks(cfg, T=5)
        b = generate_synthetic_tasks(cfg, T=5)
        for x, y in zip(a, b):
            assert x.task_id == y.task_id
            for name in ("samples", "labels", "sample_ids", "split"):
                assert np.array_equal(getattr(x, name), getattr(y, name))

    def test_shapes_and_split_fractions(self):
        cfg = SyntheticConfig(num_classes=6, samples_per_class=50, seed=1)
        tasks = generate_synthetic_tasks(cfg, T=3)
        assert len(tasks) == 3
        for task in tasks:
            assert len(task) == 100  # 2 classes x 50
            assert (task.split == "train").sum() == 80  # floor(50*4/5) per class
            assert (task.split == "test").sum() == 20

    def test_ids_unique_across_sequence(self):
        tasks = generate_synthetic_tasks(SyntheticConfig(seed=2), T=5)
        ids = np.concatenate([t.sample_ids for t in tasks])
        assert len(np.unique(ids)) == len(ids)

    def test_disjoint_classes(self):
        tasks = generate_synthetic_tasks(SyntheticConfig(seed=3), T=5)
        validate_task_sequence(tasks)  # raises on violation

    def test_high_separation_linearly_probeable(self):
        # separation 10x sigma: raw features alone support a near-perfect probe
        from decor.probe import ProbeConfig, linear_probe

        cfg = SyntheticConfig(
            num_classes=4,
            feature_dim=16,
            samples_per_class=60,
            class_separation=10.0,
            within_class_sigma=1.0,
            drift_sigma=1.0,
            seed=4,
        )
        tasks = generate_synthetic_tasks(cfg, T=2)
        train_sets, test_sets = [], []
        for task in tasks:
            tx, ty, _ = task.train_view()
            ex, ey, _ = task.test_view()
            train_sets.append((tx, ty))
            test_sets.append((ex, ey))
        accs = linear_probe(train_sets, test_sets, 4, ProbeConfig(epochs=50, lr=0.2, seed=0))
        assert all(a > 95.0 for a in accs)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(class_separation=0.0)
        with pytest.raises(ConfigError):
            SyntheticConfig(within_class_sigma=-1.0)


class TestFeatureFile:
    def _small_tasks(self):
        cfg = SyntheticConfig(num_classes=4, feature_dim=5, samples_per_class=6, seed=9)
        return generate_synthetic_tasks(cfg, T=2)

    def test_round_trip(self, tmp_path):
        tasks = self._small_tasks()
        path = tmp_path / "feats.csv"
        save_feature_file(tasks, path)
        loaded = load_feature_file(path)
        assert len(loaded) == len(tasks)
        for a, b in zip(tasks, loaded):
            assert a.task_id == b.task_id
            for name in ("samples", "labels", "sample_ids", "split"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["#decor-features v1 num_classes=2 feature_dim=2"]
        for i in range(8):
            lines.append(f"1,{i},train,0,0.5,0.25")
        lines[7] = "1,6,train,0,0.5"  # line 8 in the file, one feature short
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 8"):
            load_feature_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no header"):
            load_feature_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("not a header\n")
        with pytest.raises(ParseError, match="line 1"):
            load_feature_file(path)

    def test_label_outside_declared_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text(
            "#decor-features v1 num_classes=2 feature_dim=1\n"
            "1,0,train,0,1.0\n"
            "1,1,train,5,2.0\n"
        )
        with pytest.raises(ValidationError, match="line 3"):
            load_feature_file(path)

    def test_bad_split_tag(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "#decor-features v1 num_classes=2 feature_dim=1\n1,0,validate,0,1.0\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_feature_file(path)

    def test_unparsable_float_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "#decor-features v1 num_classes=2 feature_dim=1\n1,0,train,0,zap\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_feature_file(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "#decor-features v1 num_classes=4 feature_dim=1\n"
            "1,0,train,0,1.0\n"
            "2,0,train,2,2.0\n"
        )
        with pytest.raises(ValidationError):
            load_feature_file(path)

    def test_overlapping_classes_rejected(self, tmp_path):
        path = tmp_path / "ovl.csv"
        path.write_text(
            "#decor-features v1 num_classes=4 feature_dim=1\n"
            "1,0,train,0,1.0\n"
            "2,1,train,0,2.0\n"
        )
        with pytest.raises(ConfigError):
            load_feature_file(path)


class TestTaskDataset:
    def test_split_views_partition(self):
        tasks = generate_synthetic_tasks(SyntheticConfig(samples_per_class=10, seed=0), T=5)
        task = tasks[0]
        tx, _, tids = task.train_view()
        ex, _, eids = task.test_view()
        assert len(tx) + len(ex) == len(task)
        assert set(tids.tolist()).isdisjoint(eids.tolist())

    def test_invalid_split_tag(self):
        with pytest.raises(ValidationError):
            TaskDataset(1, np.ones((1, 2)), [0], [0], ["maybe"])

    def test_duplicate_sample_ids(self):
        with pytest.raises(ValidationError):
            TaskDataset(1, np.ones((2, 2)), [0, 0], [5, 5], ["train", "test"])
