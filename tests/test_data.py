import re
import tracemalloc

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
from oracles import reference_load_feature_file


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "nf.csv"
        path.write_text(
            "#decor-features v1 num_classes=4 feature_dim=2\n"
            "1,0,train,0,1.0,2.0\n"
            "2,1,train,2,1.0,2.0\n"
            f"2,2,train,3,{value},4.0\n"
            f"1,3,train,1,3.0,{value}\n"
        )
        # the first such line in the file, though task 1 is built first
        with pytest.raises(ValidationError, match=r"line 4: non-finite"):
            load_feature_file(path)

    @pytest.mark.parametrize(
        "row",
        [
            "99999999999999999999,0,train,0,1.5",
            "1,-9223372036854775809,train,0,1.5",
            "1,0,train,9223372036854775808,1.5",
        ],
    )
    def test_integer_past_int64_names_line(self, tmp_path, row):
        path = tmp_path / "big.csv"
        path.write_text(f"#decor-features v1 num_classes=2 feature_dim=1\n1,5,train,0,0.5\n{row}\n")
        with pytest.raises(ParseError, match=r"line 3: could not convert string '-?\d+' to int64$"):
            load_feature_file(path)

    def test_load_peak_memory_is_a_few_times_the_features(self, tmp_path):
        cfg = SyntheticConfig(num_classes=10, feature_dim=64, samples_per_class=300, seed=0)
        path = tmp_path / "big.csv"
        save_feature_file(generate_synthetic_tasks(cfg, T=5), path)
        tracemalloc.start()
        try:
            tasks = load_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        feature_bytes = sum(t.samples.nbytes for t in tasks)
        assert feature_bytes == 3000 * 64 * 8
        # the per-line reference peaks at about 8.3x: boxed floats and split lines
        assert peak <= 5 * feature_bytes

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


HEADER = "#decor-features v1 num_classes=4 feature_dim=2\n"
GOOD = "1,0,train,0,1.5,2.5\n2,1,test,2,3.0,4.0\n1,2,test,1,-0.0,5e-324\n"

# Inputs both loaders must treat alike: bit-for-bit the same tasks, or the
# same error class at the same line.
AGREE = {
    "plain": GOOD,
    "tasks interleaved": "2,9,train,3,1,2\n1,0,train,0,1.5,2.5\n2,1,test,2,3,4\n1,2,test,1,5,6\n",
    "many rows interleaved": "".join(
        f"{2 - i % 2},{i},{('train', 'test')[i % 3 > 1]},{i % 4},{i / 7},{-i}\n" for i in range(300)
    ),
    "label +1": "1,0,train,+1,1.5,2.5\n",
    "label space 1": "1,0,train, 1,1.5,2.5\n",
    "label 1.0": GOOD + "1,3,train,1.0,1.5,2.5\n",
    "feature space 1.5 space": "1,0,train,0, 1.5 ,2.5\n",
    "feature .5": "1,0,train,0,.5,2.5\n",
    "feature 0x1p3": GOOD + "1,3,train,0,0x1p3,2.5\n",
    "feature 1.5e": GOOD + "1,3,train,0,1.5e,2.5\n",
    "feature empty": GOOD + "1,3,train,0,,2.5\n",
    "feature nan": GOOD + "1,3,train,0,nan,2.5\n",
    "feature Infinity": GOOD + "1,3,train,0,Infinity,2.5\n",
    "feature 1e400": GOOD + "1,3,train,0,1e400,2.5\n",
    "non-finite before a bad split": "1,0,train,0,nan,2.5\n1,1,tran,0,1,2\n",
    "split space train": GOOD + "1,3, train,0,1.5,2.5\n",
    "split train space": GOOD + "1,3,train ,0,1.5,2.5\n",
    "split trains": GOOD + "1,3,trains,0,1.5,2.5\n",
    "label out of range": GOOD + "1,3,train,4,1.5,2.5\n",
    "CRLF": GOOD.replace("\n", "\r\n"),
    "blank lines": "\n" + GOOD.replace("\n", "\n\n"),
    "trailing comma": GOOD + "1,3,train,0,1.5,2.5,\n",
    "a # line": "# a comment\n" + GOOD,
    "form feed ending a row": "1,0,train,0,1.5,2.5\f\n",
    "header only": "",
    "blank lines only": "\n\n",
    "no final newline": GOOD.rstrip("\n"),
    "duplicate id": "1,0,train,0,1,2\n2,0,train,2,1,2\n",
}

# Spellings the parser in C refuses though Python's int()/float() read
# them, or line breaks only str.splitlines() knows: the one-pass loader
# raises a ParseError naming the line where the reference loaded the file.
# An integer past int64 ended in an OverflowError in the reference.
DEPART = {
    "label 0_1": ("1,0,train,0_1,1.5,2.5\n", 2),
    "feature 1_0": (GOOD + "1,3,train,0,1_0,2.5\n", 5),
    "Arabic-Indic digit id": (GOOD + "1,٣,train,0,1.5,2.5\n", 5),
    "whitespace-only line": ("1,0,train,0,1.5,2.5\n   \n1,1,test,1,1,2\n", 3),
    "form feed line": ("1,0,train,0,1.5,2.5\n\f\n", 3),
    "form feed between rows": ("1,0,train,0,1.5,2.5\f1,1,train,1,1,2\n", 2),
    "id past int64": (GOOD + "1,99999999999999999999,train,0,1.5,2.5\n", 5),
}


def _outcome(load, path):
    """The tasks' arrays as raw bytes, or the error class and line it names."""
    try:
        tasks = load(path)
    except (ValueError, ArithmeticError) as exc:
        line = re.search(r": line (\d+):", str(exc))
        return type(exc), line and int(line.group(1))
    fields = ("samples", "labels", "sample_ids", "split")
    return [
        (t.task_id, [(getattr(t, f).dtype.str, getattr(t, f).shape, getattr(t, f).tobytes()) for f in fields])
        for t in tasks
    ]


class TestAgainstReferenceLoader:
    @pytest.mark.parametrize("body", AGREE.values(), ids=AGREE.keys())
    def test_same_tasks_or_same_error(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_bytes((HEADER + body).encode("utf-8"))
        assert _outcome(load_feature_file, path) == _outcome(reference_load_feature_file, path)

    @pytest.mark.parametrize("body, line", DEPART.values(), ids=DEPART.keys())
    def test_refusals_name_the_line(self, tmp_path, body, line):
        path = tmp_path / "f.csv"
        path.write_bytes((HEADER + body).encode("utf-8"))
        assert _outcome(load_feature_file, path) == (ParseError, line)
        reference = _outcome(reference_load_feature_file, path)
        assert isinstance(reference, list) or reference[0] is OverflowError

    @pytest.mark.parametrize("header", ["", "\n", "#decor-features v1 num_classes=4\n", "v1\n"])
    def test_same_header_errors(self, tmp_path, header):
        path = tmp_path / "f.csv"
        path.write_text(header + GOOD, encoding="utf-8")
        assert _outcome(load_feature_file, path) == _outcome(reference_load_feature_file, path)

    def test_negative_feature_dim_fails_at_the_header(self, tmp_path):
        # the reference took it for 3 columns and indexed past them
        path = tmp_path / "f.csv"
        path.write_text(HEADER.replace("=2", "=-1") + "1,0,train\n", encoding="utf-8")
        assert _outcome(load_feature_file, path) == (ParseError, 1)
        with pytest.raises(IndexError):
            reference_load_feature_file(path)

    def test_form_feed_is_whitespace_not_a_line_break(self, tmp_path):
        # str.splitlines() cut this row in two, so the reference refused it
        path = tmp_path / "f.csv"
        path.write_text(HEADER + "1,0,train,0,\f1.5,2.5\n", encoding="utf-8")
        assert load_feature_file(path)[0].samples.tolist() == [[1.5, 2.5]]
        assert _outcome(reference_load_feature_file, path) == (ParseError, 2)

    def test_float_spellings_parse_to_the_same_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        scaled = rng.standard_normal(200) * 10.0 ** rng.integers(-310, 300, 200)
        values = scaled.tolist() + [0.0, -0.0, 5e-324, 1.7976931348623157e308]
        spellings = ["{!r}", "{:.17g}", "{:.6e}", "{:.3f}", "{:+.20E}"]
        rows = [
            f"1,{i},train,{i % 4},{spellings[i % 5].format(a)},{spellings[(i + 1) % 5].format(b)}\n"
            for i, (a, b) in enumerate(zip(values, values[::-1]))
        ]
        path = tmp_path / "f.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8")
        new = _outcome(load_feature_file, path)
        assert isinstance(new, list) and new == _outcome(reference_load_feature_file, path)


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
