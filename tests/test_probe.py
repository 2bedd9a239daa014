"""Linear probe: pinned accuracies on seeded cases, the trained head against
the per-step reference loop, and the probe's checks.

The pins are sha256 digests of the float64 accuracy bytes, so any change
in the probe's arithmetic (summation order, update order, shuffling) shows
up here even where the rounded percentages would not move.
"""

import hashlib

import numpy as np
import pytest
from oracles import reference_probe_head

from decor import nn
from decor.errors import ConfigError, NumericError, StateError
from decor.probe import ProbeConfig, _fit_head, linear_probe
from decor.seeds import sub_seed


def _sets(seed, tasks, n_train, n_test, dim, classes, spread=1.5):
    """`tasks` (train, test) pairs of overlapping Gaussian class blobs."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, spread, size=(max(classes) + 1, dim))
    train_sets, test_sets = [], []
    for t in range(tasks):
        pair = []
        for n in (n_train, n_test):
            labels = rng.choice(classes, size=n).astype(np.int64)
            feats = centers[labels] + rng.normal(0.0, 1.0, size=(n, dim))
            pair.append((feats, labels))
        train_sets.append(pair[0])
        test_sets.append(pair[1])
    return train_sets, test_sets


# name -> (_sets arguments, num_classes, ProbeConfig, sha256 of the accuracies)
CASES = {
    "partial_last_batch": (
        (1, 1, 50, 40, 4, [0, 1, 2]), 3, ProbeConfig(epochs=3, lr=0.2, batch_size=16, seed=0),
        "d9d6dbafb35142726d4d57b3b6bb82565eabc75f2f42ce4f046485b9ca8484e5",
    ),
    "batch_larger_than_rows": (
        (2, 1, 10, 30, 3, [0, 1]), 2, ProbeConfig(epochs=7, lr=0.2, batch_size=64, seed=1),
        "adf67384f4b5261906c346d719a611e03ab89efe9201f54657025a85bd63848b",
    ),
    "one_epoch": (
        (3, 2, 120, 50, 5, [0, 1, 2, 3]), 4, ProbeConfig(epochs=1, lr=0.2, batch_size=32, seed=2),
        "9a26cafb41149221318780f21880eaa7540782ea134edd4c2e582abec3a7fe8d",
    ),
    "one_task_defaults": (
        (4, 1, 200, 80, 8, [0, 1, 2, 3, 4]), 5, ProbeConfig(seed=3),
        "afd49ce77d511e79d76684856b9ada7f46365232ead374c425b276e69ab48f44",
    ),
    "several_tasks": (
        (5, 4, 90, 45, 6, list(range(8))), 8, ProbeConfig(epochs=5, lr=0.1, batch_size=20, seed=4),
        "d5cd9d6ee21d3afc3ee819306b96344de26bd84a60c102cf071cae07f2078180",
    ),
    "classes_above_labels_present": (
        (6, 2, 70, 35, 4, [0, 2, 3], 0.6), 7, ProbeConfig(epochs=4, lr=0.3, batch_size=25, seed=5),
        "5cc19c6f3e6f6c0ecd44c978bf48a249bb7aa8e25ddf0cb442dabbbefdee20a3",
    ),
    "one_feature": (
        (7, 2, 60, 60, 1, [0, 1, 2]), 3, ProbeConfig(epochs=6, lr=0.2, batch_size=8, seed=6),
        "3f1bd5dff7d3fa9ea181224c70e400271d72b47a045033bec1f3ea8d974deee6",
    ),
    "large_lr": (
        (8, 2, 80, 40, 5, [0, 1, 2, 3]), 4, ProbeConfig(epochs=5, lr=25.0, batch_size=16, seed=7),
        "b024ff62064376076ef28c99ce55024b1982534bd008c732b5545dad3f508999",
    ),
}


def _digest(accuracies) -> str:
    return hashlib.sha256(np.asarray(accuracies, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_accuracies_match_the_pin(name):
    args, num_classes, cfg, pin = CASES[name]
    train_sets, test_sets = _sets(*args)
    accs = linear_probe(train_sets, test_sets, num_classes, cfg)
    assert len(accs) == len(test_sets)
    assert _digest(accs) == pin


def _stacked(train_sets):
    return np.vstack([f for f, _ in train_sets]), np.concatenate([l for _, l in train_sets])


# the pinned cases plus one at the stress scale's head shape (64 features, 50 classes)
FIT_CASES = {name: case[:3] for name, case in CASES.items()} | {
    "wide": ((9, 2, 300, 10, 64, list(range(50))), 50, ProbeConfig(epochs=2, seed=8)),
}


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_trained_head_matches_the_reference_loop_bitwise(name):
    args, num_classes, cfg = FIT_CASES[name]
    x, y = _stacked(_sets(*args)[0])
    w, b = _fit_head(x, y, num_classes, cfg)
    (ref,) = reference_probe_head(x, y, num_classes, cfg).layers
    assert w.tobytes() == ref.weights.tobytes()
    assert b.tobytes() == ref.bias.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_other_feature_dtypes_match_the_reference_loop_bitwise(dtype):
    x, y = _stacked(_sets(10, 2, 80, 10, 6, [0, 1, 2])[0])
    x = (x * 10).astype(dtype)
    cfg = ProbeConfig(epochs=2, batch_size=16, seed=9)
    w, b = _fit_head(x, y, 3, cfg)
    (ref,) = reference_probe_head(x, y, 3, cfg).layers
    assert (w.dtype, b.dtype) == (np.float64, np.float64)
    assert w.tobytes() == ref.weights.tobytes()
    assert b.tobytes() == ref.bias.tobytes()


@pytest.mark.parametrize("bad_label", [-1, 3])
def test_a_label_outside_the_classes_raises_index_error(bad_label):
    train_sets, test_sets = _sets(1, 1, 50, 10, 4, [0, 1, 2])
    train_sets[0][1][7] = bad_label
    with pytest.raises(IndexError):
        linear_probe(train_sets, test_sets, 3, ProbeConfig(epochs=1))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_feature_raises_numeric_error(value):
    train_sets, test_sets = _sets(1, 2, 50, 10, 4, [0, 1, 2])
    train_sets[1][0][5, 2] = value
    with pytest.raises(NumericError):
        linear_probe(train_sets, test_sets, 3, ProbeConfig(epochs=1))


def test_a_diverging_head_raises_numeric_error():
    train_sets, test_sets = _sets(1, 1, 50, 10, 4, [0, 1, 2])
    train_sets[0][0][:] *= 1e200
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        linear_probe(train_sets, test_sets, 3, ProbeConfig(epochs=2, lr=1e200))


def test_mismatched_or_empty_task_lists_raise():
    train_sets, test_sets = _sets(1, 2, 20, 10, 4, [0, 1])
    with pytest.raises(ConfigError):
        linear_probe(train_sets, test_sets[:1], 2, ProbeConfig())
    with pytest.raises(StateError):
        linear_probe([], [], 2, ProbeConfig())


def test_zero_train_rows_score_the_untrained_head():
    _, test_sets = _sets(2, 2, 1, 40, 4, [0, 1, 2])
    empty = [(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))] * 2
    cfg = ProbeConfig(epochs=3, seed=5)
    head = nn.init_network([4, 3], seed=sub_seed(cfg.seed, "probe-init"))
    expected = [float(np.mean(nn.forward(head, f).argmax(axis=1) == l) * 100.0) for f, l in test_sets]
    assert linear_probe(empty, test_sets, 3, cfg) == expected


def test_inputs_are_left_unchanged():
    for tasks in (1, 3):
        train_sets, test_sets = _sets(3, tasks, 40, 20, 5, [0, 1, 2, 3])
        before = [a.tobytes() for pair in train_sets + test_sets for a in pair]
        linear_probe(train_sets, test_sets, 4, ProbeConfig(epochs=2, batch_size=16))
        assert [a.tobytes() for pair in train_sets + test_sets for a in pair] == before
