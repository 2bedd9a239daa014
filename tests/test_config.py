import pytest

from decor.config import ExperimentConfig, config_from_dict, load_config
from decor.data import SyntheticConfig, generate_synthetic_tasks, save_feature_file
from decor.errors import ConfigError

# (YAML body, what the error message must start with: the key, or the key
# and its reason)
BAD = [
    ({"bogus": 1}, "bogus"),
    ({"probe": {"bogus": 1}}, "probe.bogus"),
    ({"probe": 3}, "probe"),
    ({"method": "bogus"}, "method"),
    ({"method": 3}, "method"),
    ({"T": 0}, "T"),
    ({"T": 2.5}, "T"),
    ({"T": True}, "T"),
    ({"K": 1}, "K"),
    ({"method": "decor", "K": 1}, "K"),
    ({"L": 0}, "L"),
    ({"lambda": -1}, "lambda"),
    ({"lr": "fast"}, "lr"),
    ({"momentum": 1.0}, "momentum"),
    ({"seeds": 3}, "seeds"),
    ({"seeds": [1.5]}, "seeds"),
    ({"seeds": [True]}, "seeds"),
    ({"seeds": []}, "seeds"),
    ({"encoder": {"hidden_dims": [1.5]}}, "encoder.hidden_dims"),
    ({"encoder": {"hidden_dims": [True]}}, "encoder.hidden_dims"),
    ({"encoder": {"hidden_dims": [0]}}, "encoder.hidden_dims"),
    ({"predictor": {"hidden_dim": 0}}, "predictor.hidden_dim"),
    ({"projector": {"hidden_dim": 0}}, "projector.hidden_dim"),
    ({"projector": {"out_dim": 0}}, "projector.out_dim"),
    ({"augment": {"noise_sigma": -0.1}}, "augment.noise_sigma"),
    ({"augment": {"mask_fraction": 1.5}}, "augment.mask_fraction"),
    ({"lwf": {"weight": -1}}, "lwf.weight"),
    # the subset-probe keys were removed and are now unknown
    ({"probe": {"mode": "XYZ"}}, "probe.mode: unknown key"),
    ({"probe": {"samples_per_task": 0}}, "probe.samples_per_task: unknown key"),
    ({"probe": {"epochs": 0}}, "probe.epochs"),
    ({"probe": {"lr": 0}}, "probe.lr"),
    ({"probe": {"batch_size": 0}}, "probe.batch_size"),
    ({"data": {"source": "file"}}, "data.path"),
    ({"data": {"num_classes": 7}}, "data.num_classes"),
    ({"data": {"num_classes": 0}}, "data.num_classes"),
    ({"data": {"class_separation": 0}}, "data.class_separation"),
    ({"data": {"within_class_sigma": -1}}, "data.within_class_sigma"),
    ({"data": {"drift_sigma": -1}}, "data.drift_sigma"),
    # decor clusters each later task's 2 classes x 160 train rows into K codes
    ({"method": "decor", "K": 500}, "K"),
    ({"method": "simclr+decor", "K": 321}, "K"),
    ({"method": "decor", "K": 64, "data": {"samples_per_class": 20}}, "K"),
]


@pytest.mark.parametrize("body, key", BAD, ids=[repr(body) for body, _ in BAD])
def test_bad_value_names_its_yaml_key(body, key):
    with pytest.raises(ConfigError) as info:
        config_from_dict(body)
    assert str(info.value).startswith(key if ": " in key else f"{key}:")


def test_empty_body_is_the_default_config():
    assert config_from_dict({}) == ExperimentConfig()


def test_integral_numbers_coerce_to_the_field_type():
    config = config_from_dict(
        {"T": 5.0, "seeds": [2.0, 3], "lr": 1, "encoder": {"hidden_dims": [16.0]}}
    )
    assert (config.T, config.seeds, config.encoder_hidden) == (5, (2, 3), (16,))
    assert isinstance(config.lr, float) and config.lr == 1.0


def test_sections_map_onto_fields():
    config = config_from_dict(
        {"lambda": 0.5, "probe": {"lr": 0.1}, "augment": {"mask_fraction": 0.0}}
    )
    assert (config.lam, config.probe_lr, config.mask_fraction) == (0.5, 0.1, 0.0)


def test_sub_configs_carry_the_config_values():
    config = config_from_dict({"K": 16, "L": 3, "probe": {"epochs": 7}})
    assert (config.predictor_config().K, config.predictor_config().L) == (16, 3)
    probe = config.probe_config(seed=4)
    assert (probe.epochs, probe.seed) == (7, 4)
    assert config.synthetic_config(seed=9).num_classes == config.num_classes


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("T: [1,\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_config(empty) == ExperimentConfig()


@pytest.mark.parametrize(
    "body",
    [
        {"method": "decor", "K": 320},
        {"method": "finetune", "K": 500},
        {"method": "decor", "T": 1, "K": 500, "data": {"num_classes": 2}},
        # at lambda 0 decor clusters nothing
        {"method": "decor", "lambda": 0, "K": 500},
    ],
)
def test_k_up_to_the_clustered_rows_loads(body):
    assert config_from_dict(body).K == body["K"]


def test_k_above_a_file_task_names_the_task(tmp_path):
    tasks = generate_synthetic_tasks(SyntheticConfig(num_classes=4, samples_per_class=10), T=2)
    path = tmp_path / "feats.csv"
    save_feature_file(tasks, path)
    body = {"method": "decor", "T": 2, "K": 17, "data": {"source": "file", "path": str(path)}}
    config = config_from_dict(body)
    with pytest.raises(ConfigError, match=r"^K: .*task 2 of .*feats.csv has 16$"):
        config.tasks_for_seed(0)
    assert len(config_from_dict({**body, "K": 16}).tasks_for_seed(0)) == 2


def test_config_hash_ignores_seeds_and_results_dir_only():
    base = config_from_dict({}).config_hash()
    assert config_from_dict({"seeds": [7], "results_dir": "elsewhere"}).config_hash() == base
    assert config_from_dict({"lambda": 0.5}).config_hash() != base
    assert config_from_dict({"probe": {"lr": 0.1}}).config_hash() != base
