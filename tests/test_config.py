from pathlib import Path

import pytest

from stylosig.config import (
    OUTPUT_ENV,
    ExperimentConfig,
    build_config,
    parse_config_file,
    validate_for,
)
from stylosig.errors import ConfigError


def test_defaults_match_reference_protocol():
    config = ExperimentConfig()
    assert config.train_window == 8 and config.test_window == 5
    assert config.train_docs == 5 and config.test_docs == 15
    assert config.profile_size == 10000
    assert config.alpha == 0.01
    assert config.delta_alpha == 25.0
    assert config.ngram_orders == (1, 2)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        "# an experiment\n"
        "corpus_dir = /data/books\n"
        "\n"
        "alpha = 0.5\n"
        "ngram_orders = 1, 2, 3\n",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values == {"corpus_dir": "/data/books", "alpha": "0.5", "ngram_orders": "1, 2, 3"}


def test_parse_config_file_reports_every_problem(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text("garbage\nalpha = 0.5\nalpha = 0.7\n= empty\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    text = str(err.value)
    assert "key = value" in text and "duplicate" in text and "empty" in text


def test_build_config_coerces_types():
    config = build_config(
        {"alpha": "0.25", "ngram_orders": "2,3", "corpus_dir": "/tmp/x", "profile_size": "50"}
    )
    assert config.alpha == 0.25
    assert config.ngram_orders == (2, 3)
    assert config.corpus_dir == Path("/tmp/x")
    assert config.profile_size == 50


def test_build_config_collects_all_errors():
    with pytest.raises(ConfigError) as err:
        build_config({"alpha": "-1", "classifier": "svm", "mystery": "1", "grid_points": "1"})
    assert len(err.value.problems) == 4


def test_overrides_beat_file_values():
    config = build_config({"alpha": "0.5"}, {"alpha": "0.9"})
    assert config.alpha == 0.9


def test_env_var_sets_output_dir(monkeypatch):
    monkeypatch.setenv(OUTPUT_ENV, "/tmp/envout")
    assert build_config({}).output_dir == Path("/tmp/envout")
    # file value loses to the environment, explicit override wins over both
    assert build_config({"output_dir": "/tmp/fileout"}).output_dir == Path("/tmp/envout")
    assert build_config({}, {"output_dir": "/tmp/cliout"}).output_dir == Path("/tmp/cliout")


def test_enum_values_checked():
    for key, bad in [
        ("protocol", "loocv"),
        ("feature_family", "chars"),
        ("sngram_element", "stem"),
        ("fusion_operator", "max"),
        ("fusion_operator", "sum"),
        ("external_kind", "raw"),
        ("classifier", "knn"),
    ]:
        with pytest.raises(ConfigError):
            build_config({key: bad})


def test_validate_for_requires_inputs(tmp_path):
    config = build_config({})
    with pytest.raises(ConfigError, match="train requires corpus_dir"):
        validate_for(config, "train")
    with pytest.raises(ConfigError, match="sigscore requires signature_dir"):
        validate_for(config, "sigscore")
    with pytest.raises(ConfigError, match="chimeric eval needs"):
        validate_for(build_config({"protocol": "chimeric", "corpus_dir": str(tmp_path)}), "eval")
    # precomputed signature scores do not replace the writers the pairing needs
    scores = tmp_path / "scores.csv"
    scores.write_text("item_id,w1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="chimeric eval needs signature_dir"):
        validate_for(
            build_config({"protocol": "chimeric", "corpus_dir": str(tmp_path), "signature_matrix": str(scores)}),
            "eval",
        )
    validate_for(config, "bench")  # no requirements


def test_validate_for_checks_paths_exist(tmp_path):
    config = build_config({"corpus_dir": str(tmp_path / "missing")})
    with pytest.raises(ConfigError, match="not a directory"):
        validate_for(config, "train")
    config = build_config(
        {"corpus_dir": str(tmp_path), "external_matrix": str(tmp_path / "no.csv")}
    )
    with pytest.raises(ConfigError, match="not a file"):
        validate_for(config, "train")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e101"])
def test_alpha_must_be_finite_and_bounded(raw):
    # nan gives NaN parameters, and inf or 1e308 overflow MNB's smoothed denominator
    with pytest.raises(ConfigError, match="alpha"):
        build_config({"alpha": raw})
    assert build_config({"alpha": "1e100"}).alpha == 1e100


def test_validate_for_rejects_output_dir_below_a_file(tmp_path):
    a_file = tmp_path / "a_file"
    a_file.write_text("x", encoding="utf-8")
    for out in (a_file, a_file / "below"):
        config = build_config({"corpus_dir": str(tmp_path), "output_dir": str(out)})
        with pytest.raises(ConfigError, match=f"output_dir {out}: {a_file} is not a directory"):
            validate_for(config, "train")
    validate_for(build_config({"output_dir": str(a_file)}), "attribute")  # attribute writes no bundle


@pytest.mark.parametrize(
    "key, bound, past",
    [("grid_points", "10001", "10002"), ("msh_bins", "10000", "10001"), ("delta_alpha", "0.25", "0.24")],
)
def test_allocation_sizing_keys_are_bounded(key, bound, past):
    # each key sizes an array: curve thresholds, MSH bins, or ceil(360 / delta_alpha) histogram bins
    with pytest.raises(ConfigError, match=key):
        build_config({key: past})
    assert getattr(build_config({key: bound}), key) == float(bound)
