"""Configuration document parsing, round trips, and digest stability."""

import numpy as np
import pytest
import yaml

from eivreg.config import config_digest, load_config, parse_config
from eivreg.exceptions import ConfigError

DOC = {
    "model": {"n": 200, "p": 2, "q": 2, "sigma_eps2": 1.0,
              "sigma_delta2": 0.4, "sigma_psi2": 0.3,
              "error_family": "gaussian",
              "M": {"kind": "uniform", "low": -1.0, "high": 1.0, "seed": 5}},
    "restriction": {"R1": [[1.0, -0.5]], "R2": [[1.0], [0.8]],
                    "theta": [[0.3]], "theta0": [[0.9]]},
    "simulation": {"master_seed": 17, "reps": 50,
                   "B_seed": [[1.0, 0.5], [-0.2, 0.8]],
                   "estimators": ["UE", "B2"]},
    "score_cov": {"n": 300, "reps": 40},
    "risk": {"weight": "identity", "q0": "B3", "grid": 7},
}


def test_parse_fields():
    run = parse_config(DOC)
    assert run.model.n == 200 and run.model.sigma_delta2 == 0.4
    assert run.restriction.r1 == 1 and run.restriction.r2 == 1
    assert run.simulation.estimators == ("UE", "B2")
    assert run.score_cov.n == 300
    assert run.risk.q0 == "B3"
    np.testing.assert_array_equal(run.simulation.B_seed,
                                  [[1.0, 0.5], [-0.2, 0.8]])


def test_digest_stable_under_key_reordering():
    reordered = {
        "restriction": dict(reversed(list(DOC["restriction"].items()))),
        "model": dict(reversed(list(DOC["model"].items()))),
        "simulation": DOC["simulation"],
        "score_cov": DOC["score_cov"],
        "risk": DOC["risk"],
    }
    assert config_digest(DOC) == config_digest(reordered)
    assert parse_config(DOC).digest == parse_config(reordered).digest


def test_digest_changes_with_content():
    other = {**DOC, "simulation": {**DOC["simulation"], "master_seed": 18}}
    assert config_digest(DOC) != config_digest(other)


def test_roundtrip_through_yaml(tmp_path):
    run = parse_config(DOC)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(DOC), encoding="utf-8")
    again = load_config(path)
    assert again.model.n == run.model.n
    assert again.simulation.master_seed == run.simulation.master_seed
    np.testing.assert_array_equal(again.restriction.R1, run.restriction.R1)
    np.testing.assert_array_equal(again.restriction.theta0,
                                  run.restriction.theta0)
    assert again.risk.grid == run.risk.grid
    assert again.digest == run.digest


def test_inline_design_matrix(tmp_path):
    doc = {**DOC, "model": {**DOC["model"],
                            "M": np.random.default_rng(0)
                            .uniform(-1, 1, (200, 2)).tolist()}}
    run = parse_config(doc)
    assert run.model.design().shape == (200, 2)


def test_missing_section():
    with pytest.raises(ConfigError):
        parse_config({"model": DOC["model"]})


def test_missing_field():
    bad = {**DOC, "model": {k: v for k, v in DOC["model"].items() if k != "n"}}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_field_rejected():
    bad = {**DOC, "model": {**DOC["model"], "rho": 1.0}}
    with pytest.raises(ConfigError):
        parse_config(bad)


@pytest.mark.parametrize("section, key, value, message", [
    ("model", "n", 1e400, "field 'model.n' must be an integer, got inf"),
    ("model", "sigma_eps2", float("nan"),
     "field 'model.sigma_eps2' must be a finite number, got nan"),
    ("model", "M", {"kind": "uniform", "seed": "x"},
     "field 'M.seed' must be an integer, got 'x'"),
    ("model", "M", {"low": True}, "field 'M.low' must be a finite number, got True"),
    ("model", "M", {"rho": 1.0}, "unknown M fields: ['rho']"),
    ("simulation", "master_seed", 1.5,
     "field 'simulation.master_seed' must be an integer, got 1.5"),
    ("risk", "q0", ["B2"], "field 'risk.q0' must be a string, got ['B2']"),
    (None, "score_cov", None, "section 'score_cov' must be a mapping, got None"),
    ("restriction", "R1", None, "field 'R1' is missing a value"),
    ("simulation", "B_seed", None, "field 'B_seed' is missing a value"),
    ("risk", "weight", None, "field 'weight' is missing a value"),
])
def test_wrong_typed_field_is_named(section, key, value, message):
    doc = {name: dict(sec) for name, sec in DOC.items()}
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message


def test_non_numeric_matrix_rejected():
    bad = {**DOC, "restriction": {**DOC["restriction"], "R1": [["a", "b"]]}}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_invalid_yaml_reports_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model: [unbalanced", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_scale_max_and_matrix_weight_roundtrip():
    doc = {**DOC, "risk": {"weight": [[2.0, 0.1], [0.1, 1.0]], "q0": "B4",
                           "grid": 9, "scale_max": 3.5}}
    run = parse_config(doc)
    assert run.risk.scale_max == 3.5
    np.testing.assert_array_equal(run.risk.weight,
                                  [[2.0, 0.1], [0.1, 1.0]])
    np.testing.assert_array_equal(parse_config(DOC).risk.weight, np.eye(2))


def test_default_b_truth_seed_is_deterministic():
    run = parse_config({**DOC, "simulation": {"master_seed": 17, "reps": 50}})
    a = run.b_truth_seed()
    b = run.b_truth_seed()
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 2)
