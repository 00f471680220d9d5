"""YAML run-configuration document: model and restriction sections plus
simulation, score-covariance, and risk settings shared by every subcommand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

import numpy as np
import yaml

from .estimators import ESTIMATOR_LABELS, LAW_LABELS, NAMED_WEIGHTS
from .exceptions import ConfigError, DimMismatch, RankDeficient
from .linalg import eig_extremes, is_symmetric
from .model import DesignRule, ModelConfig, Restriction


def _matrix(value, name: str) -> np.ndarray:
    if value is None:
        raise ConfigError(f"field {name!r} is missing a value")
    try:
        arr = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field {name!r} contains non-finite entries")
    return arr


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _scalar(section: str, key: str, value, kind):
    """`value` as `kind` (int, float or str).  A null, a boolean, a list, a
    mapping, a value `kind` rejects, a non-finite number and a fractional
    integer are a ConfigError naming the section and the field."""
    try:
        if value is None or isinstance(value, (bool, list, dict)):
            raise TypeError
        out = kind(value)
        if (kind is float and not np.isfinite(out)
                or kind is int and isinstance(value, float) and out != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field '{section}.{key}' must be {_KIND_NAMES[kind]}, "
                          f"got {value!r}") from None
    return out


def _section(doc: dict, name: str, required: bool = False) -> dict:
    if required and name not in doc:
        raise ConfigError(f"missing required section {name!r}")
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {sec!r}")
    return dict(sec)


def _settings(cls, sec: dict, section: str, **resolved):
    """The dataclass `cls` built from a section: the fields in `resolved` as
    given, every other one converted by `_scalar` to its annotated type, or
    left at its default when the section omits it."""
    kinds = get_type_hints(cls)
    values = dict(resolved)
    for f in fields(cls):
        if f.name in values:
            continue
        if f.name in sec:
            values[f.name] = _scalar(section, f.name, sec.pop(f.name), kinds[f.name])
        elif f.default is MISSING:
            raise ConfigError(f"{section} section missing field {f.name!r}")
    if sec:
        raise ConfigError(f"unknown {section} fields: {sorted(sec)}")
    return cls(**values)


@dataclass(frozen=True)
class SimSettings:
    master_seed: int = 20260810
    reps: int = 5000
    B_seed: np.ndarray | None = None
    estimators: tuple[str, ...] = LAW_LABELS


@dataclass(frozen=True)
class ScoreCovSettings:
    n: int = 2000
    reps: int = 5000


@dataclass(frozen=True)
class RiskSettings:
    weight: np.ndarray  # the p x p loss weight W; "identity" in a file
    q0: str = "B2"
    grid: int = 21
    scale_max: float | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    restriction: Restriction
    simulation: SimSettings
    score_cov: ScoreCovSettings
    risk: RiskSettings
    digest: str

    def b_truth_seed(self) -> np.ndarray:
        if self.simulation.B_seed is not None:
            return self.simulation.B_seed
        p, q = self.model.p, self.model.q
        g = np.random.default_rng(self.simulation.master_seed)
        return g.uniform(-1.0, 1.0, size=(p, q))


def config_digest(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form; key order independent."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot canonicalize {type(obj)!r}")


def parse_config(doc: dict) -> RunConfig:
    """The one place where a configuration document is converted, checked and
    resolved: every field of the result is in the form its users read."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    msec = _section(doc, "model", required=True)
    rsec = _section(doc, "restriction", required=True)

    m_spec = msec.pop("M", None)
    if m_spec is None:
        design: np.ndarray | DesignRule = DesignRule()
    elif isinstance(m_spec, dict):
        design = _settings(DesignRule, dict(m_spec), "M")
    else:
        design = _matrix(m_spec, "M")
    model = _settings(ModelConfig, msec, "model", M=design)
    p, q = model.p, model.q

    try:
        restriction = Restriction(
            R1=_matrix(rsec.pop("R1"), "R1"),
            R2=_matrix(rsec.pop("R2"), "R2"),
            theta=_matrix(rsec.pop("theta"), "theta"),
            theta0=_matrix(rsec.pop("theta0"), "theta0") if "theta0" in rsec else None,
        )
    except KeyError as exc:
        raise ConfigError(f"restriction section missing field {exc.args[0]!r}") from exc
    except (DimMismatch, RankDeficient) as exc:
        raise ConfigError(f"restriction: {exc}") from exc
    if rsec:
        raise ConfigError(f"unknown restriction fields: {sorted(rsec)}")
    r1, r2 = restriction.R1.shape, restriction.R2.shape
    if r1[1] != p or r2[0] != q:
        raise ConfigError(f"fields 'R1' and 'R2' must be r1x{p} and {q}xr2 "
                          f"for R1 B R2 at p={p}, q={q}, got {r1} and {r2}")

    ssec = _section(doc, "simulation")
    b_seed = _matrix(ssec.pop("B_seed"), "B_seed") if "B_seed" in ssec else None
    if b_seed is not None and b_seed.shape != (p, q):
        raise ConfigError(f"field 'B_seed' must be {p}x{q} at p={p}, q={q}, "
                          f"got {b_seed.shape}")
    estimators = ssec.pop("estimators", list(SimSettings.estimators))
    if not isinstance(estimators, list):
        raise ConfigError(f"field 'simulation.estimators' must be a list of "
                          f"labels, got {estimators!r}")
    sim = _settings(SimSettings, ssec, "simulation", B_seed=b_seed,
                    estimators=tuple(estimators))
    if sim.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    bad = [lbl for lbl in sim.estimators if lbl not in ESTIMATOR_LABELS]
    if bad:
        raise ConfigError(f"unknown estimator labels in config: {bad}")
    if len(set(sim.estimators)) < len(sim.estimators):
        raise ConfigError(f"field 'simulation.estimators' repeats a label, "
                          f"got {list(sim.estimators)}")

    score = _settings(ScoreCovSettings, _section(doc, "score_cov"), "score_cov")

    ksec = _section(doc, "risk")
    weight = ksec.pop("weight", "identity")
    if isinstance(weight, str):
        if weight != "identity":
            raise ConfigError(f"field 'weight' must be 'identity' or a matrix, "
                              f"got {weight!r}")
        weight = np.eye(p)
    else:
        weight = _matrix(weight, "weight")
        if (weight.shape != (p, p) or not is_symmetric(weight)
                or eig_extremes(weight)[0] <= 0):
            raise ConfigError(f"field 'weight' must be a symmetric positive "
                              f"definite {p}x{p} matrix")
    scale_max = ksec.pop("scale_max", None)
    if scale_max is not None:
        scale_max = _scalar("risk", "scale_max", scale_max, float)
    risk = _settings(RiskSettings, ksec, "risk", weight=weight, scale_max=scale_max)
    if risk.q0 not in NAMED_WEIGHTS:
        raise ConfigError(f"field 'q0' must be one of {', '.join(NAMED_WEIGHTS)}, "
                          f"got {risk.q0!r}")
    for section, key, value, low in (("simulation", "reps", sim.reps, 2),
                                     ("score_cov", "n", score.n, p + 1),
                                     ("score_cov", "reps", score.reps, 1),
                                     ("risk", "grid", risk.grid, 2)):
        if value < low:
            raise ConfigError(f"field '{section}.{key}' must be at least {low}, "
                              f"got {value}")
    if not isinstance(model.M, DesignRule) and score.n != model.n:
        raise ConfigError(f"field 'score_cov.n' must equal model.n = {model.n} "
                          f"when 'model.M' is an explicit matrix, got {score.n}")
    if risk.scale_max is not None and risk.scale_max <= 0:
        raise ConfigError(f"field 'risk.scale_max' must be positive, "
                          f"got {risk.scale_max}")
    model.sigma()  # the design, and sigma_delta2 below its ch_min

    return RunConfig(model=model, restriction=restriction, simulation=sim,
                     score_cov=score, risk=risk, digest=config_digest(doc))


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(doc)

