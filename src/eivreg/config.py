"""YAML run-configuration document: model and restriction sections plus
simulation, score-covariance, and risk settings shared by every subcommand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import yaml

from .estimators import ESTIMATOR_LABELS, LAW_LABELS, NAMED_WEIGHTS
from .exceptions import ConfigError
from .linalg import eig_extremes, is_symmetric
from .model import STREAMS, DesignRule, ModelConfig, Restriction, stream_rng


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
_KINDS = {kind.__name__: kind for kind in _KIND_NAMES}  # f.type is the annotation string


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
    given, every other init field converted by `_scalar` to its declared
    type, or left at its default when the section omits it."""
    values = dict(resolved)
    for f in fields(cls):
        if not f.init or f.name in values:
            continue
        if f.name in sec:
            values[f.name] = _scalar(section, f.name, sec.pop(f.name), _KINDS[f.type])
        elif f.default is MISSING:
            raise ConfigError(f"{section} section missing field {f.name!r}")
    if sec:
        raise ConfigError(f"unknown {section} fields: {sorted(map(str, sec))}")
    return cls(**values)


@dataclass(frozen=True)
class SimSettings:
    master_seed: int = 20260810
    reps: int = 5000
    B_seed: np.ndarray | None = None  # p x q: parse_config draws it when absent
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


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    restriction: Restriction
    simulation: SimSettings
    score_cov: ScoreCovSettings
    risk: RiskSettings
    doc: dict  # the document parsed, not copied: change it through `with_fields`

    @property
    def digest(self) -> str:
        return config_digest(self.doc)

    def with_fields(self, values: dict) -> "RunConfig":
        """The run of the document with each `'section.field'` of `values`
        set, parsed afresh, so checked and digested like a file's."""
        doc = dict(self.doc)
        for name, value in values.items():
            section, key = name.split(".")
            doc[section] = {**doc.get(section, {}), key: value}
        return self if doc == self.doc else parse_config(doc)


def config_digest(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form; key order independent."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_config(doc: dict) -> RunConfig:
    """The one place where a configuration document is converted, checked and
    resolved: every field of the result is in the form its users read."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    unknown = set(doc) - {"model", "restriction", "simulation", "score_cov", "risk"}
    if unknown:  # YAML keys need not be strings: a date, a number
        raise ConfigError(f"unknown sections: {sorted(map(str, unknown))}")
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
        r1, r2, theta = (_matrix(rsec.pop(k), k) for k in ("R1", "R2", "theta"))
    except KeyError as exc:
        raise ConfigError(f"restriction section missing field {exc.args[0]!r}") from exc
    theta0 = _matrix(rsec.pop("theta0"), "theta0") if "theta0" in rsec else None
    try:  # built from checked matrices: any error is the restriction's own
        restriction = Restriction(R1=r1, R2=r2, theta=theta, theta0=theta0)
    except ValueError as exc:
        raise ConfigError(f"restriction: {exc}") from exc
    if rsec:
        raise ConfigError(f"unknown restriction fields: {sorted(map(str, rsec))}")
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
    risk = _settings(RiskSettings, ksec, "risk", weight=weight)
    if risk.q0 not in NAMED_WEIGHTS:
        raise ConfigError(f"field 'q0' must be one of {', '.join(NAMED_WEIGHTS)}, "
                          f"got {risk.q0!r}")
    for section, key, value, low in (("simulation", "master_seed", sim.master_seed, 0),
                                     ("simulation", "reps", sim.reps, 2),
                                     ("score_cov", "n", score.n, p + 1),
                                     ("score_cov", "reps", score.reps, 2),
                                     ("risk", "grid", risk.grid, 2)):
        if value < low:
            raise ConfigError(f"field '{section}.{key}' must be at least {low}, "
                              f"got {value}")
    if sim.master_seed >= 2 ** 32:  # numpy splits a larger key word into two
        raise ConfigError(f"field 'simulation.master_seed' must be below 2^32, "
                          f"got {sim.master_seed}")
    if sim.B_seed is None:  # the truth B's seed, drawn from a checked master seed
        sim = replace(sim, B_seed=stream_rng((sim.master_seed, STREAMS["truth_B"]))
                      .uniform(-1.0, 1.0, size=(p, q)))
    if not isinstance(model.M, DesignRule) and score.n != model.n:
        raise ConfigError(f"field 'score_cov.n' must equal model.n = {model.n} "
                          f"when 'model.M' is an explicit matrix, got {score.n}")

    run = RunConfig(model=model, restriction=restriction, simulation=sim,
                    score_cov=score, risk=risk, doc=doc)
    with np.errstate(over="ignore", invalid="ignore"):  # the truth B's scale
        if not np.isfinite(np.sum(restriction.theta0 ** 2)):
            raise ConfigError("field 'restriction.theta0' is too large: "
                              "||theta0||^2 overflows double precision")
        for n in (model.n, score.n):
            b = restriction.project(sim.B_seed, restriction.target(n))[0]
            if not np.isfinite(b.T @ b).all():
                raise ConfigError(f"field 'simulation.B_seed' and the restriction give "
                                  f"a truth B whose B'B overflows at n = {n}")
    return run


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(doc)

