"""YAML run-configuration document: model and restriction sections plus
simulation, score-covariance, and risk settings shared by every subcommand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .estimators import NAMED_WEIGHT_LIMITS
from .exceptions import ConfigError, DimMismatch, RankDeficient
from .linalg import eig_extremes, is_symmetric
from .model import DesignRule, ModelConfig, Restriction


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field {name!r} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SimSettings:
    master_seed: int = 20260810
    reps: int = 5000
    B_seed: np.ndarray | None = None
    estimators: tuple[str, ...] = ("UE", "B2", "B3", "B4")


@dataclass(frozen=True)
class ScoreCovSettings:
    n: int = 2000
    reps: int = 5000


@dataclass(frozen=True)
class RiskSettings:
    weight: np.ndarray | str = "identity"
    q0: str = "B2"
    grid: int = 21
    scale_max: float | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    restriction: Restriction
    simulation: SimSettings = field(default_factory=SimSettings)
    score_cov: ScoreCovSettings = field(default_factory=ScoreCovSettings)
    risk: RiskSettings = field(default_factory=RiskSettings)
    digest: str = ""

    def b_truth_seed(self) -> np.ndarray:
        if self.simulation.B_seed is not None:
            return self.simulation.B_seed
        p, q = self.model.p, self.model.q
        g = np.random.default_rng(self.simulation.master_seed)
        return g.uniform(-1.0, 1.0, size=(p, q))

    def weight_matrix(self) -> np.ndarray:
        if isinstance(self.risk.weight, str):
            if self.risk.weight != "identity":
                raise ConfigError(f"unknown weight spec {self.risk.weight!r}")
            return np.eye(self.model.p)
        return self.risk.weight


def config_digest(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form; key order independent."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot canonicalize {type(obj)!r}")


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    try:
        msec = dict(doc["model"])
        rsec = dict(doc["restriction"])
    except KeyError as exc:
        raise ConfigError(f"missing required section {exc.args[0]!r}") from exc

    m_spec = msec.pop("M", None)
    if m_spec is None:
        design: np.ndarray | DesignRule = DesignRule()
    elif isinstance(m_spec, dict):
        try:
            design = DesignRule(**m_spec)
        except TypeError as exc:
            raise ConfigError(f"bad design rule in 'M': {exc}") from exc
    else:
        design = _matrix(m_spec, "M")
    try:
        model = ModelConfig(
            n=int(msec.pop("n")),
            p=int(msec.pop("p")),
            q=int(msec.pop("q")),
            sigma_eps2=float(msec.pop("sigma_eps2")),
            sigma_delta2=float(msec.pop("sigma_delta2")),
            sigma_psi2=float(msec.pop("sigma_psi2")),
            error_family=str(msec.pop("error_family", "gaussian")),
            M=design,
        )
    except KeyError as exc:
        raise ConfigError(f"model section missing field {exc.args[0]!r}") from exc
    if msec:
        raise ConfigError(f"unknown model fields: {sorted(msec)}")

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
    if r1[1] != model.p or r2[0] != model.q:
        raise ConfigError(f"fields 'R1' and 'R2' must be r1x{model.p} and {model.q}xr2 "
                          f"for R1 B R2 at p={model.p}, q={model.q}, got {r1} and {r2}")

    ssec = dict(doc.get("simulation", {}))
    sim = SimSettings(
        master_seed=int(ssec.pop("master_seed", SimSettings.master_seed)),
        reps=int(ssec.pop("reps", SimSettings.reps)),
        B_seed=_matrix(ssec.pop("B_seed"), "B_seed") if "B_seed" in ssec else None,
        estimators=tuple(ssec.pop("estimators", SimSettings.estimators)),
    )
    if ssec:
        raise ConfigError(f"unknown simulation fields: {sorted(ssec)}")
    if sim.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    allowed = {"LSE", "UE", "B2", "B3", "B4"}
    bad = [lbl for lbl in sim.estimators if lbl not in allowed]
    if bad:
        raise ConfigError(f"unknown estimator labels in config: {bad}")

    csec = dict(doc.get("score_cov", {}))
    score = ScoreCovSettings(
        n=int(csec.pop("n", ScoreCovSettings.n)),
        reps=int(csec.pop("reps", ScoreCovSettings.reps)),
    )
    if csec:
        raise ConfigError(f"unknown score_cov fields: {sorted(csec)}")

    ksec = dict(doc.get("risk", {}))
    weight = ksec.pop("weight", "identity")
    if not isinstance(weight, str):
        weight = _matrix(weight, "weight")
        p = model.p
        if (weight.shape != (p, p) or not is_symmetric(weight)
                or eig_extremes(weight)[0] <= 0):
            raise ConfigError(f"field 'weight' must be a symmetric positive "
                              f"definite {p}x{p} matrix")
    scale_max = ksec.pop("scale_max", None)
    risk = RiskSettings(
        weight=weight,
        q0=str(ksec.pop("q0", RiskSettings.q0)),
        grid=int(ksec.pop("grid", RiskSettings.grid)),
        scale_max=float(scale_max) if scale_max is not None else None,
    )
    if ksec:
        raise ConfigError(f"unknown risk fields: {sorted(ksec)}")
    if risk.q0 not in NAMED_WEIGHT_LIMITS:
        raise ConfigError(f"field 'q0' must be one of {', '.join(NAMED_WEIGHT_LIMITS)}, "
                          f"got {risk.q0!r}")

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


def dump_config(run: RunConfig, path) -> None:
    doc = {
        "model": {
            "n": run.model.n, "p": run.model.p, "q": run.model.q,
            "sigma_eps2": run.model.sigma_eps2,
            "sigma_delta2": run.model.sigma_delta2,
            "sigma_psi2": run.model.sigma_psi2,
            "error_family": run.model.error_family,
            "M": (run.model.M.to_dict() if isinstance(run.model.M, DesignRule)
                  else run.model.M.tolist()),
        },
        "restriction": {
            "R1": run.restriction.R1.tolist(),
            "R2": run.restriction.R2.tolist(),
            "theta": run.restriction.theta.tolist(),
            "theta0": run.restriction.theta0.tolist(),
        },
        "simulation": {
            "master_seed": run.simulation.master_seed,
            "reps": run.simulation.reps,
            **({"B_seed": run.simulation.B_seed.tolist()}
               if run.simulation.B_seed is not None else {}),
            "estimators": list(run.simulation.estimators),
        },
        "score_cov": {"n": run.score_cov.n, "reps": run.score_cov.reps},
        "risk": {
            "weight": (run.risk.weight if isinstance(run.risk.weight, str)
                       else run.risk.weight.tolist()),
            "q0": run.risk.q0,
            "grid": run.risk.grid,
            **({"scale_max": run.risk.scale_max}
               if run.risk.scale_max is not None else {}),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
