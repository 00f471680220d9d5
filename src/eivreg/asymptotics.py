"""Population limits and joint asymptotic laws of the corrected and restricted
estimators, under the exact restriction and under local alternatives.

A joint law is the limiting covariance `lam` (a plain pq-by-pq array) of
the centered score

    h = n^{-1/2} X'(E - Delta B) + n^{1/2} sigma_delta^2 B

and each estimator's limit as an affine transform kappa Y iota + alpha Y
beta + rho of the score limit Y (`limit_transform`).  The limit of
sqrt(n)(estimator - truth) is described, in `linalg`'s row-major
flattening, by the offsets rho as means and the covariance blocks
A_i @ lam @ A_j.T of the transforms' lifts A_i, which `AsymptoticLaw.block`
forms on demand.  Law and risk functions read q off `lam` through
`score_q`, which rejects any shape other than (p*q)-by-(p*q).

The score is a sum of independent row terms, so its covariance follows
exactly from the design and the first four moments of the error family
(`closed_form_score_cov`); `estimate_score_cov` estimates the same matrix by
Monte Carlo averaging of flattened-score outer products and serves as its
check, returning it with its standard error as a `ScoreCov`.
Since Z - X B = E - Delta B, the score needs only the sufficient statistics,
X'(E - Delta B) = X'Z - X'X B, so its draws come chunk by chunk from
`model.draw_stats`, which also drives the replication studies.  Every
function here works at the model's own n; another sample size is
``cfg.at_n(n)``.

A label's limit weight Q0 comes from `estimators.NAMED_WEIGHTS`, the one
place where an estimator label is defined, through `named_weight_limit`;
"UE" has none.  `limit_transform` sees only Q0, never a label, so the law of
a projection with any other weight limit is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .estimators import LAW_LABELS, NAMED_WEIGHTS
from .exceptions import ConfigError
from .linalg import AffineTransform, rvec, sym
from .model import (ERROR_FAMILIES, ModelConfig, Restriction, draw_stats,
                    make_restricted_b, stats_sampler)


@dataclass(frozen=True)
class PopulationModel:
    """Limits of the design second-moment pieces, stored as sigma and sigma_delta2.

    sigma   : limit of X'X/n  (= M'M/n + sigma_psi^2 I + sigma_delta^2 I)
    sigma_d : sigma - sigma_delta^2 I (also equals sigma @ k), the symmetric
              PD scale of the corrected estimator
    k       : attenuation limit sigma^{-1} sigma_d of the naive estimator
    kbar    : sigma_delta^2 sigma^{-1}, the residual attenuation weight
    """

    sigma: np.ndarray
    sigma_delta2: float

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    @property
    def sigma_d(self) -> np.ndarray:
        return self.sigma - self.sigma_delta2 * np.eye(self.p)

    @property
    def k(self) -> np.ndarray:
        return np.linalg.solve(self.sigma, self.sigma_d)

    @property
    def kbar(self) -> np.ndarray:
        return self.sigma_delta2 * np.linalg.inv(self.sigma)


def population(cfg: ModelConfig) -> PopulationModel:
    """Population quantities at the model's design: its `sigma`, checked when
    the model was made."""
    return PopulationModel(sigma=cfg.sigma, sigma_delta2=cfg.sigma_delta2)


@dataclass(frozen=True)
class ScoreCov:
    """Monte Carlo estimate of the score covariance and the largest standard
    error of its entries."""

    cov: np.ndarray
    standard_error: float


def score_q(pm: PopulationModel, lam: np.ndarray) -> int:
    """q of a score covariance at the model's p; ValueError unless `lam`
    is (p*q)-by-(p*q) for some q >= 1."""
    shape = np.shape(lam)
    q = shape[0] // pm.p if shape else 0
    if q < 1 or shape != (pm.p * q, pm.p * q):
        raise ValueError(f"score covariance must be (p*q)x(p*q) at p={pm.p}, "
                         f"got shape {shape}")
    return q


def _centered_score(cfg: ModelConfig, B: np.ndarray, xtx: np.ndarray,
                    xtz: np.ndarray) -> np.ndarray:
    """Score matrices h of a stack (reps, p, p) of X'X and (reps, p, q) of
    X'Z at the model's n."""
    return (xtz - xtx @ B) / math.sqrt(cfg.n) + math.sqrt(cfg.n) * cfg.sigma_delta2 * B


def score_sample(cfg: ModelConfig, B: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One flattened draw of the centered score at the model's n."""
    B = np.asarray(B, dtype=float)
    xtx, xtz = stats_sampler(cfg, B).draw(rng, 1)
    return rvec(_centered_score(cfg, B, xtx, xtz)[0])


def estimate_score_cov(cfg: ModelConfig, B: np.ndarray, reps: int,
                       key: tuple[int, ...], workers: int = 1) -> ScoreCov:
    """Average of flattened-score outer products over `reps` replications.

    The replications are the stream `key` of `model.draw_stats` on `workers`
    threads.  Each chunk's scores are formed with the same arithmetic as
    `score_sample` into one array of every replication's, which is scaled in
    place by an exact power of two for the products: that changes no bit,
    and only a result beyond double precision comes back as inf.  The
    standard error needs at least two replications.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    B = np.asarray(B, dtype=float)
    k = cfg.p * cfg.q
    try:
        draws = np.empty((reps, k))
    except (MemoryError, ValueError):  # numpy's "array is too big"
        raise ConfigError(f"field 'score_cov.reps' = {reps} needs {reps}x{k} score "
                          "draws, more than memory holds") from None
    for start, xtx, xtz in draw_stats(cfg, B, key, reps, workers):
        draws[start:start + len(xtx)] = _centered_score(cfg, B, xtx, xtz).reshape(-1, k)
    e = int(np.frexp(np.max(np.abs(draws)))[1])
    np.ldexp(draws, -e, out=draws)
    cov = sym(draws.T @ draws) / reps
    # entrywise Monte Carlo SE of the averaged outer products, one column of
    # products at a time; the products are symmetric, so only j >= i
    var_max = np.max([np.var(draws[:, i, None] * draws[:, i:], axis=0,
                             ddof=1).max() for i in range(k)])
    with np.errstate(over="ignore"):
        return ScoreCov(cov=np.ldexp(cov, 2 * e),
                        standard_error=float(np.ldexp(np.sqrt(var_max / reps), 2 * e)))


def closed_form_score_cov(cfg: ModelConfig, B: np.ndarray) -> np.ndarray:
    """Exact covariance of the centered score at the model's sample size n.

    The score sums independent row terms x_i u_i' with u_i = e_i - B' delta_i,
    so moment algebra up to the fourth moment of the error family gives, in
    rvec's row-major index (a,b) <-> a*q + b,

        L[(a,b),(c,d)] = Sigma_ac Su_bd + sd^4 B_ad B_cb
                         + g1 sd^3 (mbar_a B_cb B_cd + mbar_c B_ab B_ad)
                         + [a=c] g2 sd^4 B_ab B_ad

    with the model's sigma (Sigma) and mbar, the column means of M,
    Su = sigma_eps^2 I + sigma_delta^2 B'B,
    sd = sigma_delta and (g1, g2) the family's skewness and excess kurtosis.
    This is the quantity `estimate_score_cov` averages, not an approximation
    of it.  Another sample size is ``closed_form_score_cov(cfg.at_n(n), B)``.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (cfg.p, cfg.q):
        raise ValueError(f"B must be {cfg.p}x{cfg.q}, got {B.shape}")
    su = cfg.sigma_eps2 * np.eye(cfg.q) + cfg.sigma_delta2 * (B.T @ B)
    g1, g2 = ERROR_FAMILIES[cfg.error_family]
    sd2 = cfg.sigma_delta2
    bb = B[:, :, None] * B[:, None, :]  # bb[a, b, d] = B_ab B_ad
    skew = np.einsum("a,cbd->abcd", cfg.mbar, bb)
    cov = (np.einsum("ac,bd->abcd", cfg.sigma, su)
           + sd2 ** 2 * np.einsum("ad,cb->abcd", B, B)
           + g1 * sd2 ** 1.5 * (skew + skew.transpose(2, 3, 0, 1))
           + g2 * sd2 ** 2 * np.einsum("ac,abd->abcd", np.eye(cfg.p), bb))
    k = cfg.p * cfg.q
    return sym(cov.reshape(k, k))


def score_cov_model(run: RunConfig) -> tuple[ModelConfig, np.ndarray]:
    """The run's model at its `score_cov.n` and the restricted truth B there."""
    cfg = run.model.at_n(run.score_cov.n, "score_cov.n")
    return cfg, make_restricted_b(cfg, run.restriction, run.simulation.B_seed)


def law_inputs(run: RunConfig) -> tuple[PopulationModel, np.ndarray]:
    """The population model at the run's design and the exact score covariance
    at the run's `score_cov.n`: the inputs of every law and risk computation
    of a run.  A score covariance beyond double precision is a ConfigError."""
    cfg, B = score_cov_model(run)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = closed_form_score_cov(cfg, B)
    if not np.isfinite(lam).all():
        raise ConfigError("fields 'model.M', 'model.sigma_eps2', 'model.sigma_delta2', "
                          "'model.sigma_psi2' and 'score_cov.n' give a score "
                          "covariance that overflows double precision")
    return population(run.model), lam


def constraint_gain(q0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """Q0^{-1} R1' (R1 Q0^{-1} R1')^{-1}, the projection's weighted gain as the
    matrix the limit law needs (`Restriction.project` solves against one gap)."""
    q0_r1t = np.linalg.solve(q0, r1.T)
    return q0_r1t @ np.linalg.inv(r1 @ q0_r1t)


def named_weight_limit(pm: PopulationModel, label: str) -> np.ndarray:
    """Limit of weight/n of a named restricted estimator: its `NAMED_WEIGHTS`
    rule at (sigma, sigma_d)."""
    if label not in NAMED_WEIGHTS:
        raise ValueError(f"unknown named weight limit {label!r}")
    return NAMED_WEIGHTS[label](pm.sigma, pm.sigma_d)


def limit_transform(pm: PopulationModel, q: int, restr: Restriction | None = None,
                    q0: np.ndarray | None = None) -> AffineTransform:
    """An estimator's limit as an affine transform of the score limit Y.

    The corrected estimator's is sigma_d^{-1} Y.  The projection with weight
    limit `q0` subtracts gain(Q0) R1 sigma_d^{-1} Y R2 (R2'R2)^{-1} R2' and
    has the offset -gain(Q0) theta0 (R2'R2)^{-1} R2', so R1 rho R2 = -theta0.
    """
    kappa, iota = np.linalg.inv(pm.sigma_d), np.eye(q)
    if q0 is None:
        return AffineTransform(kappa, iota, np.zeros_like(kappa),
                               np.zeros_like(iota), np.zeros((pm.p, q)))
    if restr is None:
        raise ValueError("restricted limit transforms need the restriction")
    gain = constraint_gain(q0, restr.R1)
    return AffineTransform(kappa, iota, alpha=-gain @ restr.R1 @ kappa,
                           beta=(restr.R2 @ restr.right).T,
                           rho=-gain @ restr.theta0 @ restr.right)


@dataclass(frozen=True)
class AsymptoticLaw:
    """Joint limit law of a stack of estimators: labels, each one's limit
    transform of the score limit, and the score covariance `lam`.  Block
    (i, j) is maps[i] @ lam @ maps[j].T for the transforms' lifts `maps`."""

    labels: tuple[str, ...]
    transforms: tuple[AffineTransform, ...]
    lam: np.ndarray
    maps: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(t.lift() for t in self.transforms))

    @property
    def p(self) -> int:
        return self.transforms[0].rho.shape[0]

    @property
    def q(self) -> int:
        return self.transforms[0].rho.shape[1]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise ValueError(f"law has no estimator {label!r}") from exc

    def block(self, i: int | str, j: int | str) -> np.ndarray:
        i, j = (self.index(k) if isinstance(k, str) else k for k in (i, j))
        return self.maps[i] @ self.lam @ self.maps[j].T

    def mean(self, label: str) -> np.ndarray:
        return self.transforms[self.index(label)].rho

    def full_cov(self) -> np.ndarray:
        return np.block([[self.block(i, j) for j in range(len(self.labels))]
                         for i in range(len(self.labels))])

    def full_mean(self) -> np.ndarray:
        return np.concatenate([rvec(t.rho) for t in self.transforms])


def joint_law(pm: PopulationModel, lam: np.ndarray, restr: Restriction,
              estimators: tuple[str, ...] = LAW_LABELS) -> AsymptoticLaw:
    """Joint law of the requested estimators ("UE" and the named restricted
    labels) under the restriction's local direction theta0 (zero means the
    exact restriction), given the score covariance `lam`."""
    q = score_q(pm, lam)
    transforms = [limit_transform(pm, q, restr, None if label == "UE"
                                  else named_weight_limit(pm, label))
                  for label in estimators]
    return AsymptoticLaw(labels=tuple(estimators), transforms=tuple(transforms),
                         lam=lam)
