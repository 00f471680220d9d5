"""Ultrastructural measurement-error model: observed responses Z = D B + E and
observed predictors X = D + Delta, with latent design D = M + Psi.

Synthetic data generators honour the moment structure of the three error
arrays (iid entries, mean zero, known variances, family-specific skewness and
excess kurtosis) and keep the fixed design M frozen across replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DimMismatch, RankDeficient
from .linalg import COND_LIMIT

# family -> (skewness gamma1, excess kurtosis gamma2) of the standardized draw
ERROR_FAMILIES = {
    "gaussian": (0.0, 0.0),
    "shifted-exponential": (2.0, 6.0),
    "scaled-t": (0.0, 1.5),
}
_STUDENT_T_DF = 8  # gamma2 = 6/(df-4) = 1.5


def standardized_draw(family: str, size, rng: np.random.Generator,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Mean-zero unit-variance draw from the named family, written into `out`
    (a float64 array of shape `size`) when given instead of a new array.
    Either way the values are those of `rng.standard_normal(size)`,
    `rng.exponential(1.0, size) - 1.0` or `rng.standard_t(8, size) *
    sqrt(6 / 8)`, bit for bit."""
    if family not in ERROR_FAMILIES:
        raise ConfigError(f"unknown error family {family!r}")
    out = np.empty(size) if out is None else out
    if family == "gaussian":
        rng.standard_normal(out=out)
    elif family == "shifted-exponential":
        rng.standard_exponential(out=out)
        out -= 1.0
    else:
        out[...] = rng.standard_t(_STUDENT_T_DF, out.shape)
        out *= math.sqrt((_STUDENT_T_DF - 2) / _STUDENT_T_DF)
    return out


@dataclass(frozen=True)
class DesignRule:
    """Deterministic rule generating the fixed design M row by row.

    The same seed yields nested designs across sample sizes (the first n rows
    are shared), so n^{-1} M'M converges along n as required.
    """

    kind: str = "uniform"
    low: float = -1.0
    high: float = 1.0
    seed: int = 1848

    def rows(self, n: int, p: int) -> np.ndarray:
        if self.kind != "uniform":
            raise ConfigError(f"unknown design rule {self.kind!r}")
        g = np.random.default_rng(self.seed)
        return g.uniform(self.low, self.high, size=(n, p))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "low": self.low, "high": self.high,
                "seed": self.seed}


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, variance components, error family, and fixed design."""

    n: int
    p: int
    q: int
    sigma_eps2: float
    sigma_delta2: float
    sigma_psi2: float
    error_family: str = "gaussian"
    M: np.ndarray | DesignRule = field(default_factory=DesignRule)

    def __post_init__(self):
        if self.n <= self.p:
            raise ConfigError(f"need n > p, got n={self.n}, p={self.p}")
        if min(self.p, self.q) < 1:
            raise ConfigError("p and q must be at least 1")
        for name in ("sigma_eps2", "sigma_delta2", "sigma_psi2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.error_family not in ERROR_FAMILIES:
            raise ConfigError(f"unknown error family {self.error_family!r}")
        if not isinstance(self.M, DesignRule):
            m = np.asarray(self.M, dtype=float)
            if m.shape != (self.n, self.p):
                raise ConfigError(
                    f"explicit M must be {self.n}x{self.p}, got {m.shape}")
            object.__setattr__(self, "M", m)

    @property
    def moments(self) -> tuple[float, float]:
        """(gamma1, gamma2) of the configured family."""
        return ERROR_FAMILIES[self.error_family]

    def design(self, n: int | None = None) -> np.ndarray:
        """Materialize M with full column rank, optionally at another n."""
        n = self.n if n is None else n
        if isinstance(self.M, DesignRule):
            m = self.M.rows(n, self.p)
        else:
            if n != self.n:
                raise ConfigError("explicit M cannot be resized to a different n")
            m = self.M
        if np.linalg.matrix_rank(m) < self.p:
            raise RankDeficient("design M does not have full column rank")
        return m

    def at_n(self, n: int) -> "ModelConfig":
        """Same model at a different sample size (design rule only)."""
        if not isinstance(self.M, DesignRule):
            raise ConfigError("explicit M cannot be resized to a different n")
        return ModelConfig(n, self.p, self.q, self.sigma_eps2,
                           self.sigma_delta2, self.sigma_psi2,
                           self.error_family, self.M)


@dataclass(frozen=True)
class Restriction:
    """Linear restriction R1 @ B @ R2 = theta with local direction theta0."""

    R1: np.ndarray
    R2: np.ndarray
    theta: np.ndarray
    theta0: np.ndarray | None = None

    def __post_init__(self):
        r1 = np.atleast_2d(np.asarray(self.R1, dtype=float))
        r2 = np.atleast_2d(np.asarray(self.R2, dtype=float))
        th = np.atleast_2d(np.asarray(self.theta, dtype=float))
        t0 = (np.zeros_like(th) if self.theta0 is None
              else np.atleast_2d(np.asarray(self.theta0, dtype=float)))
        object.__setattr__(self, "R1", r1)
        object.__setattr__(self, "R2", r2)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta0", t0)
        if th.shape != (r1.shape[0], r2.shape[1]):
            raise DimMismatch(
                f"theta must be {r1.shape[0]}x{r2.shape[1]}, got {th.shape}")
        if t0.shape != th.shape:
            raise DimMismatch("theta0 must have the same shape as theta")
        if np.linalg.matrix_rank(r1) < r1.shape[0]:
            raise RankDeficient("R1 must have full row rank")
        if np.linalg.matrix_rank(r2) < r2.shape[1]:
            raise RankDeficient("R2 must have full column rank")
        if not np.all(np.isfinite(t0)):
            raise ConfigError("theta0 must be finite")

    @property
    def r1(self) -> int:
        return self.R1.shape[0]

    @property
    def r2(self) -> int:
        return self.R2.shape[1]

    def with_theta0(self, theta0: np.ndarray) -> "Restriction":
        return Restriction(self.R1, self.R2, self.theta, theta0)

    def target(self, n: int) -> np.ndarray:
        """theta + theta0 / sqrt(n), the drifting restriction value at size n."""
        return self.theta + self.theta0 / math.sqrt(n)

    def gap(self, b: np.ndarray) -> float:
        """Frobenius distance of R1 @ b @ R2 from theta."""
        return float(np.linalg.norm(self.R1 @ b @ self.R2 - self.theta))


@dataclass(frozen=True)
class Latent:
    """Latent pieces retained for diagnostics."""

    D: np.ndarray
    E: np.ndarray
    Delta: np.ndarray
    Psi: np.ndarray


@dataclass(frozen=True)
class Dataset:
    Z: np.ndarray
    X: np.ndarray
    latent: Latent | None = None


def make_restricted_b(cfg: ModelConfig, restr: Restriction,
                      seed_b: np.ndarray, n: int | None = None) -> np.ndarray:
    """Project seed_b onto {B : R1 B R2 = theta + theta0/sqrt(n)}.

    Minimum-norm correction: B = seed - R1'(R1 R1')^{-1} (R1 seed R2 - target)
    (R2'R2)^{-1} R2'.  The returned B satisfies the drifting restriction exactly.
    """
    n = cfg.n if n is None else n
    seed_b = np.asarray(seed_b, dtype=float)
    if seed_b.shape != (cfg.p, cfg.q):
        raise DimMismatch(f"seed_b must be {cfg.p}x{cfg.q}, got {seed_b.shape}")
    r1r1t = restr.R1 @ restr.R1.T
    r2tr2 = restr.R2.T @ restr.R2
    if np.linalg.cond(r1r1t) > COND_LIMIT or np.linalg.cond(r2tr2) > COND_LIMIT:
        raise RankDeficient("R1 R1' or R2'R2 is numerically singular")
    gap = restr.R1 @ seed_b @ restr.R2 - restr.target(n)
    left = restr.R1.T @ np.linalg.solve(r1r1t, gap)
    return seed_b - left @ np.linalg.solve(r2tr2, restr.R2.T)


def generate(cfg: ModelConfig, B: np.ndarray, rng: np.random.Generator,
             keep_latent: bool = False, n: int | None = None,
             design: np.ndarray | None = None) -> Dataset:
    """Draw one dataset: Z = (M + Psi) B + E and X = M + Psi + Delta.

    E, Delta, Psi have iid entries from the configured family, scaled to the
    configured variances, mutually independent, drawn in that order.
    `design` is ``cfg.design(n)`` materialized once by a caller that draws
    many datasets; it is built here when omitted.
    """
    n = cfg.n if n is None else n
    B = np.asarray(B, dtype=float)
    if B.shape != (cfg.p, cfg.q):
        raise DimMismatch(f"B must be {cfg.p}x{cfg.q}, got {B.shape}")
    m = cfg.design(n) if design is None else design
    if m.shape != (n, cfg.p):
        raise DimMismatch(f"design must be {n}x{cfg.p}, got {m.shape}")
    E = math.sqrt(cfg.sigma_eps2) * standardized_draw(cfg.error_family, (n, cfg.q), rng)
    Delta = math.sqrt(cfg.sigma_delta2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    Psi = math.sqrt(cfg.sigma_psi2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    D = m + Psi
    Z = D @ B + E
    X = D + Delta
    return Dataset(Z=Z, X=X, latent=Latent(D, E, Delta, Psi) if keep_latent else None)


class RowSampler:
    """X'X and X'Z of datasets drawn exactly as `generate` draws them, bit for
    bit, for a caller that needs only the sufficient statistics of many.

    The n-row arrays of E, Delta, Psi and Z are allocated once and every draw
    overwrites them: D = M + Psi takes Psi's place and X = D + Delta takes
    Delta's, so a draw allocates nothing of size n.
    """

    def __init__(self, cfg: ModelConfig, B: np.ndarray, design: np.ndarray):
        n, p = design.shape
        self.cfg, self.B, self.design = cfg, B, design
        self._e = np.empty((n, cfg.q))
        self._delta = np.empty((n, p))
        self._psi = np.empty((n, p))
        self._z = np.empty((n, cfg.q))

    def draw(self, rng: np.random.Generator, xtx: np.ndarray,
             xtz: np.ndarray) -> None:
        """Write X'X into `xtx` and X'Z into `xtz` (contiguous p x p and
        p x q) for one dataset drawn from `rng`."""
        cfg = self.cfg
        scaled = ((self._e, cfg.sigma_eps2), (self._delta, cfg.sigma_delta2),
                  (self._psi, cfg.sigma_psi2))
        for buf, var in scaled:  # E, then Delta, then Psi, as generate draws
            standardized_draw(cfg.error_family, buf.shape, rng, out=buf)
            buf *= math.sqrt(var)
        d = np.add(self.design, self._psi, out=self._psi)
        z = np.matmul(d, self.B, out=self._z)
        z += self._e
        x = np.add(d, self._delta, out=self._delta)
        np.matmul(x.T, x, out=xtx)
        np.matmul(x.T, z, out=xtz)
