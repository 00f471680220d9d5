"""Ultrastructural measurement-error model: observed responses Z = D B + E and
observed predictors X = D + Delta, with latent design D = M + Psi.

Synthetic data generators honour the moment structure of the three error
arrays (iid entries, mean zero, known variances, family-specific skewness and
excess kurtosis) and keep the fixed design M frozen across replications.

Everything that depends on the sample size n reads it from the `ModelConfig`;
the same model at another sample size is ``cfg.at_n(n)``.

Replication studies and the score-covariance Monte Carlo check need only the
sufficient statistics X'X and X'Z of each dataset, and `stats_sampler` alone
decides how they are drawn: from their exact law under gaussian errors
(`GaussianSampler`, (R [I, B] + Q'G)'(R [I, B] + Q'G) + F A A' F' with
M = QR), at a cost that does not depend on n, and from datasets drawn as
`generate` draws them otherwise (`RowSampler`).

Seeding contract: replication r of stream `tag` draws from
``numpy.random.default_rng([master_seed, tag, r])`` (`replication_rngs`).
Replication studies use tag 0, score-covariance estimation tag 1 and the
affine-limit suite tag 2.  Under gaussian errors, with k = p + q, the
generator of each replication of tags 0 and 1 yields in order: p*k standard
normals (the rows of Q'G before the factor F), k(k-1)/2 standard normals
filling the strictly lower triangle of A row by row, and k chi-squares with
n-p, n-p-1, ..., n-p-k+1 degrees of freedom whose square roots form A's
diagonal.  When n - p < k the Bartlett form does not exist, and the last two
draws are replaced by (n-p)*k standard normals Y, with A = Y'.  Results are
therefore independent of evaluation order and of the worker count, and
reruns are bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DimMismatch, RankDeficient
from .linalg import COND_LIMIT, eig_extremes, psd_factor, sym

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

    def design(self) -> np.ndarray:
        """Materialize M, n x p with full column rank and a finite M'M."""
        m = (self.M.rows(self.n, self.p) if isinstance(self.M, DesignRule)
             else self.M)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(m.T @ m).all():
                raise ConfigError("field 'model.M' is too large: M'M "
                                  "overflows double precision")
        if np.linalg.matrix_rank(m) < self.p:
            raise ConfigError("field 'model.M' does not have full column rank")
        return m

    def design_sigma(self, m: np.ndarray) -> np.ndarray:
        """Limit of X'X/n at the n-row design m: M'M/n + (sigma_psi^2 + sigma_delta^2) I."""
        return sym(m.T @ m) / self.n + (self.sigma_psi2 + self.sigma_delta2) * np.eye(self.p)

    def sigma(self) -> np.ndarray:
        """`design_sigma` at the materialized design; a ConfigError names
        model.sigma_delta2 unless sigma - sigma_delta^2 I is positive definite."""
        sigma = self.design_sigma(self.design())
        ch_min, ch_max = eig_extremes(sigma)
        # same relative floor as the plug-in attenuation estimate
        if ch_min - self.sigma_delta2 <= 1e-8 * ch_max:
            raise ConfigError(f"field 'model.sigma_delta2' = {self.sigma_delta2} reaches "
                              f"ch_min(sigma) = {ch_min:.3e} of the design at n = {self.n}; "
                              "the corrected estimator's limit scale is not PD")
        return sigma

    def at_n(self, n: int) -> "ModelConfig":
        """The same model at sample size n, the one way to change it; an
        explicit M is fixed at its own number of rows."""
        if n != self.n and not isinstance(self.M, DesignRule):
            raise ConfigError(f"field 'model.M' is an explicit matrix with "
                              f"{self.n} rows and cannot be redrawn at n = {n}")
        return ModelConfig(n, self.p, self.q, self.sigma_eps2,
                           self.sigma_delta2, self.sigma_psi2,
                           self.error_family, self.M)


@dataclass(frozen=True)
class Restriction:
    """Linear restriction R1 @ B @ R2 = theta with local direction theta0.

    R1 R1' and R2'R2 must have condition numbers at most COND_LIMIT, and
    `right` stores (R2'R2)^{-1} R2', which every projection onto the
    restriction and every restricted limit law multiplies by.
    """

    R1: np.ndarray
    R2: np.ndarray
    theta: np.ndarray
    theta0: np.ndarray | None = None
    right: np.ndarray = field(init=False, repr=False, compare=False)

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
        if np.linalg.cond(r1 @ r1.T) > COND_LIMIT:
            raise RankDeficient("R1 must have full row rank")
        r2tr2 = r2.T @ r2
        if np.linalg.cond(r2tr2) > COND_LIMIT:
            raise RankDeficient("R2 must have full column rank")
        object.__setattr__(self, "right", np.linalg.solve(r2tr2, r2.T))
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
                      seed_b: np.ndarray) -> np.ndarray:
    """Project seed_b onto {B : R1 B R2 = theta + theta0/sqrt(n)}, n = cfg.n.

    Minimum-norm correction: B = seed - R1'(R1 R1')^{-1} (R1 seed R2 - target)
    (R2'R2)^{-1} R2'.  The returned B satisfies the drifting restriction exactly.
    """
    seed_b = np.asarray(seed_b, dtype=float)
    if seed_b.shape != (cfg.p, cfg.q):
        raise DimMismatch(f"seed_b must be {cfg.p}x{cfg.q}, got {seed_b.shape}")
    gap = restr.R1 @ seed_b @ restr.R2 - restr.target(cfg.n)
    left = restr.R1.T @ np.linalg.solve(restr.R1 @ restr.R1.T, gap)
    return seed_b - left @ restr.right


def generate(cfg: ModelConfig, B: np.ndarray, rng: np.random.Generator,
             keep_latent: bool = False) -> Dataset:
    """Draw one dataset of n rows: Z = (M + Psi) B + E and X = M + Psi + Delta.

    E, Delta, Psi have iid entries from the configured family, scaled to the
    configured variances, mutually independent, drawn in that order.
    """
    n = cfg.n
    B = np.asarray(B, dtype=float)
    if B.shape != (cfg.p, cfg.q):
        raise DimMismatch(f"B must be {cfg.p}x{cfg.q}, got {B.shape}")
    m = cfg.design()
    E = math.sqrt(cfg.sigma_eps2) * standardized_draw(cfg.error_family, (n, cfg.q), rng)
    Delta = math.sqrt(cfg.sigma_delta2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    Psi = math.sqrt(cfg.sigma_psi2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    D = m + Psi
    Z = D @ B + E
    X = D + Delta
    return Dataset(Z=Z, X=X, latent=Latent(D, E, Delta, Psi) if keep_latent else None)


def replication_rngs(seed: int, tag: int, start: int,
                     stop: int) -> Iterator[np.random.Generator]:
    """The generators of replications start, ..., stop - 1 of stream `tag`
    under the seeding contract, each made when it is drawn from."""
    return (np.random.default_rng([seed, tag, r]) for r in range(start, stop))


@dataclass(frozen=True)
class RowSampler:
    """X'X and X'Z of datasets drawn exactly as `generate` draws them, bit for
    bit, for a caller that needs only the sufficient statistics of many.

    Each `draw` allocates one set of n-row arrays for E, Delta, Psi and Z and
    every dataset overwrites it: D = M + Psi takes Psi's place and
    X = D + Delta takes Delta's, so a dataset allocates nothing of size n.
    """

    cfg: ModelConfig
    B: np.ndarray
    design: np.ndarray

    def draw(self, rngs: Iterable[np.random.Generator], reps: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """X'X and X'Z, stacked, of `reps` datasets, one from each of `rngs`."""
        cfg = self.cfg
        n, p = self.design.shape
        e, delta, psi, z = (np.empty((n, k)) for k in (cfg.q, p, p, cfg.q))
        xtx, xtz = np.empty((reps, p, p)), np.empty((reps, p, cfg.q))
        scaled = ((e, cfg.sigma_eps2), (delta, cfg.sigma_delta2),
                  (psi, cfg.sigma_psi2))
        for i, rng in zip(range(reps), rngs, strict=True):
            for buf, var in scaled:  # E, then Delta, then Psi, as generate draws
                standardized_draw(cfg.error_family, buf.shape, rng, out=buf)
                buf *= math.sqrt(var)
            d = np.add(self.design, psi, out=psi)
            np.matmul(d, self.B, out=z)
            z += e
            x = np.add(d, delta, out=delta)
            np.matmul(x.T, x, out=xtx[i])
            np.matmul(x.T, z, out=xtz[i])
        return xtx, xtz


@dataclass(frozen=True)
class GaussianSampler:
    """Exact law of W'W for W = [X Z] under gaussian errors.

    The rows of W are independent N(mu_i, Omega), with mean mu = M [I, B] and
    Omega = [[(s_psi + s_delta) I, s_psi B], [s_psi B', s_psi B'B + s_eps I]].
    With M = QR, W'W splits into the independent parts (R [I, B] + Q'G)'(...)
    and a Wishart(n - p, Omega) matrix (Anderson 2003, An Introduction to
    Multivariate Statistical Analysis, section 7.2).
    """

    root: np.ndarray      # R [I, B], p x (p + q)
    factor: np.ndarray    # F with F F' = Omega
    n: int

    def draw(self, rngs: Iterable[np.random.Generator], reps: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """X'X and X'Z, stacked, of `reps` datasets, one from each of `rngs`
        in the draw order of the seeding contract."""
        p, k = self.root.shape
        dof = self.n - p
        bartlett = dof >= k
        low = np.tril_indices(k, -1)
        chi_df = dof - np.arange(k, dtype=float)
        normals = np.empty((reps, p, k))
        # Bartlett: off-diagonal normals, then chi-squares; else Y, (n-p) x k
        tail = np.empty((reps, len(low[0]) + k if bartlett else dof * k))
        for i, rng in zip(range(reps), rngs, strict=True):
            normals[i] = rng.standard_normal((p, k))
            if bartlett:
                tail[i, :-k] = rng.standard_normal(len(low[0]))
                tail[i, -k:] = rng.chisquare(chi_df)
            else:
                tail[i] = rng.standard_normal(dof * k)
        if bartlett:
            a = np.zeros((reps, k, k))
            a[:, low[0], low[1]] = tail[:, :-k]
            a[:, range(k), range(k)] = np.sqrt(tail[:, -k:])
        else:
            a = np.swapaxes(tail.reshape(reps, dof, k), 1, 2)
        del tail  # the stacks scale with reps: hold as few at once as we can
        h = normals @ self.factor.T
        del normals
        h += self.root
        t = self.factor @ a
        del a
        top = np.swapaxes(h[:, :, :p], 1, 2) @ h
        top += t[:, :p] @ np.swapaxes(t, 1, 2)
        return top[:, :, :p], top[:, :, p:]


def stats_sampler(cfg: ModelConfig, B: np.ndarray,
                  design: np.ndarray) -> GaussianSampler | RowSampler:
    """The sampler of X'X and X'Z for datasets of `cfg` with coefficients B
    on the materialized n-row `design`: exact under gaussian errors, row by
    row otherwise, where X'X is not Wishart."""
    if cfg.error_family != "gaussian":
        return RowSampler(cfg, B, design)
    p, q = cfg.p, cfg.q
    s_psi = cfg.sigma_psi2
    omega = np.block([
        [(s_psi + cfg.sigma_delta2) * np.eye(p), s_psi * B],
        [s_psi * B.T, s_psi * (B.T @ B) + cfg.sigma_eps2 * np.eye(q)]])
    r = np.linalg.qr(design, mode="r")
    return GaussianSampler(root=r @ np.hstack([np.eye(p), B]),
                           factor=psd_factor(omega), n=len(design))
