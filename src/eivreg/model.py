"""Ultrastructural measurement-error model: observed responses Z = D B + E and
observed predictors X = D + Delta, with latent design D = M + Psi.

Synthetic data generators honour the moment structure of the three error
arrays (iid entries, mean zero, known variances, family-specific skewness and
excess kurtosis) and keep the fixed design M frozen across replications.

Everything that depends on the sample size n reads it from the `ModelConfig`;
the same model at another sample size is ``cfg.at_n(n)``.

Replication studies and the score-covariance Monte Carlo check need only the
sufficient statistics X'X and X'Z of each dataset, all drawn by `draw_stats`
in block-aligned ranges; it decides when they are drawn on a pool of
threads.  `stats_sampler` draws them from their exact law under gaussian
errors at n >= 2p + q (`GaussianSampler`, (R [I, B] + Q'G)' (R [I, B] + Q'G)
+ F A A' F' with M = QR and A Bartlett's factor), at a cost that does not
depend on n, and from datasets drawn as `generate` draws them otherwise
(`RowSampler`).

Seeding contract: block b of stream `tag`, replications 64b, ..., 64b + 63
(BLOCK = 64), draws from ``numpy.random.default_rng([master_seed, tag, b])``
(`block_rngs`).  Replication studies use tag 0, score-covariance estimation
tag 1, and criterion 8's random instances tag 2.  Under gaussian errors at
n - p >= k = p + q, the generator of a block of m replications of tags 0
and 1 yields in order, replication by replication within each draw: m*p*k
standard normals (the rows of Q'G before the factor F), m*k(k-1)/2 standard
normals (the strictly lower triangle of A, row by row), and m*k chi-squares
with n-p, ..., n-p-k+1 degrees of freedom whose square roots form A's
diagonal.  Otherwise a block's datasets draw one after another as
`generate` draws them.  Results are independent of evaluation order and of
the worker count, and reruns are bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .exceptions import ConfigError
from .linalg import (ATTENUATION_FLOOR, eig_extremes, ill_conditioned, psd_factor,
                     solvable, sym)

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
            raise ConfigError(f"field 'M.kind' must be 'uniform', got {self.kind!r}")
        g = np.random.default_rng(self.seed)
        return g.uniform(self.low, self.high, size=(n, p))


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, variance components, error family and fixed design M, checked
    when the model is made: M'M is finite, M has full column rank and sigma_delta^2
    < ch_min(sigma), for `sigma` the limit of X'X/n and `mbar` M's column means."""

    n: int
    p: int
    q: int
    sigma_eps2: float
    sigma_delta2: float
    sigma_psi2: float
    error_family: str = "gaussian"
    M: np.ndarray | DesignRule = field(default_factory=DesignRule)
    n_field: InitVar[str] = "model.n"  # the setting n is read from
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    mbar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, n_field: str):
        for name, low in (("p", 1), ("q", 1), ("n", self.p + 1), ("sigma_eps2", 0),
                          ("sigma_delta2", 0), ("sigma_psi2", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"field 'model.{name}' must be at least {low}, "
                                  f"got {getattr(self, name)}")
        if self.error_family not in ERROR_FAMILIES:
            raise ConfigError(f"field 'model.error_family' must be one of "
                              f"{', '.join(ERROR_FAMILIES)}, got {self.error_family!r}")
        if not isinstance(self.M, DesignRule):
            m = np.asarray(self.M, dtype=float)
            if m.shape != (self.n, self.p):
                raise ConfigError(f"field 'model.M' must be {self.n}x{self.p}, "
                                  f"got {m.shape}")
            object.__setattr__(self, "M", m)
        try:
            m = self.design()
        except ConfigError:
            raise
        except (MemoryError, ValueError):  # numpy's "array is too big"
            raise ConfigError(f"field '{n_field}' = {self.n} needs a {self.n}x{self.p} "
                              "design M, more than memory holds") from None
        with np.errstate(over="ignore", invalid="ignore"):
            mtm = sym(m.T @ m)
            if not np.isfinite(mtm).all():
                raise ConfigError("field 'model.M' is too large: M'M "
                                  "overflows double precision")
        if np.linalg.matrix_rank(m) < self.p:
            raise ConfigError("field 'model.M' does not have full column rank")
        sigma = mtm / self.n + (self.sigma_psi2 + self.sigma_delta2) * np.eye(self.p)
        ch_min, ch_max = eig_extremes(sigma)
        if ch_min - self.sigma_delta2 <= ATTENUATION_FLOOR * ch_max:
            raise ConfigError(f"field 'model.sigma_delta2' = {self.sigma_delta2} reaches "
                              f"ch_min(sigma) = {ch_min:.3e} of the design at n = {self.n}; "
                              "the corrected estimator's limit scale is not PD")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mbar", m.mean(axis=0))

    def design(self) -> np.ndarray:
        """Materialize M, n x p."""
        return (self.M.rows(self.n, self.p) if isinstance(self.M, DesignRule)
                else self.M)

    def at_n(self, n: int, n_field: str = "model.n") -> "ModelConfig":
        """The same model at sample size n, the one way to change it, read
        from the setting `n_field`; an explicit M is fixed at its own number
        of rows."""
        if n != self.n and not isinstance(self.M, DesignRule):
            raise ConfigError(f"field 'model.M' is an explicit matrix with "
                              f"{self.n} rows and cannot be redrawn at n = {n}")
        return replace(self, n=n, n_field=n_field)


@dataclass(frozen=True)
class Restriction:
    """Linear restriction R1 @ B @ R2 = theta with local direction theta0.

    Every field must be finite, R1 R1' and R2'R2 must not be
    `ill_conditioned`, and `right` stores (R2'R2)^{-1} R2', which `project`,
    the one projection onto the restriction, and every restricted limit law
    multiply by.
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
            raise ValueError(
                f"theta must be {r1.shape[0]}x{r2.shape[1]}, got {th.shape}")
        if t0.shape != th.shape:
            raise ValueError("theta0 must have the same shape as theta")
        for name, value in (("R1", r1), ("R2", r2), ("theta", th), ("theta0", t0)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if ill_conditioned(r1 @ r1.T):
            raise ValueError("R1 must have full row rank")
        r2tr2 = r2.T @ r2
        if ill_conditioned(r2tr2):
            raise ValueError("R2 must have full column rank")
        object.__setattr__(self, "right", np.linalg.solve(r2tr2, r2.T))

    def with_theta0(self, theta0: np.ndarray) -> "Restriction":
        return Restriction(self.R1, self.R2, self.theta, theta0)

    def target(self, n: int) -> np.ndarray:
        """theta + theta0 / sqrt(n), the drifting restriction value at size n."""
        return self.theta + self.theta0 / math.sqrt(n)

    def project(self, b: np.ndarray, target: np.ndarray,
                weight: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """b (p x q, or a stack (..., p, q)) moved onto R1 B R2 = target by
        S^{-1} R1' (R1 S^{-1} R1')^{-1} (R1 b R2 - target) (R2'R2)^{-1} R2',
        for a positive definite weight S of matching shape, I by default.
        Also returns whether each R1 S^{-1} R1' is `ill_conditioned`; the
        identity stands in for a flagged one, so a stacked solve never raises."""
        if weight is None:
            sinv_r1t = self.R1.T  # not a solve against I, which moves bits
        else:
            # an explicit stack of right-hand sides: numpy < 2 reads a 2-d b
            # against a 3-d a as a stack of vectors
            sinv_r1t = np.linalg.solve(weight, np.broadcast_to(
                self.R1.T, weight.shape[:-2] + self.R1.T.shape))
        gram = self.R1 @ sinv_r1t
        singular = ill_conditioned(gram)
        gap = self.R1 @ b @ self.R2 - target
        step = np.linalg.solve(solvable(gram, singular), gap)
        return b - sinv_r1t @ step @ self.right, singular

    def gap(self, b: np.ndarray) -> float:
        """Frobenius distance of R1 @ b @ R2 from theta."""
        return float(np.linalg.norm(self.R1 @ b @ self.R2 - self.theta))


@dataclass(frozen=True)
class Dataset:
    Z: np.ndarray
    X: np.ndarray


def make_restricted_b(cfg: ModelConfig, restr: Restriction,
                      seed_b: np.ndarray) -> np.ndarray:
    """seed_b projected onto the drifting restriction R1 B R2 = theta +
    theta0/sqrt(n) at n = cfg.n, which the result satisfies exactly."""
    seed_b = np.asarray(seed_b, dtype=float)
    if seed_b.shape != (cfg.p, cfg.q):
        raise ValueError(f"seed_b must be {cfg.p}x{cfg.q}, got {seed_b.shape}")
    return restr.project(seed_b, restr.target(cfg.n))[0]


def generate(cfg: ModelConfig, B: np.ndarray, rng: np.random.Generator) -> Dataset:
    """Draw one dataset of n rows: Z = (M + Psi) B + E and X = M + Psi + Delta.

    E, Delta, Psi have iid entries from the configured family, scaled to the
    configured variances, mutually independent, drawn in that order.
    """
    n = cfg.n
    B = np.asarray(B, dtype=float)
    if B.shape != (cfg.p, cfg.q):
        raise ValueError(f"B must be {cfg.p}x{cfg.q}, got {B.shape}")
    m = cfg.design()
    E = math.sqrt(cfg.sigma_eps2) * standardized_draw(cfg.error_family, (n, cfg.q), rng)
    Delta = math.sqrt(cfg.sigma_delta2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    Psi = math.sqrt(cfg.sigma_psi2) * standardized_draw(cfg.error_family, (n, cfg.p), rng)
    D = m + Psi
    Z = D @ B + E
    X = D + Delta
    return Dataset(Z=Z, X=X)


BLOCK = 64  # replications per generator of the seeding contract


def block_rngs(seed: int, tag: int, start: int,
               stop: int) -> Iterator[np.random.Generator]:
    """The generators of the blocks covering replications start, ...,
    stop - 1 of stream `tag`, each made when it is drawn from."""
    if start % BLOCK:
        raise ValueError(f"replication {start} is not on a block boundary")
    return (np.random.default_rng([seed, tag, b])
            for b in range(start // BLOCK, -(-stop // BLOCK)))


@dataclass(frozen=True)
class RowSampler:
    """X'X and X'Z of datasets drawn exactly as `generate` draws them, bit for
    bit, for a caller that needs only the sufficient statistics of many.

    M is drawn once, when the sampler is made, and every `draw` shares it.
    Each `draw` allocates one set of n-row arrays for E, Delta, Psi and Z and
    every dataset overwrites it: D = M + Psi takes Psi's place and
    X = D + Delta takes Delta's, so a dataset allocates nothing of size n.
    """

    cfg: ModelConfig
    B: np.ndarray
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "design", self.cfg.design())

    def draw(self, rngs: Iterable[np.random.Generator], reps: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """X'X and X'Z, stacked, of `reps` datasets, a block from each of `rngs`."""
        cfg, design = self.cfg, self.design
        n, p = design.shape
        e, delta, psi, z = (np.empty((n, k)) for k in (cfg.q, p, p, cfg.q))
        xtx, xtz = np.empty((reps, p, p)), np.empty((reps, p, cfg.q))
        scaled = ((e, cfg.sigma_eps2), (delta, cfg.sigma_delta2),
                  (psi, cfg.sigma_psi2))
        for lo, rng in zip(range(0, reps, BLOCK), rngs, strict=True):
            for i in range(lo, min(lo + BLOCK, reps)):
                for buf, var in scaled:  # E, Delta, Psi, as generate draws
                    standardized_draw(cfg.error_family, buf.shape, rng, out=buf)
                    buf *= math.sqrt(var)
                d = np.add(design, psi, out=psi)
                np.matmul(d, self.B, out=z)
                z += e
                x = np.add(d, delta, out=delta)
                np.matmul(x.T, x, out=xtx[i])
                np.matmul(x.T, z, out=xtz[i])
        return xtx, xtz


@dataclass(frozen=True)
class GaussianSampler:
    """Exact law of W'W for W = [X Z] under gaussian errors, at n - p >= p + q.

    The rows of W are independent N(mu_i, Omega), with mean mu = M [I, B] and
    Omega = [[(s_psi + s_delta) I, s_psi B], [s_psi B', s_psi B'B + s_eps I]].
    With M = QR, W'W splits into the independent parts (R [I, B] + Q'G)'(...)
    and a Wishart(n - p, Omega) matrix F A A' F', A by Bartlett's decomposition
    (Anderson 2003, An Introduction to Multivariate Statistical Analysis, 7.2).
    """

    root: np.ndarray      # R [I, B], p x (p + q)
    factor: np.ndarray    # F with F F' = Omega
    n: int

    def draw(self, rngs: Iterable[np.random.Generator], reps: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """X'X and X'Z, stacked, of `reps` datasets, a block from each of `rngs`
        in the draw order of the seeding contract."""
        p, k = self.root.shape
        low, diag = np.tril_indices(k, -1), np.diag_indices(k)
        normals = np.empty((reps, p, k))
        a = np.zeros((reps, k, k))
        for lo, rng in zip(range(0, reps, BLOCK), rngs, strict=True):
            m = min(BLOCK, reps - lo)
            rng.standard_normal(out=normals[lo:lo + m])
            a[lo:lo + m, low[0], low[1]] = rng.standard_normal((m, len(low[0])))
            a[lo:lo + m, diag[0], diag[1]] = np.sqrt(
                rng.chisquare(self.n - p - np.arange(k), (m, k)))
        # the stacks scale with reps: hold as few at once as we can
        h = normals @ self.factor.T
        del normals
        h += self.root
        t = self.factor @ a
        del a
        top = np.swapaxes(h[:, :, :p], 1, 2) @ h
        top += t[:, :p] @ np.swapaxes(t, 1, 2)
        return top[:, :, :p], top[:, :, p:]


def stats_sampler(cfg: ModelConfig, B: np.ndarray) -> GaussianSampler | RowSampler:
    """The sampler of X'X and X'Z for datasets of `cfg` with coefficients B:
    exact under gaussian errors where Bartlett's decomposition holds, row by
    row otherwise."""
    p, q = cfg.p, cfg.q
    if cfg.error_family != "gaussian" or cfg.n - p < p + q:
        return RowSampler(cfg, B)
    s_psi, s = cfg.sigma_psi2, cfg.sigma_psi2 + cfg.sigma_delta2
    # Omega's block Cholesky factor: F F' has the X block s I at any Z scale
    lower = s_psi / math.sqrt(s) * B.T if s > 0 else np.zeros((q, p))
    cond = (s_psi / s * cfg.sigma_delta2 if s > 0 else 0.0) * (B.T @ B)
    factor = np.block([[math.sqrt(s) * np.eye(p), np.zeros((p, q))],
                       [lower, psd_factor(cond + cfg.sigma_eps2 * np.eye(q))]])
    r = np.linalg.qr(cfg.design(), mode="r")
    return GaussianSampler(root=r @ np.hstack([np.eye(p), B]),
                           factor=factor, n=cfg.n)


def draw_stats(sampler: GaussianSampler | RowSampler, seed: int, tag: int,
               start: int, stop: int, workers: int = 1
               ) -> tuple[np.ndarray, np.ndarray]:
    """X'X and X'Z, stacked, of replications start, ..., stop - 1 of stream
    `tag`, drawn by `sampler` (from `stats_sampler`, made once for all the
    ranges a caller draws).

    Chunk contract: `start` is on a block boundary, so a range draws the
    rows that the whole stream 0, ..., stop - 1 would draw for it, bit for
    bit; a caller may draw a long stream in consecutive ranges and hold only
    one range's stacks at a time.

    Pool policy: with several workers, a non-gaussian draw of more than one
    block is split into ranges of whole blocks, about four per worker, one
    task each on a pool of threads, which numpy's fills and products let run
    at once.  Gaussian draws, exact or of a few rows at n < 2p + q, cost
    less than a pool's start: they and single blocks run in the calling
    thread.  Ranges start on block boundaries, so the draws do not depend on
    the workers.
    """
    reps = stop - start
    gaussian = (isinstance(sampler, GaussianSampler)
                or sampler.cfg.error_family == "gaussian")
    if workers <= 1 or reps <= BLOCK or gaussian:
        return sampler.draw(block_rngs(seed, tag, start, stop), reps)
    step = BLOCK * math.ceil(reps / (4 * workers * BLOCK))
    # imported here: only a pooled draw pays for the pool
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda lo: sampler.draw(
            block_rngs(seed, tag, lo, min(lo + step, stop)), min(step, stop - lo)),
            range(start, stop, step)))
    return tuple(map(np.concatenate, zip(*parts)))
