"""Replication engine: generate datasets, estimate, accumulate scaled errors
and losses, and compare empirical moments against the theoretical limit laws.

A plan runs in three steps:

1. Per plan: the fixed design M is materialized and rank-checked once, and the
   true coefficient matrix is projected onto the drifting restriction.  Under
   gaussian errors the plan also sets up the exact law of the sufficient
   statistics (`GaussianSampler`): M = QR and a factor F of the row
   covariance Omega of W = [X Z].
2. Draw and reduce, depending on the error family:
   - gaussian: replication r draws W'W directly,
     (R [I, B] + Q'G)'(R [I, B] + Q'G) + F A A' F', with Q'G ~ N(0, Omega)
     rows and A A' a Bartlett draw of Wishart(n - p, I); it costs
     O((p + q)^3) whatever n is.
   - every other family: replication r draws E, then Delta, then Psi exactly
     as `generate` does, in the same order, and keeps only X'X and X'Z.  The
     row sampler (`model.RowSampler`) allocates one set of n-row arrays per
     chunk and every replication of the chunk overwrites it.
   With several workers each pool task reduces a contiguous range of
   replications and returns those statistics.
3. Batched estimate: `estimate_batch` solves every replication and every
   estimator at once, as stacked p-by-p problems, in the parent process.
   Its NearSingular checks exclude replications; other failures raise.

Seeding contract: replication r of a plan draws from
``numpy.random.default_rng([master_seed, 0, r])`` (score-covariance estimation
uses stream tag 1, the affine-limit suite tag 2).  Under gaussian errors, with
k = p + q, that one generator yields in order: p*k standard normals (the rows
of Q'G before the factor F), k(k-1)/2 standard normals filling the strictly
lower triangle of A row by row, and k chi-squares with n-p, n-p-1, ...,
n-p-k+1 degrees of freedom whose square roots form A's diagonal.  When
n - p < k the Bartlett form does not exist, and the last two draws are
replaced by (n-p)*k standard normals Y, with A = Y'.  Results are therefore
independent of evaluation order and of the worker count, and reruns are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticLaw
from .estimators import ESTIMATOR_LABELS, estimate_batch
from .exceptions import NearSingular, ShapeMismatch
from .linalg import (AffineTransform, MatrixNormal, psd_factor, rvec,
                     sample_matrix_normal, sym, transform_cov_block)
from .model import ModelConfig, Restriction, RowSampler, make_restricted_b

MAX_EXCLUDED_FRACTION = 0.01


@dataclass(frozen=True)
class SimulationPlan:
    cfg: ModelConfig
    restr: Restriction
    b_seed: np.ndarray
    reps: int
    master_seed: int
    estimators: tuple[str, ...] = ("UE", "B2", "B3", "B4")
    weight: np.ndarray | None = None      # loss weight, identity when None
    generic_weight: np.ndarray | None = None  # fixed weight for the "generic" label
    n: int | None = None

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("reps must be at least 2")
        if not self.estimators:
            raise ValueError("estimator set must be nonempty")
        for lbl in self.estimators:
            if lbl not in ESTIMATOR_LABELS:
                raise ValueError(f"unknown estimator label {lbl!r}")
        if "generic" in self.estimators and self.generic_weight is None:
            raise ValueError("the generic estimator needs generic_weight")
        object.__setattr__(self, "b_seed", np.asarray(self.b_seed, dtype=float))

    @property
    def sample_size(self) -> int:
        return self.cfg.n if self.n is None else self.n


@dataclass(frozen=True)
class EmpiricalSummary:
    """Per-estimator scaled-error moments from one plan run."""

    labels: tuple[str, ...]
    p: int
    q: int
    n: int
    rep_count: int
    errors: np.ndarray                   # (kept reps, len(labels)*p*q), rvec rows
    per_rep_losses: dict[str, np.ndarray]
    excluded: tuple[int, ...] = ()

    @property
    def mean_errors(self) -> dict[str, np.ndarray]:
        k = self.p * self.q
        out = {}
        for i, lbl in enumerate(self.labels):
            out[lbl] = self.errors[:, i * k:(i + 1) * k].mean(axis=0).reshape(self.p, self.q)
        return out

    @property
    def cov_empirical(self) -> np.ndarray:
        return np.atleast_2d(np.cov(self.errors.T))

    def block(self, i: int, j: int) -> np.ndarray:
        k = self.p * self.q
        full = self.cov_empirical
        return full[i * k:(i + 1) * k, j * k:(j + 1) * k]


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

    def draw(self, master_seed: int, start: int, stop: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """X'X and X'Z of replications start, ..., stop - 1, in the draw order
        of the module's seeding contract."""
        p, k = self.root.shape
        dof = self.n - p
        reps = stop - start
        bartlett = dof >= k
        low = np.tril_indices(k, -1)
        chi_df = dof - np.arange(k, dtype=float)
        normals = np.empty((reps, p, k))
        # Bartlett: off-diagonal normals, then chi-squares; else Y, (n-p) x k
        tail = np.empty((reps, len(low[0]) + k if bartlett else dof * k))
        for i, r in enumerate(range(start, stop)):
            rng = np.random.default_rng([master_seed, 0, r])
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


def _gaussian_sampler(cfg: ModelConfig, b_truth: np.ndarray,
                      design: np.ndarray) -> GaussianSampler | None:
    """The plan's exact sampler, or None when the errors are not gaussian:
    their X'X is not Wishart, and such plans use the row sampler."""
    if cfg.error_family != "gaussian":
        return None
    p, q = cfg.p, cfg.q
    s_psi = cfg.sigma_psi2
    omega = np.block([
        [(s_psi + cfg.sigma_delta2) * np.eye(p), s_psi * b_truth],
        [s_psi * b_truth.T, s_psi * (b_truth.T @ b_truth) + cfg.sigma_eps2 * np.eye(q)]])
    r = np.linalg.qr(design, mode="r")
    return GaussianSampler(root=r @ np.hstack([np.eye(p), b_truth]),
                           factor=psd_factor(omega), n=len(design))


def _reduce_chunk(plan: SimulationPlan, design: np.ndarray, b_truth: np.ndarray,
                  sampler: GaussianSampler | None, start: int,
                  stop: int) -> tuple[np.ndarray, np.ndarray]:
    """X'X and X'Z of replications start, ..., stop - 1: drawn directly by
    `sampler` when there is one, else by the row sampler."""
    if sampler is not None:
        return sampler.draw(plan.master_seed, start, stop)
    p, q = plan.cfg.p, plan.cfg.q
    xtx = np.empty((stop - start, p, p))
    xtz = np.empty((stop - start, p, q))
    rows = RowSampler(plan.cfg, b_truth, design)
    for i, r in enumerate(range(start, stop)):
        rows.draw(np.random.default_rng([plan.master_seed, 0, r]), xtx[i], xtz[i])
    return xtx, xtz


def run_plan(plan: SimulationPlan, workers: int = 1) -> EmpiricalSummary:
    """Run all replications; deterministic for a fixed plan at any worker count.

    Replications hitting NearSingular are excluded; more than 1% excluded is an
    error.
    """
    n = plan.sample_size
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed, n=n)
    design = plan.cfg.design(n)
    sampler = _gaussian_sampler(plan.cfg, b_truth, design)
    if workers <= 1 or plan.reps < 4:
        chunks = [(0, plan.reps)]
    else:
        step = max(1, math.ceil(plan.reps / (4 * workers)))
        chunks = [(s, min(s + step, plan.reps)) for s in range(0, plan.reps, step)]
    if len(chunks) == 1:
        parts = [_reduce_chunk(plan, design, b_truth, sampler, *chunks[0])]
    else:
        # imported here: only a pooled run pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_reduce_chunk, plan, design, b_truth, sampler, s, e)
                       for s, e in chunks]
            parts = [f.result() for f in futures]
    batch = estimate_batch(np.concatenate([xtx for xtx, _ in parts]),
                           np.concatenate([xtz for _, xtz in parts]), n,
                           plan.cfg.sigma_delta2, plan.restr, plan.estimators,
                           plan.generic_weight)
    if len(batch.excluded) > MAX_EXCLUDED_FRACTION * plan.reps:
        raise NearSingular(
            f"{len(batch.excluded)} of {plan.reps} replications were near-singular")
    keep = np.ones(plan.reps, dtype=bool)
    keep[list(batch.excluded)] = False
    dev = batch.estimates[keep] - b_truth
    errors = math.sqrt(n) * dev.reshape(len(dev), -1)
    w = np.eye(plan.cfg.p) if plan.weight is None else plan.weight
    losses = n * np.trace(np.swapaxes(dev, -1, -2) @ w @ dev, axis1=-2, axis2=-1)
    per_label = {lbl: losses[:, i].copy() for i, lbl in enumerate(plan.estimators)}
    return EmpiricalSummary(labels=plan.estimators, p=plan.cfg.p, q=plan.cfg.q,
                            n=n, rep_count=int(keep.sum()), errors=errors,
                            per_rep_losses=per_label, excluded=batch.excluded)


@dataclass(frozen=True)
class LawComparison:
    labels: tuple[str, ...]
    cov_rel_fro: dict[tuple[int, int], float]
    mean_max_se: dict[str, float]
    tol_cov: float
    tol_mean_se: float

    @property
    def worst_cov(self) -> float:
        return max(self.cov_rel_fro.values())

    @property
    def worst_mean(self) -> float:
        return max(self.mean_max_se.values())

    @property
    def passed(self) -> bool:
        return self.worst_cov <= self.tol_cov and self.worst_mean <= self.tol_mean_se


def compare_law(summary: EmpiricalSummary, law: AsymptoticLaw,
                tol_cov: float = 0.15, tol_mean_se: float = 4.0) -> LawComparison:
    """Per-block relative Frobenius discrepancy of the covariance grid and
    per-estimator standardized mean discrepancies."""
    if summary.labels != law.labels or (summary.p, summary.q) != (law.p, law.q):
        raise ShapeMismatch("summary and law describe different estimator stacks")
    k = summary.p * summary.q
    cov_rel = {}
    for i in range(len(summary.labels)):
        for j in range(len(summary.labels)):
            ref = law.cov_blocks[(i, j)]
            emp = summary.block(i, j)
            denom = np.linalg.norm(ref)
            cov_rel[(i, j)] = float(np.linalg.norm(emp - ref) /
                                    (denom if denom > 0 else 1.0))
    mean_se = {}
    for i, lbl in enumerate(summary.labels):
        cols = summary.errors[:, i * k:(i + 1) * k]
        se = cols.std(axis=0, ddof=1) / math.sqrt(summary.rep_count)
        diff = np.abs(cols.mean(axis=0) - rvec(law.means[i]))
        mean_se[lbl] = float(np.max(diff / np.where(se > 0, se, 1.0)))
    return LawComparison(labels=summary.labels, cov_rel_fro=cov_rel,
                         mean_max_se=mean_se, tol_cov=tol_cov,
                         tol_mean_se=tol_mean_se)


@dataclass(frozen=True)
class AffineLimitReport:
    """Empirical check that converging affine transforms of a converging
    matrix-normal sequence obey the block covariance formula."""

    m: int
    block_rel_fro: dict[tuple[int, int], float]
    mean_max_se: float
    pair_cross_rel: float
    passed: bool
    tol_cov: float = 0.10
    tol_mean_se: float = 4.0


def _random_transform(p: int, q: int, g: np.random.Generator) -> AffineTransform:
    return AffineTransform(kappa=g.uniform(-1, 1, (p, p)),
                           iota=g.uniform(-1, 1, (q, q)),
                           alpha=g.uniform(-1, 1, (p, p)),
                           beta=g.uniform(-1, 1, (q, q)),
                           rho=g.uniform(-1, 1, (p, q)))


def affine_limit_suite(m: int, seed: int, p: int = 2, q: int = 2,
                       draws: int = 100_000, n_conv: int = 10_000,
                       tol_cov: float = 0.10,
                       tol_mean_se: float = 4.0) -> AffineLimitReport:
    """Build m random affine transforms with coefficients converging at rate
    n^{-1/2}, push a converging matrix-normal sequence through them, and match
    the empirical joint covariance against the block formula and the empirical
    means against the offsets.

    Also verifies the two-transform specialization with an identity first
    component: the cross block must equal lam @ (I + kron(alpha2.T, beta2)).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    g = np.random.default_rng([seed, 2, 0])
    pq = p * q
    f = g.standard_normal((pq, pq))
    lam = sym(f @ f.T) / pq + 0.5 * np.eye(pq)
    transforms = [_random_transform(p, q, g) for _ in range(m)]
    law = MatrixNormal(mean=np.zeros((p, q)), cov=lam)
    y = sample_matrix_normal(law, g, size=draws)
    y = y + g.standard_normal(y.shape) / math.sqrt(n_conv)
    scale = 1.0 / math.sqrt(n_conv)
    stacked = np.empty((draws, m * pq))
    for j, t in enumerate(transforms):
        kap = t.kappa + scale * g.standard_normal((draws, p, p))
        iot = t.iota + scale * g.standard_normal((draws, q, q))
        alp = t.alpha + scale * g.standard_normal((draws, p, p))
        bet = t.beta + scale * g.standard_normal((draws, q, q))
        rho = t.rho + scale * g.standard_normal((draws, p, q))
        val = np.einsum("rab,rbc,rcd->rad", kap, y, iot) \
            + np.einsum("rab,rbc,rcd->rad", alp, y, bet) + rho
        stacked[:, j * pq:(j + 1) * pq] = val.reshape(draws, pq)
    emp_cov = np.cov(stacked.T)
    block_rel = {}
    for i in range(m):
        for j in range(m):
            ref = transform_cov_block(transforms[i], transforms[j], lam)
            emp = emp_cov[i * pq:(i + 1) * pq, j * pq:(j + 1) * pq]
            denom = np.linalg.norm(ref)
            block_rel[(i, j)] = float(np.linalg.norm(emp - ref) /
                                      (denom if denom > 0 else 1.0))
    se = stacked.std(axis=0, ddof=1) / math.sqrt(draws)
    target = np.concatenate([rvec(t.rho) for t in transforms])
    mean_max = float(np.max(np.abs(stacked.mean(axis=0) - target) / se))

    # identity-first pair: the cross block gains the transposed-lift factor
    # and the second diagonal block is the two-sided lift of the score cov
    t_pair = AffineTransform(kappa=np.eye(p), iota=np.eye(q),
                             alpha=transforms[0].alpha, beta=transforms[0].beta,
                             rho=transforms[0].rho)
    base = y.reshape(draws, pq)
    second = (y + np.einsum("ab,rbc,cd->rad", t_pair.alpha, y, t_pair.beta)
              + t_pair.rho).reshape(draws, pq)
    joint = np.cov(np.hstack([base, second]).T)
    lift2 = np.eye(pq) + np.kron(t_pair.alpha, t_pair.beta.T)
    v12_ref = lam + lam @ np.kron(t_pair.alpha.T, t_pair.beta)
    v22_ref = lift2 @ lam @ lift2.T
    pair_rel = max(
        float(np.linalg.norm(joint[:pq, pq:] - v12_ref) / np.linalg.norm(v12_ref)),
        float(np.linalg.norm(joint[pq:, pq:] - v22_ref) / np.linalg.norm(v22_ref)))

    passed = (max(block_rel.values()) <= tol_cov and mean_max <= tol_mean_se
              and pair_rel <= tol_cov)
    return AffineLimitReport(m=m, block_rel_fro=block_rel, mean_max_se=mean_max,
                             pair_cross_rel=pair_rel, passed=passed,
                             tol_cov=tol_cov, tol_mean_se=tol_mean_se)

