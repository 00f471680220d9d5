"""Replication engine: generate datasets, estimate, accumulate scaled errors
and losses, and compare empirical moments against the theoretical limit laws.

A plan materializes and rank-checks the fixed design M once, projects the
true coefficient matrix onto the drifting restriction, and draws the X'X and
X'Z of replication r through `model.stats_sampler` from stream tag 0 of the
seeding contract in `model`.  Row-sampler plans (the non-gaussian families)
are split into ranges of replications, one pool task each, when several
workers are asked for; exact-sampler plans run in-process at any worker
count, since a replication costs tens of microseconds there, less than
shipping it to a worker.  `estimate_batch` then solves every replication and
estimator at once, as stacked p-by-p problems; its NearSingular checks
exclude replications, other failures raise.  Results are independent of
evaluation order and of the worker count, and reruns are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticLaw
from .estimators import ESTIMATOR_LABELS, LAW_LABELS, estimate_batch
from .exceptions import NearSingular, ShapeMismatch
from .linalg import (AffineTransform, MatrixNormal, rvec, sample_matrix_normal,
                     sym, transform_cov_block)
from .model import (GaussianSampler, ModelConfig, Restriction, RowSampler,
                    make_restricted_b, replication_rngs, stats_sampler)

MAX_EXCLUDED_FRACTION = 0.01


@dataclass(frozen=True)
class SimulationPlan:
    cfg: ModelConfig
    restr: Restriction
    b_seed: np.ndarray
    reps: int
    master_seed: int
    estimators: tuple[str, ...] = LAW_LABELS
    weight: np.ndarray | None = None      # loss weight, identity when None
    generic_weight: np.ndarray | None = None  # fixed weight for the "generic" label

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


@dataclass(frozen=True)
class EmpiricalSummary:
    """Per-estimator scaled-error moments from one plan run."""

    labels: tuple[str, ...]
    p: int
    q: int
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


def _reduce_chunk(sampler: GaussianSampler | RowSampler, master_seed: int,
                  start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """X'X and X'Z of replications start, ..., stop - 1 of a plan."""
    return sampler.draw(replication_rngs(master_seed, 0, start, stop),
                        stop - start)


def run_plan(plan: SimulationPlan, workers: int = 1) -> EmpiricalSummary:
    """Run all replications; deterministic for a fixed plan at any worker count.

    Replications hitting NearSingular are excluded; more than 1% excluded is an
    error.
    """
    n = plan.cfg.n
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed)
    sampler = stats_sampler(plan.cfg, b_truth, plan.cfg.design())
    if workers <= 1 or plan.reps < 4 or isinstance(sampler, GaussianSampler):
        parts = [_reduce_chunk(sampler, plan.master_seed, 0, plan.reps)]
    else:
        step = max(1, math.ceil(plan.reps / (4 * workers)))
        # imported here: only a pooled run pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_reduce_chunk, sampler, plan.master_seed, s,
                                   min(s + step, plan.reps))
                       for s in range(0, plan.reps, step)]
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
                            rep_count=int(keep.sum()), errors=errors,
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
    cov = summary.cov_empirical
    cov_rel = {}
    for i in range(len(summary.labels)):
        for j in range(len(summary.labels)):
            ref = law.cov_blocks[(i, j)]
            emp = cov[i * k:(i + 1) * k, j * k:(j + 1) * k]
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

