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
labelled estimator (restricted ones with their named weights) at once, as
stacked p-by-p problems; a replication that fails one of its checks is
excluded with the reason.  Results are independent of evaluation order and
of the worker count, and reruns are bit-reproducible.

The affine-limit suite (stream tag 2) checks the block law A_i lam A_j' itself
through `compare_law`, with the lifts of random affine transforms as the maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticLaw
from .estimators import ESTIMATOR_LABELS, LAW_LABELS, estimate_batch
from .exceptions import NearSingular, ShapeMismatch
from .linalg import AffineTransform, psd_factor, rvec, sym
from .model import (GaussianSampler, ModelConfig, Restriction, RowSampler,
                    make_restricted_b, replication_rngs, stats_sampler)

MAX_EXCLUDED_FRACTION = 0.01
MEAN_TOL_SE = 4.0  # `compare_law`'s bound on a mean discrepancy, in SEs


@dataclass(frozen=True)
class SimulationPlan:
    cfg: ModelConfig
    restr: Restriction
    b_seed: np.ndarray
    reps: int
    master_seed: int
    estimators: tuple[str, ...] = LAW_LABELS
    weight: np.ndarray | None = None      # loss weight, identity when None

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("reps must be at least 2")
        if not self.estimators:
            raise ValueError("estimator set must be nonempty")
        for lbl in self.estimators:
            if lbl not in ESTIMATOR_LABELS:
                raise ValueError(f"unknown estimator label {lbl!r}")
        object.__setattr__(self, "b_seed", np.asarray(self.b_seed, dtype=float))


@dataclass(frozen=True)
class EmpiricalSummary:
    """Per-estimator scaled-error moments from one plan run."""

    labels: tuple[str, ...]
    p: int
    q: int
    errors: np.ndarray                   # (kept reps, len(labels)*p*q), rvec rows
    per_rep_losses: dict[str, np.ndarray]
    excluded: tuple[int, ...] = ()

    @property
    def rep_count(self) -> int:
        return len(self.errors)

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

    Replications that fail a check of `estimate_batch` are excluded; more than
    1% excluded is an error that quotes the first one's reason.
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
                           plan.cfg.sigma_delta2, plan.restr, plan.estimators)
    if len(batch.excluded) > MAX_EXCLUDED_FRACTION * plan.reps:
        raise NearSingular(
            f"{len(batch.excluded)} of {plan.reps} replications were excluded "
            f"(first: {batch.reasons[0]})")
    keep = np.ones(plan.reps, dtype=bool)
    keep[list(batch.excluded)] = False
    dev = batch.estimates[keep] - b_truth
    errors = math.sqrt(n) * dev.reshape(len(dev), -1)
    w = np.eye(plan.cfg.p) if plan.weight is None else plan.weight
    losses = n * np.trace(np.swapaxes(dev, -1, -2) @ w @ dev, axis1=-2, axis2=-1)
    per_label = {lbl: losses[:, i].copy() for i, lbl in enumerate(plan.estimators)}
    return EmpiricalSummary(labels=plan.estimators, p=plan.cfg.p, q=plan.cfg.q,
                            errors=errors, per_rep_losses=per_label,
                            excluded=batch.excluded)


@dataclass(frozen=True)
class LawComparison:
    labels: tuple[str, ...]
    cov_rel_fro: dict[tuple[int, int], float]
    mean_max_se: dict[str, float]
    tol_cov: float

    @property
    def worst_cov(self) -> float:
        return max(self.cov_rel_fro.values())

    @property
    def worst_mean(self) -> float:
        return max(self.mean_max_se.values())

    @property
    def passed(self) -> bool:
        return self.worst_cov <= self.tol_cov and self.worst_mean <= MEAN_TOL_SE


def _rel_fro(emp: np.ndarray, ref: np.ndarray) -> float:
    """||emp - ref|| / ||ref|| in the Frobenius norm, / 1 when ref = 0."""
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(emp - ref) / (denom if denom > 0 else 1.0))


def compare_law(summary: EmpiricalSummary, law: AsymptoticLaw,
                tol_cov: float = 0.15) -> LawComparison:
    """Per-block relative Frobenius discrepancy of the covariance grid and
    per-estimator standardized mean discrepancies."""
    if summary.labels != law.labels or (summary.p, summary.q) != (law.p, law.q):
        raise ShapeMismatch("summary and law describe different estimator stacks")
    k, m = summary.p * summary.q, len(summary.labels)
    cov = summary.cov_empirical
    cov_rel = {(i, j): _rel_fro(cov[i * k:(i + 1) * k, j * k:(j + 1) * k],
                                law.block(i, j))
               for i in range(m) for j in range(m)}
    mean_se = {}
    for i, lbl in enumerate(summary.labels):
        cols = summary.errors[:, i * k:(i + 1) * k]
        se = cols.std(axis=0, ddof=1) / math.sqrt(summary.rep_count)
        diff = np.abs(cols.mean(axis=0) - rvec(law.means[i]))
        mean_se[lbl] = float(np.max(diff / np.where(se > 0, se, 1.0)))
    return LawComparison(labels=summary.labels, cov_rel_fro=cov_rel,
                         mean_max_se=mean_se, tol_cov=tol_cov)


# affine-limit suite: AFFINE_M transforms of p-by-q matrices whose coefficients
# converge at rate AFFINE_N_CONV^{-1/2}, and its covariance tolerance
AFFINE_M, AFFINE_P, AFFINE_Q, AFFINE_N_CONV = 3, 2, 2, 10_000
AFFINE_TOL_COV = 0.10


def _random_transform(p: int, q: int, g: np.random.Generator) -> AffineTransform:
    return AffineTransform(kappa=g.uniform(-1, 1, (p, p)),
                           iota=g.uniform(-1, 1, (q, q)),
                           alpha=g.uniform(-1, 1, (p, p)),
                           beta=g.uniform(-1, 1, (q, q)),
                           rho=g.uniform(-1, 1, (p, q)))


def affine_limit_suite(seed: int,
                       draws: int = 100_000) -> tuple[LawComparison, float]:
    """Push a converging matrix-normal sequence through AFFINE_M random affine
    transforms with converging coefficients, and `compare_law` the draws with
    the `AsymptoticLaw` whose maps are the lifts and whose means the offsets.

    Also checks the two-transform specialization with an identity first
    component: the cross block must equal lam @ (I + kron(alpha2.T, beta2)).
    Returns the comparison and that pair's worst relative Frobenius gap.
    """
    m, p, q, n_conv = AFFINE_M, AFFINE_P, AFFINE_Q, AFFINE_N_CONV
    g = np.random.default_rng([seed, 2, 0])
    pq = p * q
    f = g.standard_normal((pq, pq))
    lam = sym(f @ f.T) / pq + 0.5 * np.eye(pq)
    transforms = [_random_transform(p, q, g) for _ in range(m)]
    y = (g.standard_normal((draws, pq)) @ psd_factor(lam).T).reshape(draws, p, q)
    y = y + g.standard_normal(y.shape) / math.sqrt(n_conv)
    scale = 1.0 / math.sqrt(n_conv)
    stacked = np.empty((draws, m * pq))
    for j, t in enumerate(transforms):
        kap = t.kappa + scale * g.standard_normal((draws, p, p))
        iot = t.iota + scale * g.standard_normal((draws, q, q))
        alp = t.alpha + scale * g.standard_normal((draws, p, p))
        bet = t.beta + scale * g.standard_normal((draws, q, q))
        rho = t.rho + scale * g.standard_normal((draws, p, q))
        val = kap @ y @ iot + alp @ y @ bet + rho
        stacked[:, j * pq:(j + 1) * pq] = val.reshape(draws, pq)
    labels = tuple(f"T{j + 1}" for j in range(m))
    law = AsymptoticLaw(labels=labels, p=p, q=q,
                        means=tuple(t.rho for t in transforms),
                        maps=tuple(t.lift() for t in transforms), lam=lam)
    summary = EmpiricalSummary(labels=labels, p=p, q=q, errors=stacked,
                               per_rep_losses={})
    cmp = compare_law(summary, law, tol_cov=AFFINE_TOL_COV)

    # identity-first pair: the cross block gains the transposed-lift factor
    # and the second diagonal block is the two-sided lift of the score cov
    t_pair = AffineTransform(kappa=np.eye(p), iota=np.eye(q),
                             alpha=transforms[0].alpha, beta=transforms[0].beta,
                             rho=transforms[0].rho)
    base = y.reshape(draws, pq)
    second = (y + t_pair.alpha @ y @ t_pair.beta + t_pair.rho).reshape(draws, pq)
    joint = np.cov(np.hstack([base, second]).T)
    lift2 = np.eye(pq) + np.kron(t_pair.alpha, t_pair.beta.T)
    v12_ref = lam + lam @ np.kron(t_pair.alpha.T, t_pair.beta)
    v22_ref = lift2 @ lam @ lift2.T
    pair_rel = max(_rel_fro(joint[:pq, pq:], v12_ref),
                   _rel_fro(joint[pq:, pq:], v22_ref))
    return cmp, pair_rel
