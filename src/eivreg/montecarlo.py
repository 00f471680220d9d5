"""Replication studies: estimate every replication, accumulate scaled errors
and losses, and compare empirical moments against the theoretical limit laws.

A plan projects the true coefficient matrix onto the drifting restriction
and draws the X'X and X'Z of its replications from its stream's key through
`model.draw_stats`, which holds the seeding contract, the chunks and the
pool policy; its model was checked when it was made.  `estimate_batch`
solves every replication of a chunk and labelled estimator (restricted ones
with their named weights) at once, as stacked p-by-p problems, and a
replication that fails one of its checks is excluded with the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .asymptotics import AsymptoticLaw
from .config import RunConfig
from .estimators import ESTIMATOR_LABELS, LAW_LABELS, estimate_batch
from .exceptions import ConfigError, EivregError
from .model import STREAMS, ModelConfig, Restriction, draw_stats, make_restricted_b

MAX_EXCLUDED_FRACTION = 0.01
MEAN_TOL_SE = 4.0  # `compare_law`'s bound on a mean discrepancy, in SEs
COV_TOL_FRO = 0.15  # and on a covariance block's relative Frobenius gap


@dataclass(frozen=True)
class SimulationPlan:
    cfg: ModelConfig
    restr: Restriction
    b_seed: np.ndarray
    reps: int
    key: tuple[int, ...]                  # the stream, (master_seed, tag, ...)
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


def replication_plan(run: RunConfig, estimators: tuple[str, ...]) -> SimulationPlan:
    """The run's replication study of `estimators`, on stream "simulation"."""
    return SimulationPlan(cfg=run.model, restr=run.restriction,
                          b_seed=run.simulation.B_seed, reps=run.simulation.reps,
                          key=(run.simulation.master_seed, STREAMS["simulation"]),
                          estimators=estimators, weight=run.risk.weight)


@dataclass(frozen=True)
class EmpiricalSummary:
    """Per-estimator scaled-error moments from one plan run."""

    labels: tuple[str, ...]
    p: int
    q: int
    errors: np.ndarray                   # (kept reps, len(labels)*p*q), rvec rows
    losses: np.ndarray                   # (kept reps, len(labels)), n tr(D'WD)
    excluded: tuple[int, ...] = ()

    @property
    def rep_count(self) -> int:
        return len(self.errors)

    @property
    def mean_errors(self) -> dict[str, np.ndarray]:
        means = self.errors.mean(axis=0).reshape(len(self.labels), self.p, self.q)
        return dict(zip(self.labels, means))

    @cached_property  # checked for overflow by `run_plan`
    def cov_empirical(self) -> np.ndarray:
        return np.atleast_2d(np.cov(self.errors.T))


def run_plan(plan: SimulationPlan, workers: int = 1) -> EmpiricalSummary:
    """Run all replications; deterministic for a fixed plan at any worker count.

    Chunk contract: replications are drawn, solved and reduced a chunk of
    `model.draw_stats` at a time into scaled errors and losses allocated
    once for every replication, and each replication's numbers do not depend
    on its chunk, so the result is the same, bit for bit, at any chunk size.
    Replications that fail a check of `estimate_batch` are excluded, by
    their index in the plan; more than 1% excluded, over every chunk, is an
    error that quotes the first one's reason.  Scaled errors whose losses or
    covariance overflow are a ConfigError: the truth B is too large.
    """
    n, reps, p = plan.cfg.n, plan.reps, plan.cfg.p
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed)
    w = np.eye(p) if plan.weight is None else plan.weight
    k = len(plan.estimators) * p * plan.cfg.q
    try:
        errors = np.empty((reps, k))
        losses = np.empty((reps, len(plan.estimators)))
    except (MemoryError, ValueError):  # numpy's "array is too big"
        raise ConfigError(f"field 'simulation.reps' = {reps} needs {reps}x{k} scaled "
                          "errors, more than memory holds") from None
    excluded, reasons, kept = [], [], 0
    for start, xtx, xtz in draw_stats(plan.cfg, b_truth, plan.key, reps, workers):
        batch = estimate_batch(xtx, xtz, n, plan.cfg.sigma_delta2, plan.restr,
                               plan.estimators)
        excluded += [start + r for r in batch.excluded]
        reasons += batch.reasons
        dev = np.delete(batch.estimates, batch.excluded, axis=0) - b_truth
        rows = slice(kept, kept + len(dev))
        errors[rows] = math.sqrt(n) * dev.reshape(len(dev), k)
        with np.errstate(over="ignore", invalid="ignore"):
            losses[rows] = n * np.trace(np.swapaxes(dev, -1, -2) @ w @ dev,
                                        axis1=-2, axis2=-1)
        kept += len(dev)
    if len(excluded) > MAX_EXCLUDED_FRACTION * reps:
        raise EivregError(f"{len(excluded)} of {reps} replications were excluded "
                          f"(first: {reasons[0]})")
    errors, losses = errors[:kept], losses[:kept]
    with np.errstate(over="ignore", invalid="ignore"):
        summary = EmpiricalSummary(labels=plan.estimators, p=p, q=plan.cfg.q,
                                   errors=errors, losses=losses, excluded=tuple(excluded))
        if not (np.isfinite(losses).all() and np.isfinite(summary.cov_empirical).all()):
            raise ConfigError(
                "fields 'simulation.B_seed', 'restriction.R1', 'restriction.R2', "
                "'restriction.theta', 'restriction.theta0' and 'model.n' give a truth B "
                "whose scaled errors overflow double precision in their losses or "
                f"covariance at n = {n}")
    return summary


@dataclass(frozen=True)
class LawComparison:
    labels: tuple[str, ...]
    cov_rel_fro: dict[tuple[int, int], float]
    mean_max_se: dict[str, float]

    @property
    def worst_cov(self) -> float:
        return max(self.cov_rel_fro.values())

    @property
    def worst_mean(self) -> float:
        return max(self.mean_max_se.values())

    @property
    def passed(self) -> bool:
        return self.worst_cov <= COV_TOL_FRO and self.worst_mean <= MEAN_TOL_SE


def _scaled_norm(a: np.ndarray) -> tuple[float, int]:
    """(f, e) with ||a|| = f 2^e in the Frobenius norm: f is the norm of a
    scaled by 2^-e, e from max|a|, so it cannot overflow."""
    e = int(np.frexp(np.max(np.abs(a)))[1])
    return float(np.sqrt(np.sum(np.ldexp(a, -e) ** 2))), e  # not BLAS's threaded dot


def _rel_fro(emp: np.ndarray, ref: np.ndarray) -> float:
    """||emp - ref|| / ||ref|| in the Frobenius norm, / 1 when ref = 0, from
    `_scaled_norm`s: a ratio within double precision keeps every bit of the
    unscaled one, and a larger one is inf."""
    (num, e_num), (den, e_den) = _scaled_norm(emp - ref), _scaled_norm(ref)
    with np.errstate(over="ignore"):  # ref = 0 has e_den = 0
        return float(np.ldexp(num / (den if den > 0 else 1.0), e_num - e_den))


def compare_law(summary: EmpiricalSummary, law: AsymptoticLaw) -> LawComparison:
    """Per-block relative Frobenius discrepancy of the covariance grid and
    per-estimator standardized mean discrepancies."""
    if summary.labels != law.labels or (summary.p, summary.q) != (law.p, law.q):
        raise ValueError("summary and law describe different estimator stacks")
    k, m = summary.p * summary.q, len(summary.labels)
    cov = summary.cov_empirical
    cov_rel = {(i, j): _rel_fro(cov[i * k:(i + 1) * k, j * k:(j + 1) * k],
                                law.block(i, j))
               for i in range(m) for j in range(m)}
    se = summary.errors.std(axis=0, ddof=1) / math.sqrt(summary.rep_count)
    diff = np.abs(summary.errors.mean(axis=0) - law.full_mean())
    z = (diff / np.where(se > 0, se, 1.0)).reshape(m, k)
    return LawComparison(labels=summary.labels, cov_rel_fro=cov_rel,
                         mean_max_se=dict(zip(summary.labels, z.max(axis=1).tolist())))
