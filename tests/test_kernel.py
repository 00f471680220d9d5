"""The batched replication kernel against per-replication reference loops built
from the public one-dataset functions."""

import math

import numpy as np
import pytest

from eivreg.asymptotics import estimate_score_cov, population, score_sample
from eivreg.estimators import build_kx, estimate_batch, lse, restricted
from eivreg.exceptions import NearSingular, NotPD
from eivreg.linalg import rvec, sym
from eivreg.model import (ERROR_FAMILIES, DesignRule, ModelConfig, Restriction,
                          generate, make_restricted_b)
from eivreg.montecarlo import SimulationPlan, run_plan

RESTR = Restriction(R1=[[1.0, -0.5, 0.25]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])
B_SEED = np.array([[1.6, 0.8], [-0.5, 1.3], [0.4, -0.7]])
LABELS = ("LSE", "UE", "B2", "B3", "B4", "generic")
GENERIC_WEIGHT = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
LOSS_WEIGHT = np.diag([1.0, 2.0, 0.5])


def _cfg(**kw):
    base = dict(n=200, p=3, q=2, sigma_eps2=2.0, sigma_delta2=0.5,
                sigma_psi2=0.5, M=DesignRule(low=-4, high=4, seed=1848))
    base.update(kw)
    return ModelConfig(**base)


def _plan(cfg, **kw):
    base = dict(cfg=cfg, restr=RESTR, b_seed=B_SEED, reps=24, master_seed=41,
                estimators=LABELS, weight=LOSS_WEIGHT,
                generic_weight=GENERIC_WEIGHT)
    base.update(kw)
    return SimulationPlan(**base)


def _reference(plan):
    """One dataset at a time: generate, then lse / build_kx / restricted."""
    n = plan.sample_size
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed, n=n)
    w = np.eye(plan.cfg.p) if plan.weight is None else plan.weight
    errors, losses, excluded = [], [], []
    for r in range(plan.reps):
        ds = generate(plan.cfg, b_truth, np.random.default_rng([plan.master_seed, 0, r]),
                      n=n)
        try:
            att = build_kx(ds.X, plan.cfg.sigma_delta2)
            b1 = np.linalg.solve(att.n * att.sigma_d, ds.X.T @ ds.Z)
            weights = {"B2": att.n * att.sigma_d, "B3": att.n * att.sigma_x,
                       "B4": float(n) * np.eye(plan.cfg.p),
                       "generic": plan.generic_weight}
            est = [lse(ds.X, ds.Z) if lbl == "LSE" else b1 if lbl == "UE"
                   else restricted(b1, weights[lbl], plan.restr)
                   for lbl in plan.estimators]
        except NearSingular:
            excluded.append(r)
            continue
        devs = [e - b_truth for e in est]
        errors.append(np.concatenate([math.sqrt(n) * rvec(d) for d in devs]))
        losses.append([n * float(np.trace(d.T @ w @ d)) for d in devs])
    return np.array(errors), np.array(losses), tuple(excluded)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_run_plan_matches_reference_loop(family):
    plan = _plan(_cfg(error_family=family))
    errors, losses, excluded = _reference(plan)
    for workers in (1, 2):
        summary = run_plan(plan, workers=workers)
        np.testing.assert_array_equal(summary.errors, errors)
        assert summary.excluded == excluded == ()
        for i, lbl in enumerate(LABELS):
            np.testing.assert_allclose(summary.per_rep_losses[lbl], losses[:, i],
                                       rtol=1e-12, atol=0)


def test_excluded_replications_match_reference_loop():
    # sigma_delta2 close to ch_min(sigma): a few plug-in sigma_d lose
    # definiteness, fewer than the 1% cap
    cfg = _cfg(n=60, p=2, sigma_eps2=1.0, sigma_psi2=0.36,
               M=DesignRule(low=-0.5, high=0.5, seed=1848))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                        theta0=[[0.9]])
    plan = _plan(cfg, restr=restr, b_seed=B_SEED[:2], reps=400, master_seed=11,
                 estimators=("UE", "B2", "B3", "B4"), weight=None,
                 generic_weight=None)
    errors, losses, excluded = _reference(plan)
    summary = run_plan(plan)
    assert 0 < len(excluded) <= 4
    assert summary.excluded == excluded
    assert summary.rep_count == plan.reps - len(excluded)
    np.testing.assert_array_equal(summary.errors, errors)


def test_hard_failure_propagates_like_reference():
    # an indefinite generic weight fails every replication with NotPD
    bad = np.diag([1.0, -1.0, 1.0])
    plan = _plan(_cfg(), generic_weight=bad)
    with pytest.raises(NotPD):
        _reference(plan)
    with pytest.raises(NotPD):
        run_plan(plan)


def test_guards_run_before_stacked_solves():
    # replication 1 has sigma_d exactly zero: it must be excluded, and must
    # not make the stacked corrected solve raise for the whole batch
    n, sd2 = 100, 0.5
    g = np.random.default_rng(3)
    X = g.standard_normal((n, 3)) + 2.0
    Z = g.standard_normal((n, 2))
    xtx = np.stack([X.T @ X, n * sd2 * np.eye(3)])
    xtz = np.stack([X.T @ Z, np.ones((3, 2))])
    batch = estimate_batch(xtx, xtz, n, sd2, RESTR, ("UE", "B2", "B4"))
    assert batch.excluded == (1,)
    assert "ch_min(sigma_d)" in batch.reasons[0]
    assert np.all(np.isnan(batch.estimates[1]))
    att = build_kx(X, sd2)
    b1 = np.linalg.solve(att.n * att.sigma_d, X.T @ Z)
    np.testing.assert_array_equal(batch.estimates[0, 0], b1)
    np.testing.assert_array_equal(batch.estimates[0, 1],
                                  restricted(b1, att.n * att.sigma_d, RESTR))


@pytest.mark.parametrize("design_term", [False, True])
def test_score_cov_matches_score_sample_loop(design_term):
    cfg = _cfg(p=2, error_family="shifted-exponential")
    B = B_SEED[:2]
    reps, seed, n = 60, 17, 300
    pm = population(cfg, n) if design_term else None
    draws = np.array([score_sample(cfg, B, np.random.default_rng([seed, 1, r]),
                                   n=n, pm=pm, include_design_term=design_term)
                      for r in range(reps)])
    sc = estimate_score_cov(cfg, B, reps=reps, seed=seed, n=n,
                            include_design_term=design_term)
    np.testing.assert_array_equal(sc.cov, sym(draws.T @ draws) / reps)
    prods = draws[:, :, None] * draws[:, None, :]
    se = float(np.sqrt(np.var(prods, axis=0, ddof=1) / reps).max())
    assert sc.standard_error == pytest.approx(se, rel=1e-12, abs=0)


def test_design_materialized_once_per_plan(monkeypatch):
    calls = []
    original = ModelConfig.design

    def counting(self, n=None):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(ModelConfig, "design", counting)
    plan = _plan(_cfg(), reps=40)
    run_plan(plan)
    assert len(calls) <= 2
    calls.clear()
    estimate_score_cov(plan.cfg, B_SEED, reps=40, seed=3)
    assert len(calls) <= 2
