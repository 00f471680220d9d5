"""Replication engine: determinism, law comparison, loss diagnostics, and the
affine-limit suite."""

import math

import numpy as np
import pytest

from eivreg.asymptotics import (estimate_score_cov, joint_law,
                                named_weight_limit, population)
from eivreg.exceptions import NearSingular, ShapeMismatch
from eivreg.linalg import psd_factor, sym
from eivreg.model import DesignRule, ModelConfig, Restriction, make_restricted_b
from eivreg.montecarlo import (EmpiricalSummary, SimulationPlan,
                               affine_limit_suite, compare_law, run_plan)
from eivreg.risk import dominance_report

RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])
B_SEED = np.array([[1.6, 0.8], [-0.5, 1.3]])


def _cfg(**kw):
    base = dict(n=400, p=2, q=2, sigma_eps2=2.0, sigma_delta2=0.5,
                sigma_psi2=0.5, M=DesignRule(low=-4, high=4, seed=1848))
    base.update(kw)
    return ModelConfig(**base)


def _plan(**kw):
    base = dict(cfg=_cfg(), restr=RESTR, b_seed=B_SEED, reps=200,
                master_seed=99)
    base.update(kw)
    return SimulationPlan(**base)


def _summary_from_law_draws(law, ndraws, rng):
    """Sample the stacked limit law directly (bypassing the model); the
    resulting summary must agree with the law itself."""
    factor = psd_factor(sym(law.full_cov()))
    z = rng.standard_normal((ndraws, factor.shape[1]))
    draws = z @ factor.T + law.full_mean()
    losses = {lbl: np.zeros(ndraws) for lbl in law.labels}
    return EmpiricalSummary(labels=law.labels, p=law.p, q=law.q,
                            errors=draws, per_rep_losses=losses)


def test_noiseless_plan_zero_errors():
    cfg = _cfg(sigma_eps2=0.0, sigma_delta2=0.0, sigma_psi2=0.0)
    plan = _plan(cfg=cfg, reps=2, estimators=("UE",))
    summary = run_plan(plan)
    np.testing.assert_allclose(summary.mean_errors["UE"], np.zeros((2, 2)),
                               atol=1e-9)


def test_worker_counts_agree_bitwise():
    plan = _plan(reps=120)
    s1 = run_plan(plan, workers=1)
    s8 = run_plan(plan, workers=8)
    np.testing.assert_array_equal(s1.errors, s8.errors)
    for lbl in plan.estimators:
        np.testing.assert_array_equal(s1.per_rep_losses[lbl],
                                      s8.per_rep_losses[lbl])


def test_reruns_agree_bitwise():
    plan = _plan(reps=60)
    np.testing.assert_array_equal(run_plan(plan).errors, run_plan(plan).errors)


def test_corrected_estimator_centered():
    plan = _plan(reps=800, estimators=("UE",),
                 restr=Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta))
    summary = run_plan(plan, workers=4)
    se = summary.errors.std(axis=0, ddof=1) / math.sqrt(summary.rep_count)
    assert np.all(np.abs(summary.errors.mean(axis=0)) <= 4.0 * se)


def test_compare_law_self_consistency():
    cfg = _cfg(n=1000)
    pm = population(cfg)
    g = np.random.default_rng(5)
    f = g.standard_normal((4, 4))
    sc = sym(f @ f.T) + np.eye(4)
    law = joint_law(pm, sc, RESTR)
    summary = _summary_from_law_draws(law, 100_000, np.random.default_rng(6))
    cmp = compare_law(summary, law, tol_cov=0.10)
    assert cmp.passed


def test_compare_law_negative_control():
    cfg = _cfg(n=1000)
    pm = population(cfg)
    g = np.random.default_rng(7)
    f = g.standard_normal((4, 4))
    sc = sym(f @ f.T) + np.eye(4)
    law = joint_law(pm, sc, RESTR)
    summary = _summary_from_law_draws(law, 100_000, np.random.default_rng(8))
    wrong = 2.0 * sc
    wrong_law = joint_law(pm, wrong, RESTR)
    cmp = compare_law(summary, wrong_law, tol_cov=0.10)
    assert not cmp.passed
    assert cmp.worst_cov > 0.3


def test_compare_law_label_mismatch():
    cfg = _cfg(n=1000)
    pm = population(cfg)
    sc = np.eye(4)
    law = joint_law(pm, sc, RESTR, estimators=("UE", "B2"))
    summary = _summary_from_law_draws(law, 100, np.random.default_rng(9))
    other = joint_law(pm, sc, RESTR, estimators=("UE", "B3"))
    with pytest.raises(ShapeMismatch):
        compare_law(summary, other)


def test_exclusion_policy_raises_when_widespread():
    # with a nearly-flat design and no latent variance, X'X/n - sigma_delta2 I
    # hovers at zero and the attenuation correction fails in a large share of
    # replications, tripping the exclusion cap
    cfg = _cfg(n=120, sigma_psi2=0.0, sigma_eps2=1.0,
               M=DesignRule(low=-0.05, high=0.05, seed=3), sigma_delta2=1.0)
    plan = _plan(cfg=cfg, reps=60, estimators=("UE",))
    with pytest.raises(NearSingular):
        run_plan(plan)


def test_loss_scale_constant_in_n():
    medians = []
    for n in (500, 2000, 8000):
        plan = _plan(cfg=_cfg(n=n), reps=100, estimators=("UE",),
                     master_seed=40 + n)
        summary = run_plan(plan, workers=4)
        medians.append(float(np.median(summary.per_rep_losses["UE"])))
    for a, b in zip(medians, medians[1:]):
        assert 0.5 <= b / a <= 2.0


def test_zero_direction_plan_means_centered():
    # under the exact restriction all four limit means are zero and the
    # empirical means must sit within Monte Carlo resolution of them
    cfg = _cfg(n=800)
    restr = Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta)
    plan = _plan(cfg=cfg, restr=restr, reps=800, master_seed=71)
    summary = run_plan(plan, workers=4)
    pm = population(cfg)
    b_truth = make_restricted_b(cfg, restr, B_SEED)
    sc = estimate_score_cov(cfg, b_truth, reps=800, seed=72).cov
    law = joint_law(pm, sc, restr)
    cmp = compare_law(summary, law, tol_cov=0.35)
    assert cmp.worst_mean <= 4.0
    for mu in law.means:
        np.testing.assert_array_equal(mu, np.zeros((2, 2)))


def test_law_agreement_under_skewed_errors():
    # the score-covariance estimate carries the family's higher moments: the
    # skewed-family law matches its own simulation and differs from gaussian
    cfg = _cfg(n=1000, error_family="shifted-exponential")
    pm = population(cfg)
    cfg_s = cfg.at_n(2000)
    b_s = make_restricted_b(cfg_s, RESTR, B_SEED)
    score = estimate_score_cov(cfg_s, b_s, reps=2000, seed=51)
    law = joint_law(pm, score.cov, RESTR)
    plan = _plan(cfg=cfg, reps=2000, master_seed=52)
    summary = run_plan(plan, workers=4)
    cmp = compare_law(summary, law)
    assert cmp.passed, (cmp.worst_cov, cmp.worst_mean)
    cfg_g = _cfg(n=2000, error_family="gaussian")
    score_g = estimate_score_cov(cfg_g, b_s, reps=2000, seed=53)
    rel = np.linalg.norm(score.cov - score_g.cov) / np.linalg.norm(score_g.cov)
    assert rel > 0.10


def test_restricted_risk_ordering_at_restriction():
    plan = _plan(cfg=_cfg(n=800),
                 restr=Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta),
                 reps=600)
    summary = run_plan(plan, workers=4)
    ue = summary.per_rep_losses["UE"]
    for lbl in ("B2", "B3", "B4"):
        re = summary.per_rep_losses[lbl]
        diff = re - ue
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() <= 2.0 * se


def test_empirical_adr_matches_theory():
    cfg = _cfg(n=2000)
    restr = RESTR
    pm = population(cfg)
    b_truth = make_restricted_b(cfg, restr, B_SEED)
    sc = estimate_score_cov(cfg, b_truth, reps=2000, seed=10).cov
    plan = _plan(cfg=cfg, reps=2000, master_seed=11)
    summary = run_plan(plan, workers=4)
    rep = dominance_report(np.eye(2), pm, sc, restr, named_weight_limit(pm, "B3"))
    theory_ue = rep.adr_ue
    theory_re = rep.adr_re
    # mean per-replication loss n ||b - B||_W^2, the empirical counterpart of ADR
    empirical = {lbl: float(summary.per_rep_losses[lbl].mean())
                 for lbl in ("UE", "B3")}
    assert abs(empirical["UE"] - theory_ue) / theory_ue < 0.20
    assert abs(empirical["B3"] - theory_re) / theory_re < 0.20


def test_restriction_holds_in_every_replication():
    plan = _plan(reps=50)
    summary = run_plan(plan)
    # scaled errors of restricted estimators satisfy the constraint direction:
    # R1 (b - B) R2 = theta - target(n) = -theta0/sqrt(n) exactly
    k = 4
    n = plan.cfg.n
    expected = -RESTR.theta0[0, 0]  # after sqrt(n) scaling
    for i, lbl in enumerate(plan.estimators):
        if lbl == "UE":
            continue
        block = summary.errors[:, i * k:(i + 1) * k]
        for row in block:
            g = RESTR.R1 @ row.reshape(2, 2) @ RESTR.R2
            assert g[0, 0] == pytest.approx(expected, abs=1e-6)


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(reps=1)
    with pytest.raises(ValueError):
        _plan(estimators=())
    with pytest.raises(ValueError):
        _plan(estimators=("UE", "bogus"))
    with pytest.raises(ValueError):
        _plan(estimators=("generic",))


def test_affine_limit_suite_blocks_and_means():
    cmp, pair_rel = affine_limit_suite(seed=123, draws=60_000)
    assert cmp.passed
    assert len(cmp.cov_rel_fro) == 9
    assert cmp.worst_cov <= 0.10
    assert cmp.worst_mean <= 4.0
    assert pair_rel <= 0.10


def test_identity_transform_recovers_cov():
    # single identity transform: the empirical covariance is the law's own
    from eivreg.asymptotics import AsymptoticLaw
    from eivreg.linalg import AffineTransform
    g = np.random.default_rng(12)
    f = g.standard_normal((4, 4))
    lam = sym(f @ f.T) + np.eye(4)
    t = AffineTransform(kappa=np.eye(2), iota=np.eye(2), alpha=np.zeros((2, 2)),
                        beta=np.zeros((2, 2)), rho=np.zeros((2, 2)))
    law = AsymptoticLaw(labels=("T",), p=2, q=2, means=(t.rho,),
                        maps=(t.lift(),), lam=lam)
    np.testing.assert_allclose(law.block(0, 0), lam, atol=1e-12)
    np.testing.assert_allclose(law.full_cov(), lam, atol=1e-12)
    y = g.standard_normal((50_000, 4)) @ psd_factor(lam).T
    emp = np.cov(y.T)
    assert np.linalg.norm(emp - lam) / np.linalg.norm(lam) <= 0.10
