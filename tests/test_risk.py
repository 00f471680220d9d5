"""Risk algebra: ADR values, the variance-gain / bias-cost decomposition,
dominance thresholds, and efficiency sweeps."""

import math
from pathlib import Path

import numpy as np
import pytest

from eivreg import cli
from eivreg.asymptotics import (AsymptoticLaw, PopulationModel, joint_law,
                                law_inputs, limit_map, mean_shift,
                                named_weight_limit, population)
from eivreg.config import load_config
from eivreg.exceptions import ShapeMismatch
from eivreg.linalg import eig_extremes, kron, psd_factor, rvec, sym
from eivreg.model import DesignRule, ModelConfig, Restriction
from eivreg.risk import (VERDICT_BAND, VERDICT_RE, VERDICT_UE, adr_from_law,
                         adr_restricted, adr_unrestricted, bias_form,
                         dominance_report, efficiency_curve,
                         variance_gain_compact, variance_gain_terms)

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def _pd(k, g, ridge=0.3):
    f = g.standard_normal((k, k))
    return sym(f @ f.T) / k + ridge * np.eye(k)


def _pm_from_sigma(sigma, sd2):
    return PopulationModel(sigma=np.asarray(sigma, dtype=float), sigma_delta2=sd2)


def _rand_setup(seed, p=3, q=2, r1=2, r2=1):
    g = np.random.default_rng(seed)
    sigma = _pd(p, g)
    sd2 = 0.3 * eig_extremes(sigma)[0]
    pm = _pm_from_sigma(sigma, sd2)
    restr = Restriction(R1=g.standard_normal((r1, p)),
                        R2=g.standard_normal((q, r2)),
                        theta=np.zeros((r1, r2)),
                        theta0=g.standard_normal((r1, r2)))
    sc = _pd(p * q, g)
    q0 = _pd(p, g)
    w = _pd(p, g)
    return g, pm, restr, sc, q0, w


@pytest.mark.parametrize("shape", [(5, 5), (6, 4), (6,), (2, 2), (0, 0)])
def test_wrong_size_score_cov_is_a_shape_mismatch(shape):
    # p = 3: no q makes any of these (p*q)x(p*q)
    _, pm, restr, _, q0, w = _rand_setup(0)
    lam = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
    calls = [lambda: joint_law(pm, lam, restr),
             lambda: adr_unrestricted(w, pm, lam),
             lambda: variance_gain_terms(w, pm, lam, restr, q0),
             lambda: variance_gain_compact(w, pm, lam, restr, q0),
             lambda: adr_restricted(w, pm, lam, restr, q0),
             lambda: dominance_report(w, pm, lam, restr, q0)]
    for call in calls:
        with pytest.raises(ShapeMismatch, match=r"\(p\*q\)x\(p\*q\) at p=3"):
            call()


def test_adr_zero_score_cov():
    _, pm, restr, _, q0, w = _rand_setup(0)
    sc = np.zeros((6, 6))
    assert adr_unrestricted(w, pm, sc) == pytest.approx(0.0, abs=1e-14)


def test_adr_identity_case():
    # sigma_d = I and unit score covariance: ADR with W = I equals p*q
    pm = _pm_from_sigma(2 * np.eye(2), 1.0)
    sc = np.eye(4)
    assert adr_unrestricted(np.eye(2), pm, sc) == pytest.approx(4.0)


def test_adr_monte_carlo_definition():
    # ADR is the expected weighted squared norm of the limit variable
    g, pm, restr, sc, q0, w = _rand_setup(1)
    law = joint_law(pm, sc, restr, estimators=("UE",))
    # draws of the limit law itself
    factor = psd_factor(sym(law.full_cov()))
    z = np.random.default_rng(2).standard_normal((100_000, factor.shape[1]))
    u = z @ factor.T + law.full_mean()
    vals = np.einsum("ri,ij,rj->r", u, kron(w, np.eye(law.q)), u)
    mc = float(vals.mean())
    exact = adr_unrestricted(w, pm, sc)
    assert abs(mc - exact) / exact < 0.05


def test_adr_decomposition_matches_direct_form():
    for seed in range(30):
        g, pm, restr, sc, q0, w = _rand_setup(seed)
        res = dominance_report(w, pm, sc, restr, q0)
        law = AsymptoticLaw(labels=("RE",), p=3, q=2,
                            means=(mean_shift(restr, q0),),
                            maps=(limit_map(pm, 2, restr, q0),), lam=sc)
        direct = adr_from_law(w, law, "RE")
        assert res.adr_re == pytest.approx(direct, rel=1e-8)


def test_quadratic_term_identity():
    for seed in range(30):
        g, pm, restr, sc, q0, w = _rand_setup(seed)
        f1 = bias_form(w, restr, q0)
        quad = float(rvec(restr.theta0) @ f1 @ rvec(restr.theta0))
        mu = mean_shift(restr, q0)
        assert quad == pytest.approx(float(np.trace(mu.T @ w @ mu)), rel=1e-10,
                                     abs=1e-12)


def test_zero_direction_drops_quadratic_term():
    _, pm, restr, sc, q0, w = _rand_setup(3)
    res = adr_restricted(w, pm, sc, restr, q0).at(np.zeros_like(restr.theta))
    base = adr_unrestricted(w, pm, sc)
    assert res.adr_re == pytest.approx(base - res.variance_gain, rel=1e-12)


def test_full_restriction_identity_weights():
    # R1 = I, R2 = I, Q0 = I, W = I: bias form is the identity and the
    # quadratic cost is ||theta0||^2
    p, q = 3, 2
    g = np.random.default_rng(4)
    pm = _pm_from_sigma(_pd(p, g) + p * np.eye(p), 0.1)
    restr = Restriction(R1=np.eye(p), R2=np.eye(q), theta=np.zeros((p, q)),
                        theta0=g.standard_normal((p, q)))
    sc = _pd(p * q, g)
    f1 = bias_form(np.eye(p), restr, np.eye(p))
    np.testing.assert_allclose(f1, np.eye(p * q), atol=1e-12)
    res = dominance_report(np.eye(p), pm, sc, restr, np.eye(p))
    base = adr_unrestricted(np.eye(p), pm, sc)
    expected_quad = float(np.sum(restr.theta0 ** 2))
    assert res.adr_re == pytest.approx(base - res.variance_gain + expected_quad,
                                    rel=1e-10)


def test_courant_sandwich():
    g, pm, restr, sc, q0, w = _rand_setup(5)
    f1 = bias_form(w, restr, q0)
    lo, hi = eig_extremes(f1)
    for _ in range(50):
        t0 = g.standard_normal(restr.theta.shape)
        quad = float(rvec(t0) @ f1 @ rvec(t0))
        n2 = float(np.sum(t0 * t0))
        assert lo * n2 - 1e-10 <= quad <= hi * n2 + 1e-10


def test_dominance_verdict_at_origin():
    _, pm, restr, sc, q0, w = _rand_setup(6)
    rep = adr_restricted(w, pm, sc, restr, q0).at(np.zeros_like(restr.theta))
    assert rep.variance_gain > 0
    assert rep.verdict == VERDICT_RE
    assert rep.relative_efficiency > 1


def test_dominance_band_collapse_flips_verdict():
    # rank-one bias form: thresholds coincide and the verdict flips there
    g = np.random.default_rng(7)
    restr = Restriction(R1=g.standard_normal((1, 3)), R2=g.standard_normal((2, 1)),
                        theta=np.zeros((1, 1)), theta0=np.ones((1, 1)))
    pm = _pm_from_sigma(_pd(3, g) + 3 * np.eye(3), 0.05)
    sc = _pd(6, g)
    q0 = _pd(3, g)
    w = np.eye(3)
    base = adr_restricted(w, pm, sc, restr, q0)
    assert base.lower_threshold == pytest.approx(base.upper_threshold, rel=1e-12)
    s_star = math.sqrt(base.lower_threshold)
    below = base.at(np.array([[0.99 * s_star]]))
    above = base.at(np.array([[1.01 * s_star]]))
    assert below.verdict == VERDICT_RE and below.adr_re < below.adr_ue
    assert above.verdict == VERDICT_UE and above.adr_re > above.adr_ue


def test_dominance_consistent_with_adr_ordering():
    for seed in range(40):
        g, pm, restr, sc, q0, w = _rand_setup(seed, p=3, q=2, r1=2, r2=2)
        rep = dominance_report(w, pm, sc, restr, q0)
        if rep.verdict == VERDICT_RE:
            assert rep.adr_re <= rep.adr_ue + 1e-10
        elif rep.verdict == VERDICT_UE:
            assert rep.adr_re > rep.adr_ue - 1e-10
        else:
            assert rep.verdict == VERDICT_BAND
            assert rep.lower_threshold <= rep.theta0_norm2 <= rep.upper_threshold


def test_variance_gain_nonnegative_when_weight_matches_q0():
    # with W proportional to Q0 the correction is an orthogonal projection in
    # the weighted metric, so the gain cannot be negative
    for seed in range(60):
        g, pm, restr, sc, q0, _ = _rand_setup(seed, p=4, q=2, r1=2, r2=1)
        w = float(g.uniform(0.2, 3.0)) * q0
        t1, t2, t3 = variance_gain_terms(w, pm, sc, restr, q0)
        assert t1 + t2 - t3 >= -1e-10 * abs(t1 + t2 + t3)


def test_variance_gain_can_be_negative_for_misaligned_weight():
    """The gain's nonnegativity is not universal: an anti-aligned weight and
    score covariance produce a strictly negative gain, yet the dominance
    implications still hold (the risk difference keeps its sign logic)."""
    p, q = 2, 1
    pm = _pm_from_sigma(np.eye(p) + 0.0, 0.0)  # sigma_d = I
    restr = Restriction(R1=np.array([[1.0, 0.0]]), R2=np.eye(1),
                        theta=np.zeros((1, 1)), theta0=np.ones((1, 1)))
    q0 = np.linalg.inv(np.array([[1.0, 2.0], [2.0, 5.0]]))
    lam = np.eye(p * q)
    w = np.eye(p)
    t1, t2, t3 = variance_gain_terms(w, pm, lam, restr, q0)
    gain = t1 + t2 - t3
    assert gain < -1.0
    rep = dominance_report(w, pm, lam, restr, q0)
    # negative gain means the restricted estimator is worse even at theta0 = 0
    rep0 = adr_restricted(w, pm, lam, restr, q0).at(np.zeros((1, 1)))
    assert rep0.adr_re > rep0.adr_ue
    # and the upper-threshold implication remains valid
    assert rep.theta0_norm2 > rep.upper_threshold
    assert rep.adr_re > rep.adr_ue


def test_compact_gain_arrangement_matches_first_trace():
    for seed in range(10):
        g, pm, restr, sc, q0, w = _rand_setup(seed)
        t1, _, _ = variance_gain_terms(w, pm, sc, restr, q0)
        compact = variance_gain_compact(w, pm, sc, restr, q0)
        assert compact == pytest.approx(t1, rel=1e-10)


def test_risk_path_does_not_evaluate_the_compact_arrangement(monkeypatch):
    _, pm, restr, sc, q0, w = _rand_setup(3)
    direction = restr.theta0 / np.linalg.norm(restr.theta0)
    scales = [0.0, 0.5, 1.0, 2.0]

    def outputs():
        return (dominance_report(w, pm, sc, restr, q0),
                efficiency_curve(adr_restricted(w, pm, sc, restr, q0),
                                 direction, scales))

    report, rows = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("variance_gain_compact called on the risk path")

    monkeypatch.setattr("eivreg.risk.variance_gain_compact", refuse)
    report_patched, rows_patched = outputs()
    assert len(rows_patched) == len(rows)
    for got, want in zip([report_patched, *rows_patched], [report, *rows]):
        for field in vars(want):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))


def test_efficiency_curve_builds_the_drift_free_terms_once(monkeypatch, tmp_path):
    run = load_config(CONFIG)
    calls, curves = [], []

    def counted(*args):
        calls.append(args)
        return variance_gain_terms(*args)

    def recorded(report, direction, scales):
        rows = efficiency_curve(report, direction, scales)
        curves.append((direction, scales, rows))
        return rows

    monkeypatch.setattr("eivreg.risk.variance_gain_terms", counted)
    monkeypatch.setattr("eivreg.cli.efficiency_curve", recorded)
    assert cli.main(["efficiency", "--config", str(CONFIG), "--out",
                     str(tmp_path / "eff"), "--workers", "1"]) == 0
    assert len(calls) == 1
    (direction, scales, rows), = curves
    assert len(rows) == run.risk.grid
    # each row is, bit for bit, the report at that drift computed on its own
    pm, sc = law_inputs(run)
    q0 = named_weight_limit(pm, run.risk.q0)
    for s, row in zip(scales, rows):
        alone = dominance_report(run.risk.weight, pm, sc,
                                 run.restriction.with_theta0(s * direction), q0)
        for field in vars(alone):
            np.testing.assert_array_equal(getattr(row, field),
                                          getattr(alone, field))


def test_weight_scale_equivariance():
    g, pm, restr, sc, q0, w = _rand_setup(8)
    c = 3.7
    r1 = dominance_report(w, pm, sc, restr, q0)
    r2 = dominance_report(c * w, pm, sc, restr, q0)
    assert r2.adr_ue == pytest.approx(c * r1.adr_ue, rel=1e-10)
    assert r2.adr_re == pytest.approx(c * r1.adr_re, rel=1e-10)
    assert r2.variance_gain == pytest.approx(c * r1.variance_gain, rel=1e-10)
    assert r2.relative_efficiency == pytest.approx(r1.relative_efficiency,
                                                   rel=1e-10)
    assert r2.verdict == r1.verdict
    assert r2.lower_threshold == pytest.approx(r1.lower_threshold, rel=1e-10)


def test_efficiency_curve_shape():
    _, pm, restr, sc, q0, _ = _rand_setup(9)
    w = q0.copy()  # aligned weight keeps the gain positive
    direction = restr.theta0 / np.linalg.norm(restr.theta0)
    base = adr_restricted(w, pm, sc, restr, q0)
    scales = base.scale_grid(15)
    rows = efficiency_curve(base, direction, scales)
    assert rows[0].relative_efficiency >= 1.0
    rel = [r.relative_efficiency for r in rows]
    assert all(b < a for a, b in zip(rel, rel[1:]))
    adr_res = [r.adr_re for r in rows]
    assert all(b > a for a, b in zip(adr_res, adr_res[1:]))
    # crossing happens between the thresholds
    cross = [i for i in range(len(rows) - 1) if rel[i] >= 1.0 > rel[i + 1]]
    assert cross
    i = cross[0]
    eps = 1e-9 * (1.0 + base.upper_threshold)
    assert rows[i + 1].theta0_norm2 >= base.lower_threshold - eps
    assert rows[i].theta0_norm2 <= base.upper_threshold + eps


def test_efficiency_curve_requires_unit_direction():
    _, pm, restr, sc, q0, w = _rand_setup(10)
    with pytest.raises(Exception):
        efficiency_curve(adr_restricted(w, pm, sc, restr, q0),
                         2.0 * restr.theta0, [0.0, 1.0])


def test_dominance_with_model_population():
    cfg = ModelConfig(n=800, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.5,
                      sigma_psi2=0.5, M=DesignRule(low=-2, high=2, seed=7))
    pm = population(cfg)
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                        theta0=[[0.9]])
    g = np.random.default_rng(11)
    sc = _pd(4, g)
    for which in ("B2", "B3", "B4"):
        rep = adr_restricted(np.eye(2), pm, sc, restr,
                             named_weight_limit(pm, which)).at(np.zeros((1, 1)))
        assert rep.variance_gain > 0
        assert rep.verdict == VERDICT_RE
