"""Population limits, score-covariance estimation, limit maps, mean shifts,
and the joint law — including the Monte Carlo validation of the stacking and
score conventions."""

import math

import numpy as np
import pytest

from eivreg import asymptotics, estimators
from eivreg.asymptotics import (AsymptoticLaw, closed_form_score_cov,
                                estimate_score_cov, joint_law, law_inputs,
                                limit_map, mean_shift, named_weight_limit,
                                population)
from eivreg.config import parse_config
from eivreg.exceptions import ConfigError, ShapeMismatch
from eivreg.linalg import eig_extremes, kron, sym
from eivreg.model import (DesignRule, ModelConfig, Restriction, generate,
                          make_restricted_b, replication_rngs, stats_sampler)

RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])


def _cfg(**kw):
    base = dict(n=1000, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.5,
                sigma_psi2=0.5, M=DesignRule(low=-2, high=2, seed=7))
    base.update(kw)
    return ModelConfig(**base)


def _orthogonal_design(n, p, scale, seed=0):
    g = np.random.default_rng(seed)
    q, _ = np.linalg.qr(g.standard_normal((n, p)))
    return q * math.sqrt(scale * n)


def test_population_no_measurement_error():
    cfg = _cfg(sigma_delta2=0.0)
    pm = population(cfg)
    np.testing.assert_allclose(pm.k, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pm.kbar, np.zeros((2, 2)), atol=1e-12)


def test_population_scalar_algebra():
    # design with M'M/n = 0.5 I and psi/delta variances summing to 1.5 gives
    # sigma = 2I, K = I/2, kbar = I/2
    n, p = 200, 2
    m = _orthogonal_design(n, p, 0.5)
    cfg = ModelConfig(n=n, p=p, q=2, sigma_eps2=1.0, sigma_delta2=1.0,
                      sigma_psi2=0.5, M=m)
    pm = population(cfg)
    np.testing.assert_allclose(pm.sigma, 2 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(pm.k, 0.5 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(pm.kbar, 0.5 * np.eye(2), atol=1e-10)


def test_population_rejects_degenerate_design_scale():
    # nearly collinear design with no latent variance: ch_min(sigma) collapses
    # onto sigma_delta2 at float resolution and the guard must fire
    n, p = 200, 2
    g0 = np.random.default_rng(0)
    base = g0.standard_normal(n)
    m = np.column_stack([base, base + 1e-9 * g0.standard_normal(n)])
    cfg = ModelConfig(n=n, p=p, q=1, sigma_eps2=1.0, sigma_delta2=0.5,
                      sigma_psi2=0.0, M=m)
    with pytest.raises(ConfigError, match="field 'model.sigma_delta2'"):
        population(cfg)


def test_score_cov_degenerate_model_is_zero():
    cfg = _cfg(sigma_eps2=0.0, sigma_delta2=0.0, sigma_psi2=0.0, n=200)
    B = np.array([[1.0, 0.2], [-0.3, 0.8]])
    sc = estimate_score_cov(cfg, B, reps=5, seed=1)
    np.testing.assert_allclose(sc.cov, np.zeros((4, 4)), atol=1e-20)


def test_score_mean_is_centered():
    cfg = _cfg(n=500)
    B = make_restricted_b(cfg, RESTR, np.array([[1.5, 0.7], [-0.4, 1.2]]))
    reps = 3000
    k = cfg.p * cfg.q
    draws = np.empty((reps, k))
    from eivreg.asymptotics import score_sample
    for r in range(reps):
        draws[r] = score_sample(cfg, B, np.random.default_rng([3, 1, r]))
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * se)


def test_score_cov_stable_in_n():
    cfg = _cfg()
    B = make_restricted_b(cfg, RESTR, np.array([[1.5, 0.7], [-0.4, 1.2]]))
    a = estimate_score_cov(cfg.at_n(2000), B, reps=2500, seed=5)
    b = estimate_score_cov(cfg.at_n(8000), B, reps=2500, seed=6)
    assert np.linalg.norm(a.cov - b.cov) / np.linalg.norm(b.cov) <= 0.10


def test_score_cov_reports_standard_error():
    cfg = _cfg(n=300)
    B = np.array([[1.0, 0.2], [-0.3, 0.8]])
    sc = estimate_score_cov(cfg, B, reps=500, seed=7)
    assert sc.standard_error > 0
    assert sc.cov.shape == (4, 4)


# p=3, q=2 so that a swapped index shows, and a design with nonzero column
# means so that the skewness term is not hidden by mbar = 0
B_32 = np.array([[1.2, -0.7], [0.4, 0.9], [-1.1, 0.5]])


def _cfg_32(family):
    return ModelConfig(n=200, p=3, q=2, sigma_eps2=0.2, sigma_delta2=1.0,
                       sigma_psi2=0.1, error_family=family,
                       M=DesignRule(low=0.5, high=1.5, seed=3))


def _formula_terms(cfg, B):
    """The four terms of the closed-form score covariance, entry by entry."""
    p, q = B.shape
    m = cfg.design()
    sigma = m.T @ m / cfg.n + (cfg.sigma_psi2 + cfg.sigma_delta2) * np.eye(p)
    su = cfg.sigma_eps2 * np.eye(q) + cfg.sigma_delta2 * B.T @ B
    mbar = m.mean(axis=0)
    g1, g2 = cfg.moments
    sd = math.sqrt(cfg.sigma_delta2)
    terms = {name: np.zeros((p * q, p * q))
             for name in ("base", "cross", "gamma1", "gamma2")}
    for a in range(p):
        for b in range(q):
            for c in range(p):
                for d in range(q):
                    i, j = a * q + b, c * q + d
                    terms["base"][i, j] = sigma[a, c] * su[b, d]
                    terms["cross"][i, j] = sd ** 4 * B[a, d] * B[c, b]
                    terms["gamma1"][i, j] = g1 * sd ** 3 * (
                        mbar[a] * B[c, b] * B[c, d] + mbar[c] * B[a, b] * B[a, d])
                    terms["gamma2"][i, j] = (a == c) * g2 * sd ** 4 * B[a, b] * B[a, d]
    return terms


@pytest.mark.parametrize("family", ["gaussian", "shifted-exponential",
                                    "scaled-t"])
def test_closed_form_score_cov_matches_formula_and_monte_carlo(family):
    cfg = _cfg_32(family)
    cf = closed_form_score_cov(cfg, B_32)
    assert isinstance(cf, np.ndarray) and cf.shape == (6, 6)
    np.testing.assert_array_equal(cf, cf.T)
    expected = sum(_formula_terms(cfg, B_32).values())
    np.testing.assert_allclose(cf, expected, rtol=1e-12, atol=1e-12)
    mc = estimate_score_cov(cfg, B_32, reps=4000, seed=9)
    assert np.max(np.abs(cf - mc.cov)) <= 4.0 * mc.standard_error


def test_monte_carlo_check_detects_each_moment_term():
    # shifted-exponential has both gamma1 and gamma2 nonzero; dropping either
    # term moves some entry well outside the Monte Carlo's reach
    cfg = _cfg_32("shifted-exponential")
    cf = closed_form_score_cov(cfg, B_32)
    mc = estimate_score_cov(cfg, B_32, reps=4000, seed=9)
    terms = _formula_terms(cfg, B_32)
    for name in ("gamma1", "gamma2"):
        dropped = cf - terms[name]
        assert np.max(np.abs(dropped - mc.cov)) > 8.0 * mc.standard_error, name


def test_law_inputs_use_the_closed_form(monkeypatch):
    doc = {"model": {"n": 300, "p": 2, "q": 2, "sigma_eps2": 1.0,
                     "sigma_delta2": 0.5, "sigma_psi2": 0.5,
                     "error_family": "scaled-t"},
           "restriction": {"R1": [[1.0, -0.5]], "R2": [[1.0], [0.8]],
                           "theta": [[0.3]]},
           "score_cov": {"n": 500, "reps": 100}}
    run = parse_config(doc)

    def forbidden(*args, **kwargs):
        raise AssertionError("law_inputs must not run the Monte Carlo")

    monkeypatch.setattr(asymptotics, "estimate_score_cov", forbidden)
    pm, lam = law_inputs(run)
    cfg = run.model.at_n(500)
    B = make_restricted_b(cfg, run.restriction, run.b_truth_seed())
    np.testing.assert_array_equal(lam, closed_form_score_cov(cfg, B))
    np.testing.assert_array_equal(pm.sigma, population(run.model).sigma)


def test_limit_map_identity_scale():
    # sigma_d = I makes the unrestricted limit map the identity
    from eivreg.asymptotics import PopulationModel
    pm = PopulationModel(sigma=2 * np.eye(2), sigma_delta2=1.0)
    np.testing.assert_allclose(limit_map(pm, 2), np.eye(4), atol=1e-14)


def test_limit_map_named_equals_generic():
    pm = population(_cfg())
    a_named = limit_map(pm, 2, RESTR, q0=named_weight_limit(pm, "B3"))
    a_generic = limit_map(pm, 2, RESTR, q0=pm.sigma)
    assert np.linalg.norm(a_named - a_generic) <= 1e-12 * np.linalg.norm(a_named)


def test_limit_map_annihilates_constraint_direction():
    # the flattened map G -> R1 G R2 composed with any restricted limit map is 0
    pm = population(_cfg())
    g = np.random.default_rng(8)
    for which in ("B2", "B3", "B4", "generic"):
        if which == "generic":
            f = g.standard_normal((2, 2))
            q0 = f @ f.T + 2 * np.eye(2)
        else:
            q0 = named_weight_limit(pm, which)
        a = limit_map(pm, 2, RESTR, q0=q0)
        lift = kron(RESTR.R1, RESTR.R2.T)
        assert np.linalg.norm(lift @ a) <= 1e-12


def test_mean_shift_restriction_identity():
    g = np.random.default_rng(9)
    for _ in range(20):
        p, q, r1, r2 = 4, 3, 2, 2
        restr = Restriction(R1=g.standard_normal((r1, p)),
                            R2=g.standard_normal((q, r2)),
                            theta=np.zeros((r1, r2)),
                            theta0=g.standard_normal((r1, r2)))
        f = g.standard_normal((p, p))
        q0 = f @ f.T + p * np.eye(p)
        mu = mean_shift(restr, q0)
        np.testing.assert_allclose(restr.R1 @ mu @ restr.R2, -restr.theta0,
                                   atol=1e-10)


def test_mean_shift_full_restriction_is_negated_direction():
    restr = Restriction(R1=np.eye(3), R2=np.eye(2), theta=np.zeros((3, 2)),
                        theta0=np.random.default_rng(10).standard_normal((3, 2)))
    mu = mean_shift(restr, np.eye(3))
    np.testing.assert_allclose(mu, -restr.theta0, atol=1e-12)


def _dummy_score(pm, q, seed=11):
    g = np.random.default_rng(seed)
    k = pm.p * q
    f = g.standard_normal((k, k))
    return sym(f @ f.T) + np.eye(k)


def test_joint_law_block_symmetry_and_psd():
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    law = joint_law(pm, sc, RESTR)
    m = len(law.labels)
    for i in range(m):
        for j in range(m):
            assert np.linalg.norm(law.block(i, j).T - law.block(j, i)) <= 1e-12
    lo, hi = eig_extremes(sym(law.full_cov()))
    assert lo >= -1e-8 * max(hi, 1.0)


def test_joint_law_zero_direction_zero_means():
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    law = joint_law(pm, sc, RESTR.with_theta0(np.zeros((1, 1))))
    for mu in law.means:
        np.testing.assert_array_equal(mu, np.zeros((2, 2)))


def test_joint_law_pair_matches_full_grid():
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    full = joint_law(pm, sc, RESTR)
    pair = joint_law(pm, sc, RESTR, estimators=("UE", "B3"))
    # the law of the projection with weight limit sigma, built from its
    # limit map and mean shift as any other weight's law is
    q0_law = AsymptoticLaw(labels=("UE", "RE"), p=2, q=2,
                           means=(np.zeros((2, 2)), mean_shift(RESTR, pm.sigma)),
                           maps=(limit_map(pm, 2), limit_map(pm, 2, RESTR, pm.sigma)),
                           lam=sc)
    iu, ib3 = full.index("UE"), full.index("B3")
    for law, re in ((pair, "B3"), (q0_law, "RE")):
        np.testing.assert_allclose(law.block("UE", re), full.block(iu, ib3),
                                   atol=1e-12)
        np.testing.assert_allclose(law.block(re, re), full.block(ib3, ib3),
                                   atol=1e-12)
        np.testing.assert_allclose(law.mean(re), full.mean("B3"), atol=1e-12)


def test_joint_law_constraint_functional_degenerate():
    # the restricted limit satisfies the constraint direction exactly:
    # the lifted functional has zero variance under the restricted block
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    law = joint_law(pm, sc, RESTR)
    lift = kron(RESTR.R1, RESTR.R2.T)
    s22 = law.block("B3", "B3")
    assert np.linalg.norm(lift @ s22 @ lift.T) <= 1e-8 * np.linalg.norm(s22)


def test_joint_law_label_errors():
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    law = joint_law(pm, sc, RESTR)
    with pytest.raises(ShapeMismatch):
        law.index("nope")
    with pytest.raises(ShapeMismatch):
        joint_law(pm, sc, RESTR, estimators=("UE", "B9"))


def test_score_convention_matches_feasible_estimator():
    """The package's score covariance describes the plug-in corrected
    estimator; adding the design-fluctuation term H kbar B,
    H = n^{-1/2}(X'X - n sigma), describes the infeasible estimator built from
    population weights instead.  The two laws differ by a factor >2 in this
    regime, so matching is diagnostic, not luck."""
    n, reps = 2000, 2500
    cfg = ModelConfig(n=n, p=1, q=1, sigma_eps2=0.25, sigma_delta2=0.8,
                      sigma_psi2=0.2, M=DesignRule(low=-1, high=1, seed=11))
    B = np.array([[3.0]])
    pm = population(cfg)
    sc_plain = estimate_score_cov(cfg, B, reps=reps, seed=21)
    # the infeasible estimator's score, drawn as estimate_score_cov draws
    xtx, xtz = stats_sampler(cfg, B, cfg.design()).draw(
        replication_rngs(22, 1, 0, reps), reps)
    h = (xtz - xtx @ B) / math.sqrt(n) + math.sqrt(n) * cfg.sigma_delta2 * B
    h = h + (xtx / math.sqrt(n) - math.sqrt(n) * pm.sigma) @ pm.kbar @ B
    draws = h.reshape(reps, 1)
    cov_design = sym(draws.T @ draws) / reps
    assert sc_plain.cov[0, 0] > 2.0 * cov_design[0, 0]

    a1 = limit_map(pm, 1)
    var_plain = (a1 @ sc_plain.cov @ a1.T).item()
    var_design = (a1 @ cov_design @ a1.T).item()

    feas = np.empty(reps)
    infeas = np.empty(reps)
    m = cfg.design()
    sigma_x = m.T @ m / n + (cfg.sigma_psi2 + cfg.sigma_delta2) * np.eye(1)
    sigma_d = sigma_x - cfg.sigma_delta2 * np.eye(1)
    for r in range(reps):
        ds = generate(cfg, B, np.random.default_rng([23, 0, r]))
        xtx = ds.X.T @ ds.X
        xtz = ds.X.T @ ds.Z
        b_feas = np.linalg.solve(xtx - n * cfg.sigma_delta2 * np.eye(1), xtz)
        b_naive = np.linalg.solve(xtx, xtz)
        b_inf = np.linalg.solve(sigma_d, sigma_x @ b_naive)
        feas[r] = math.sqrt(n) * (b_feas - B)[0, 0]
        infeas[r] = math.sqrt(n) * (b_inf - B)[0, 0]
    assert abs(np.var(feas, ddof=1) - var_plain) / var_plain < 0.15
    assert abs(np.var(infeas, ddof=1) - var_design) / var_design < 0.15
    # cross-matching fails: the conventions are not interchangeable
    assert abs(np.var(feas, ddof=1) - var_design) / var_design > 0.5


def test_named_weight_limits(monkeypatch):
    pm = population(_cfg())
    np.testing.assert_array_equal(named_weight_limit(pm, "B4"), np.eye(2))
    np.testing.assert_array_equal(named_weight_limit(pm, "B3"), pm.sigma)
    np.testing.assert_array_equal(named_weight_limit(pm, "B2"), pm.sigma_d)
    with pytest.raises(ShapeMismatch):
        named_weight_limit(pm, "B7")
    # the limit and the sample kernel read one table: a changed rule moves both
    monkeypatch.setitem(estimators.NAMED_WEIGHTS, "B4",
                        lambda sigma_x, sigma_d: sigma_x + sigma_d)
    np.testing.assert_array_equal(named_weight_limit(pm, "B4"),
                                  pm.sigma + pm.sigma_d)
    g = np.random.default_rng(12)
    X, Z = g.standard_normal((50, 2)), g.standard_normal((50, 2))
    xtx, xtz = (X.T @ X)[None], (X.T @ Z)[None]
    sigma_x = sym(xtx[0]) / 50
    sigma_d = sigma_x - 0.1 * np.eye(2)
    named = estimators.estimate_batch(xtx, xtz, 50, 0.1, RESTR, ("UE", "B4"))
    b1, b4 = named.estimates[0]
    np.testing.assert_array_equal(
        b4, estimators.restricted(b1, 50 * (sigma_x + sigma_d), RESTR))
