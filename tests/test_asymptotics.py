"""Population limits, score-covariance estimation, limit transforms, and the
joint law — including the Monte Carlo validation of the stacking and
score conventions."""

import itertools
import math

import numpy as np
import pytest

from eivreg import asymptotics, estimators
from eivreg.asymptotics import (AsymptoticLaw, PopulationModel,
                                closed_form_score_cov, constraint_gain,
                                estimate_score_cov, joint_law, law_inputs,
                                limit_transform, named_weight_limit, population)
from eivreg.config import parse_config
from eivreg.exceptions import ConfigError
from eivreg.linalg import eig_extremes, kron, sym
from eivreg.model import (ERROR_FAMILIES, DesignRule, ModelConfig, Restriction,
                          draw_stats, generate, make_restricted_b, stats_sampler)

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
    with pytest.raises(ConfigError, match="field 'model.sigma_delta2'"):
        ModelConfig(n=n, p=p, q=1, sigma_eps2=1.0, sigma_delta2=0.5,
                    sigma_psi2=0.0, M=m)


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
    g1, g2 = ERROR_FAMILIES[cfg.error_family]
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


# the fifth moment of each family's standardized draw: with the first four it
# fixes a three-point law, and L depends only on the first four
FIFTH_MOMENT = {"gaussian": 0.0, "shifted-exponential": 44.0, "scaled-t": 0.0}


def _three_point_law(family):
    """Nodes and weights of the law on three points whose moments of order 0
    to 5 are the family's 1, 0, 1, g1, 3 + g2 and mu5: the nodes are the
    roots of the orthogonal cubic of those moments (Gauss quadrature)."""
    g1, g2 = ERROR_FAMILIES[family]
    mu = np.array([1.0, 0.0, 1.0, g1, 3.0 + g2, FIFTH_MOMENT[family]])
    hankel = np.array([mu[k:k + 3] for k in range(3)])
    c0, c1, c2 = np.linalg.solve(hankel, -mu[3:])
    roots = np.roots([1.0, c2, c1, c0])
    assert np.all(np.abs(roots.imag) < 1e-12)
    nodes = np.sort(roots.real)
    weights = np.linalg.solve(np.vander(nodes, increasing=True).T, mu[:3])
    return nodes, weights


def _enumerated_score_cov(cfg, B):
    """(1/n) times the sum over design rows of the covariance of rvec(x_i'
    u_i), u_i = e_i - B' delta_i, with each of the q + 2p standardized entries
    of (e_i, delta_i, psi_i) drawn from the three-point law: all 3^(q+2p)
    points enumerated, no sampling."""
    p, q = cfg.p, cfg.q
    nodes, weights = _three_point_law(cfg.error_family)
    index = np.array(list(itertools.product(range(3), repeat=q + 2 * p)))
    w = np.prod(weights[index], axis=1)
    e, delta, psi = np.split(nodes[index], [q, q + p], axis=1)
    u = math.sqrt(cfg.sigma_eps2) * e - math.sqrt(cfg.sigma_delta2) * delta @ B
    x = cfg.design()[:, None, :] + (math.sqrt(cfg.sigma_psi2) * psi
                                    + math.sqrt(cfg.sigma_delta2) * delta)
    s = (x[:, :, :, None] * u[:, None, :]).reshape(cfg.n, len(w), p * q)
    s -= np.einsum("k,nkj->nj", w, s)[:, None, :]
    return np.einsum("k,nki,nkj->ij", w, s, s) / cfg.n


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_three_point_law_has_the_family_moments(family):
    nodes, weights = _three_point_law(family)
    g1, g2 = ERROR_FAMILIES[family]
    assert np.all(weights > 0)
    np.testing.assert_allclose(
        [weights @ nodes ** k for k in range(6)],
        [1.0, 0.0, 1.0, g1, 3.0 + g2, FIFTH_MOMENT[family]], rtol=1e-12,
        atol=1e-12)
    if family == "gaussian":  # the Gauss-Hermite rule
        np.testing.assert_allclose(nodes, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)],
                                   atol=1e-15)
        np.testing.assert_allclose(weights, [1 / 6, 2 / 3, 1 / 6], rtol=1e-14)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
@pytest.mark.parametrize("low, high", [(-4.0, 4.0), (0.0, 8.0)])
def test_closed_form_score_cov_matches_exact_enumeration(family, low, high):
    # an exact oracle: every term of L, the skewness one on the uncentred
    # design included, to rounding
    cfg = ModelConfig(n=50, p=2, q=2, sigma_eps2=2.0, sigma_delta2=0.5,
                      sigma_psi2=0.5, error_family=family,
                      M=DesignRule(low=low, high=high, seed=1848))
    B = np.array([[1.6, 0.8], [-0.5, 1.3]])
    exact = _enumerated_score_cov(cfg, B)
    gap = np.linalg.norm(closed_form_score_cov(cfg, B) - exact)
    assert gap <= 1e-12 * np.linalg.norm(exact)


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
    B = make_restricted_b(cfg, run.restriction, run.simulation.B_seed)
    np.testing.assert_array_equal(lam, closed_form_score_cov(cfg, B))
    np.testing.assert_array_equal(pm.sigma, population(run.model).sigma)


def test_limit_map_identity_scale():
    # sigma_d = I makes the unrestricted limit map the identity
    pm = PopulationModel(sigma=2 * np.eye(2), sigma_delta2=1.0)
    np.testing.assert_allclose(limit_transform(pm, 2).lift(), np.eye(4), atol=1e-14)


def test_limit_map_named_equals_generic():
    pm = population(_cfg())
    a_named = limit_transform(pm, 2, RESTR, q0=named_weight_limit(pm, "B3")).lift()
    a_generic = limit_transform(pm, 2, RESTR, q0=pm.sigma).lift()
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
        a = limit_transform(pm, 2, RESTR, q0=q0).lift()
        lift = kron(RESTR.R1, RESTR.R2.T)
        assert np.linalg.norm(lift @ a) <= 1e-12


def _reference_map_and_mean(pm, q, restr, q0):
    """The limit map kron(sigma_d^{-1}, I) - kron(gain R1 sigma_d^{-1}, R2 right)
    and the mean -gain theta0 right written out directly: the reference that
    a limit transform's lift and offset must equal bit for bit."""
    a1 = kron(np.linalg.inv(pm.sigma_d), np.eye(q))
    if q0 is None:
        return a1, np.zeros((pm.p, q))
    gain = constraint_gain(q0, restr.R1)
    correction = kron(gain @ restr.R1 @ np.linalg.inv(pm.sigma_d),
                      restr.R2 @ restr.right)
    return a1 - correction, -gain @ restr.theta0 @ restr.right


def test_limit_transform_lift_equals_reference_formulas():
    # bit for bit, at a nonzero drift, for every law label and a generic Q0
    pm = population(_cfg())
    law = joint_law(pm, _dummy_score(pm, 2), RESTR)
    assert law.labels == ("UE", "B2", "B3", "B4")
    assert np.any(RESTR.theta0 != 0)
    f = np.random.default_rng(12).standard_normal((2, 2))
    generic = f @ f.T + 2 * np.eye(2)
    cases = [(lbl, None if lbl == "UE" else named_weight_limit(pm, lbl))
             for lbl in law.labels] + [("generic", generic)]
    for lbl, q0 in cases:
        a_ref, mu_ref = _reference_map_and_mean(pm, 2, RESTR, q0)
        if lbl == "generic":
            t = limit_transform(pm, 2, RESTR, q0)
            a, mu = t.lift(), t.rho
        else:
            a, mu = law.maps[law.index(lbl)], law.mean(lbl)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(mu, mu_ref)


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
        mu = limit_transform(PopulationModel(np.eye(p), 0.5), q, restr, q0).rho
        np.testing.assert_allclose(restr.R1 @ mu @ restr.R2, -restr.theta0,
                                   atol=1e-10)


def test_mean_shift_full_restriction_is_negated_direction():
    restr = Restriction(R1=np.eye(3), R2=np.eye(2), theta=np.zeros((3, 2)),
                        theta0=np.random.default_rng(10).standard_normal((3, 2)))
    mu = limit_transform(PopulationModel(np.eye(3), 0.5), 2, restr, np.eye(3)).rho
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
    for label in law.labels:
        np.testing.assert_array_equal(law.mean(label), np.zeros((2, 2)))


def test_joint_law_pair_matches_full_grid():
    pm = population(_cfg())
    sc = _dummy_score(pm, 2)
    full = joint_law(pm, sc, RESTR)
    pair = joint_law(pm, sc, RESTR, estimators=("UE", "B3"))
    # the law of the projection with weight limit sigma, built from its
    # limit transform as any other weight's law is
    q0_law = AsymptoticLaw(labels=("UE", "RE"),
                           transforms=(limit_transform(pm, 2),
                                       limit_transform(pm, 2, RESTR, pm.sigma)),
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
    with pytest.raises(ValueError, match="law has no estimator 'nope'"):
        law.index("nope")
    with pytest.raises(ValueError, match="unknown named weight limit 'B9'"):
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
    xtx, xtz = draw_stats(stats_sampler(cfg, B), 22, 1, 0, reps)
    h = (xtz - xtx @ B) / math.sqrt(n) + math.sqrt(n) * cfg.sigma_delta2 * B
    h = h + (xtx / math.sqrt(n) - math.sqrt(n) * pm.sigma) @ pm.kbar @ B
    draws = h.reshape(reps, 1)
    cov_design = sym(draws.T @ draws) / reps
    assert sc_plain.cov[0, 0] > 2.0 * cov_design[0, 0]

    a1 = limit_transform(pm, 1).lift()
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
    with pytest.raises(ValueError, match="unknown named weight limit 'B7'"):
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
