"""The batched replication kernel against per-replication reference loops built
from the public one-dataset functions, the exact gaussian sampler of the
sufficient statistics against the row sampler, the score drawn through both,
and which plans use the process pool."""

import concurrent.futures
import math

import numpy as np
import pytest

from eivreg.asymptotics import estimate_score_cov, score_sample
from eivreg.estimators import (NAMED_WEIGHTS, build_kx, estimate_batch, lse,
                               restricted)
from eivreg.exceptions import NearSingular, RankDeficient, SingularDesign
from eivreg.linalg import rvec, sym
from eivreg.model import (ERROR_FAMILIES, DesignRule, ModelConfig, Restriction,
                          RowSampler, generate, make_restricted_b,
                          replication_rngs)
from eivreg import asymptotics, model, montecarlo
from eivreg.montecarlo import SimulationPlan, run_plan

RESTR = Restriction(R1=[[1.0, -0.5, 0.25]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])
B_SEED = np.array([[1.6, 0.8], [-0.5, 1.3], [0.4, -0.7]])
LABELS = ("LSE", "UE", "B2", "B3", "B4")
LOSS_WEIGHT = np.diag([1.0, 2.0, 0.5])


def _cfg(**kw):
    base = dict(n=200, p=3, q=2, sigma_eps2=2.0, sigma_delta2=0.5,
                sigma_psi2=0.5, M=DesignRule(low=-4, high=4, seed=1848))
    base.update(kw)
    return ModelConfig(**base)


def _plan(cfg, **kw):
    base = dict(cfg=cfg, restr=RESTR, b_seed=B_SEED, reps=24, master_seed=41,
                estimators=LABELS, weight=LOSS_WEIGHT)
    base.update(kw)
    return SimulationPlan(**base)


def _reference(plan):
    """One dataset at a time: generate, then lse / build_kx / restricted."""
    n = plan.cfg.n
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed)
    w = np.eye(plan.cfg.p) if plan.weight is None else plan.weight
    errors, losses, excluded = [], [], []
    for r in range(plan.reps):
        ds = generate(plan.cfg, b_truth, np.random.default_rng([plan.master_seed, 0, r]))
        try:
            att = build_kx(ds.X, plan.cfg.sigma_delta2)
            b1 = np.linalg.solve(att.n * att.sigma_d, ds.X.T @ ds.Z)
            weights = {"B2": att.n * att.sigma_d, "B3": att.n * att.sigma_x,
                       "B4": float(n) * np.eye(plan.cfg.p)}
            est = [lse(ds.X, ds.Z) if lbl == "LSE" else b1 if lbl == "UE"
                   else restricted(b1, weights[lbl], plan.restr)
                   for lbl in plan.estimators]
        except (NearSingular, RankDeficient, SingularDesign):
            excluded.append(r)
            continue
        devs = [e - b_truth for e in est]
        errors.append(np.concatenate([math.sqrt(n) * rvec(d) for d in devs]))
        losses.append([n * float(np.trace(d.T @ w @ d)) for d in devs])
    return np.array(errors), np.array(losses), tuple(excluded)


def _row_sampler_only(monkeypatch):
    """Draw gaussian plans through the row sampler too.  The reference loop
    replays those draws, so they test the batched estimate and reduction
    bit for bit; the exact sampler's draws are tested by their law below."""
    monkeypatch.setattr(montecarlo, "stats_sampler", RowSampler)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_run_plan_matches_reference_loop(family, monkeypatch):
    if family == "gaussian":
        _row_sampler_only(monkeypatch)
    plan = _plan(_cfg(error_family=family))
    errors, losses, excluded = _reference(plan)
    for workers in (1, 2):
        summary = run_plan(plan, workers=workers)
        np.testing.assert_array_equal(summary.errors, errors)
        assert summary.excluded == excluded == ()
        for i, lbl in enumerate(LABELS):
            np.testing.assert_allclose(summary.per_rep_losses[lbl], losses[:, i],
                                       rtol=1e-12, atol=0)


def test_excluded_replications_match_reference_loop(monkeypatch):
    _row_sampler_only(monkeypatch)
    # sigma_delta2 close to ch_min(sigma): a few plug-in sigma_d lose
    # definiteness, fewer than the 1% cap
    cfg = _cfg(n=60, p=2, sigma_eps2=1.0, sigma_psi2=0.36,
               M=DesignRule(low=-0.5, high=0.5, seed=1848))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                        theta0=[[0.9]])
    plan = _plan(cfg, restr=restr, b_seed=B_SEED[:2], reps=400, master_seed=11,
                 estimators=("UE", "B2", "B3", "B4"), weight=None)
    errors, losses, excluded = _reference(plan)
    summary = run_plan(plan)
    assert 0 < len(excluded) <= 4
    assert summary.excluded == excluded
    assert summary.rep_count == plan.reps - len(excluded)
    np.testing.assert_array_equal(summary.errors, errors)
    # past the cap the plan aborts, quoting the first reason
    monkeypatch.setattr(montecarlo, "MAX_EXCLUDED_FRACTION", 0.0)
    with pytest.raises(NearSingular, match=r"of 400 replications were excluded "
                       r"\(first: attenuation correction breaks down: ch_min"):
        run_plan(plan)


def test_singular_design_excluded_like_reference():
    # replication 1's X'X is singular: lse raises SingularDesign on its
    # dataset, and the kernel excludes it with that message
    g = np.random.default_rng(4)
    X = g.standard_normal((50, 3))
    X_bad = np.column_stack([X[:, 0], X[:, 0], X[:, 2]])
    Z = g.standard_normal((50, 2))
    with pytest.raises(SingularDesign, match="X'X is numerically singular"):
        lse(X_bad, Z)
    xtx = np.stack([X.T @ X, X_bad.T @ X_bad])
    xtz = np.stack([X.T @ Z, X_bad.T @ Z])
    batch = estimate_batch(xtx, xtz, 50, 0.1, RESTR, ("LSE",))
    assert batch.excluded == (1,)
    assert batch.reasons == ("X'X is numerically singular",)
    assert np.all(np.isnan(batch.estimates[1]))
    np.testing.assert_array_equal(batch.estimates[0, 0], lse(X, Z))


def test_singular_gram_excluded_like_reference():
    # R1 R1' has condition number 1e8; replication 1's sigma_x stretches
    # the second axis by 1e5, so R1 S^{-1} R1' has condition number about
    # 1e13 for B2 and B3, while B4's n I keeps it at 1e8
    restr = Restriction(R1=[[1.0, 0.0, 0.0], [0.0, 1e-4, 0.0]],
                        R2=[[1.0], [0.8]], theta=[[0.3], [0.1]])
    n, sd2 = 100, 0.1
    g = np.random.default_rng(5)
    X = g.standard_normal((n, 3)) + 2.0
    Z = g.standard_normal((n, 2))
    xtx = np.stack([X.T @ X, n * np.diag([1.0, 1e5, 1.0])])
    xtz = np.stack([X.T @ Z, np.ones((3, 2))])
    labels = ("UE", "B2", "B3", "B4")
    batch = estimate_batch(xtx, xtz, n, sd2, restr, labels)
    assert batch.excluded == (1,)
    assert batch.reasons == ("R1 S^{-1} R1' is numerically singular",)
    assert np.all(np.isnan(batch.estimates[1]))
    att = build_kx(X, sd2)
    b1 = np.linalg.solve(att.n * att.sigma_d, X.T @ Z)
    weights = {"B2": att.n * att.sigma_d, "B3": att.n * att.sigma_x,
               "B4": float(n) * np.eye(3)}
    np.testing.assert_array_equal(batch.estimates[0, 0], b1)
    for i, lbl in enumerate(labels[1:], start=1):
        np.testing.assert_array_equal(batch.estimates[0, i],
                                      restricted(b1, weights[lbl], restr))
    # the reference raises on replication 1's moments
    sigma_x = xtx[1] / n
    b1_bad = np.linalg.solve(n * (sigma_x - sd2 * np.eye(3)), xtz[1])
    with pytest.raises(RankDeficient):
        restricted(b1_bad, n * sigma_x, restr)


def test_non_finite_statistics_raise():
    g = np.random.default_rng(6)
    X = g.standard_normal((50, 3))
    xtx = np.stack([X.T @ X] * 2)
    xtz = np.stack([X.T @ g.standard_normal((50, 2))] * 2)
    xtz[1, 0, 1] = np.inf
    with pytest.raises(ValueError, match="X'X or X'Z overflows"):
        estimate_batch(xtx, xtz, 50, 0.1, RESTR, LABELS)
    xtz[1, 0, 1] = 1.0
    xtx[0, 2, 2] = np.nan
    with pytest.raises(ValueError, match="X'X or X'Z overflows"):
        estimate_batch(xtx, xtz, 50, 0.1, RESTR, ("LSE",))


def test_named_weights_pass_restricted_checks():
    # `_project` skips `restricted`'s weight checks: every replication that
    # passes the attenuation check must have named weights that are exactly
    # symmetric and positive definite with condition number at most 1e8.
    # ch_min(sigma_x) - sigma_delta2 is placed around 1e-8 ch_max(sigma_x),
    # on both sides of the attenuation check's line.
    g = np.random.default_rng(21)
    n, p, reps, sd2 = 40, 3, 400, 1.0
    top = 10.0 ** g.uniform(0.5, 4.0, reps)
    low = sd2 + 10.0 ** g.uniform(-9.0, -7.0, reps) * top
    eigs = np.column_stack([low, g.uniform(low, top), top])
    q = np.linalg.qr(g.standard_normal((reps, p, p)))[0]
    xtx = n * (q * eigs[:, None, :]) @ np.swapaxes(q, 1, 2)
    xtz = g.standard_normal((reps, p, 2))
    batch = estimate_batch(xtx, xtz, n, sd2, RESTR, ("UE", *NAMED_WEIGHTS))
    assert 0.2 * reps < len(batch.excluded) < 0.8 * reps
    kept = np.setdiff1d(np.arange(reps), batch.excluded)
    sigma_x = sym(xtx[kept]) / n
    sigma_d = sigma_x - sd2 * np.eye(p)
    for rule in NAMED_WEIGHTS.values():
        weight = n * rule(sigma_x, sigma_d)
        np.testing.assert_array_equal(weight, np.swapaxes(weight, 1, 2))
        w = np.linalg.eigvalsh(weight)
        assert np.all(w[:, 0] > 0)
        assert np.all(w[:, -1] <= 1e8 * w[:, 0])


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


def test_zero_cross_products_excluded_at_zero_measurement_error():
    # X'X = 0 at sigma_delta2 = 0 sits on the attenuation check's line
    # ch_min(sigma_d) = 1e-8 ch_max(sigma_x) = 0, and is excluded there
    n = 100
    g = np.random.default_rng(7)
    X = g.standard_normal((n, 3)) + 2.0
    Z = g.standard_normal((n, 2))
    with pytest.raises(NearSingular, match=r"ch_min\(sigma_d\)"):
        build_kx(np.zeros((n, 3)), 0.0)
    xtx = np.stack([X.T @ X, np.zeros((3, 3))])
    xtz = np.stack([X.T @ Z, np.zeros((3, 2))])
    batch = estimate_batch(xtx, xtz, n, 0.0, RESTR, ("UE", "B2", "B3", "B4"))
    assert batch.excluded == (1,)
    assert "ch_min(sigma_d)" in batch.reasons[0]
    assert np.all(np.isnan(batch.estimates[1]))
    att = build_kx(X, 0.0)
    b1 = np.linalg.solve(att.n * att.sigma_d, X.T @ Z)
    np.testing.assert_array_equal(batch.estimates[0, 0], b1)
    for i, weight in enumerate((att.n * att.sigma_d, att.n * att.sigma_x,
                                float(n) * np.eye(3)), start=1):
        np.testing.assert_array_equal(batch.estimates[0, i],
                                      restricted(b1, weight, RESTR))


def test_score_cov_matches_score_sample_loop():
    cfg = _cfg(p=2, error_family="shifted-exponential").at_n(300)
    B = B_SEED[:2]
    reps, seed = 60, 17
    draws = np.array([score_sample(cfg, B, np.random.default_rng([seed, 1, r]))
                      for r in range(reps)])
    sc = estimate_score_cov(cfg, B, reps=reps, seed=seed)
    np.testing.assert_array_equal(sc.cov, sym(draws.T @ draws) / reps)
    prods = draws[:, :, None] * draws[:, None, :]
    se = float(np.sqrt(np.var(prods, axis=0, ddof=1) / reps).max())
    assert sc.standard_error == pytest.approx(se, rel=1e-12, abs=0)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_score_from_sufficient_statistics_matches_latent_form(family):
    # Z - X B = E - Delta B, so X'Z - X'X B is the score's X'(E - Delta B)
    cfg = _cfg(n=2000, error_family=family)
    ds = generate(cfg, B_SEED, np.random.default_rng(8), keep_latent=True)
    xtu = ds.X.T @ (ds.latent.E - ds.latent.Delta @ B_SEED)
    xtx, xtz = RowSampler(cfg, B_SEED, cfg.design()).draw(
        [np.random.default_rng(8)], 1)
    np.testing.assert_array_equal(xtx[0], ds.X.T @ ds.X)
    np.testing.assert_array_equal(xtz[0], ds.X.T @ ds.Z)
    gap = np.linalg.norm(xtz[0] - xtx[0] @ B_SEED - xtu) / np.linalg.norm(xtu)
    assert gap <= 1e-12


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_score_draws_come_from_the_samplers(family, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the score drew a whole dataset")

    monkeypatch.setattr(model, "generate", forbidden)
    monkeypatch.setattr(asymptotics, "generate", forbidden, raising=False)
    cfg = _cfg(p=2, error_family=family)
    sc = estimate_score_cov(cfg, B_SEED[:2], reps=20, seed=5)
    assert np.all(np.isfinite(sc.cov)) and sc.standard_error > 0
    draw = score_sample(cfg, B_SEED[:2], np.random.default_rng(5))
    assert draw.shape == (4,) and np.all(np.isfinite(draw))


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_pool_only_for_row_sampler_plans(family, monkeypatch):
    # an exact-sampler replication costs less than shipping it to a worker
    opened = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    plan = _plan(_cfg(error_family=family), reps=37)
    s1 = run_plan(plan, workers=1)
    s2 = run_plan(plan, workers=2)
    assert opened == ([] if family == "gaussian" else [2])
    np.testing.assert_array_equal(s1.errors, s2.errors)
    assert s1.excluded == s2.excluded
    for lbl in plan.estimators:
        np.testing.assert_array_equal(s1.per_rep_losses[lbl],
                                      s2.per_rep_losses[lbl])


def test_design_materialized_once_per_plan(monkeypatch):
    calls = []
    original = ModelConfig.design

    def counting(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(ModelConfig, "design", counting)
    plan = _plan(_cfg(), reps=40)
    run_plan(plan)
    assert len(calls) <= 2
    calls.clear()
    estimate_score_cov(plan.cfg, B_SEED, reps=40, seed=3)
    assert len(calls) <= 2


def _omega(cfg, B):
    """Row covariance of [x_i, z_i] from the latent structure
    [x z] = [psi delta eps] L."""
    p, q = cfg.p, cfg.q
    lift = np.block([[np.eye(p), B], [np.eye(p), np.zeros((p, q))],
                     [np.zeros((q, p)), np.eye(q)]])
    var = np.repeat([cfg.sigma_psi2, cfg.sigma_delta2, cfg.sigma_eps2], [p, p, q])
    return lift.T @ (var[:, None] * lift)


def _sampler_and_exact_mean(plan):
    """The plan's exact sampler, its B, and E[W'W] = mu'mu + n Omega built
    from the design and the latent structure."""
    cfg = plan.cfg
    b_truth = make_restricted_b(cfg, plan.restr, plan.b_seed)
    design = cfg.design()
    mu = design @ np.hstack([np.eye(cfg.p), b_truth])
    sampler = model.stats_sampler(cfg, b_truth, design)
    return sampler, b_truth, mu.T @ mu + cfg.n * _omega(cfg, b_truth)


def _draw(sampler, seed, start, stop):
    """X'X and X'Z of replications start, ..., stop - 1 of stream tag 0."""
    return sampler.draw(replication_rngs(seed, 0, start, stop), stop - start)


def _pieces_mean(sampler):
    """E[W'W] from the sampler's per-plan pieces: root'root + n F F'."""
    return (sampler.root.T @ sampler.root
            + sampler.n * (sampler.factor @ sampler.factor.T))


def _stats(xtx, xtz):
    """Upper triangle of X'X and all of X'Z, one row per replication."""
    p = xtx.shape[1]
    upper = np.triu_indices(p)
    return np.hstack([xtx[:, upper[0], upper[1]], xtz.reshape(len(xtz), -1)])


def _mean_gap_se(draws, ww, p):
    """Largest gap of the draws' mean from the statistics of E[W'W] = ww, in
    standard errors of the mean."""
    target = _stats(ww[None, :p, :p], ww[None, :p, p:])[0]
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    return float(np.max(np.abs(draws.mean(axis=0) - target) / se))


def test_gaussian_sampler_mean_is_exact():
    plan = _plan(_cfg())
    sampler, _, exact = _sampler_and_exact_mean(plan)
    assert sampler.root.shape == (3, 5)
    np.testing.assert_allclose(_pieces_mean(sampler), exact, rtol=1e-12,
                               atol=1e-12 * np.abs(exact).max())


@pytest.mark.parametrize("n", [200, 4])
def test_gaussian_sampler_follows_documented_draw_order(n):
    # replays the seeding contract of the model docstring one
    # replication at a time: Q'G, Bartlett off-diagonals, chi-squares
    # (or, when n - p < p + q, the (n-p) x k normals Y)
    plan = _plan(_cfg(n=n), reps=5)
    sampler, _, _ = _sampler_and_exact_mean(plan)
    p, k = sampler.root.shape
    dof = n - p
    xtx, xtz = _draw(sampler, plan.master_seed, 0, plan.reps)
    for r in range(plan.reps):
        rng = np.random.default_rng([plan.master_seed, 0, r])
        h = sampler.root + rng.standard_normal((p, k)) @ sampler.factor.T
        if dof >= k:
            a = np.zeros((k, k))
            a[np.tril_indices(k, -1)] = rng.standard_normal(k * (k - 1) // 2)
            a[np.diag_indices(k)] = np.sqrt(rng.chisquare(dof - np.arange(k)))
        else:
            a = rng.standard_normal((dof, k)).T
        ww = h.T @ h + sampler.factor @ a @ a.T @ sampler.factor.T
        np.testing.assert_allclose(xtx[r], ww[:p, :p], rtol=1e-12)
        np.testing.assert_allclose(xtz[r], ww[:p, p:], rtol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gaussian_sampler_matches_row_sampler(seed):
    reps = 2000
    plan = _plan(_cfg(), reps=reps, master_seed=seed)
    sampler, b_truth, exact = _sampler_and_exact_mean(plan)
    wishart = _stats(*_draw(sampler, seed, 0, reps))
    rows = _stats(*_draw(RowSampler(plan.cfg, b_truth, plan.cfg.design()),
                         seed, 0, reps))
    gap = np.abs(wishart.mean(axis=0) - rows.mean(axis=0)) / np.sqrt(
        (wishart.var(axis=0, ddof=1) + rows.var(axis=0, ddof=1)) / reps)
    assert gap.max() <= 4.0
    ratio = wishart.std(axis=0, ddof=1) / rows.std(axis=0, ddof=1)
    assert np.all((ratio > 0.9) & (ratio < 1.1))
    assert _mean_gap_se(wishart, exact, 3) <= 4.0
    assert _mean_gap_se(rows, exact, 3) <= 4.0


def test_gaussian_sampler_is_chunk_and_worker_invariant():
    plan = _plan(_cfg(), reps=37)
    sampler, _, _ = _sampler_and_exact_mean(plan)
    full = _draw(sampler, plan.master_seed, 0, plan.reps)
    part = _draw(sampler, plan.master_seed, 17, 30)
    for whole, piece in zip(full, part):
        np.testing.assert_array_equal(whole[17:30], piece)
    s1 = run_plan(plan, workers=1)
    s2 = run_plan(plan, workers=2)
    np.testing.assert_array_equal(s1.errors, s2.errors)
    assert s1.excluded == s2.excluded
    for lbl in plan.estimators:
        np.testing.assert_array_equal(s1.per_rep_losses[lbl],
                                      s2.per_rep_losses[lbl])


@pytest.mark.parametrize("case", ["singular-omega", "n-p-below-p+q",
                                  "n-p-equals-p+q"])
def test_gaussian_sampler_edge_cases(case):
    # at small n a wrong chi-square degree of freedom moves the mean by many SEs
    if case == "singular-omega":
        # no response noise and q > p: the z-block of Omega has rank <= p
        cfg = _cfg(p=2, q=3, sigma_eps2=0.0)
    elif case == "n-p-below-p+q":
        # n - p = 2 < p + q = 5: no Bartlett form, Y'Y from (n-p) x k normals
        cfg = _cfg(n=4, p=2, q=3, sigma_psi2=1.0, sigma_delta2=0.01,
                   M=DesignRule(low=-0.5, high=0.5, seed=1848))
    else:
        # n - p = p + q: the last Bartlett chi-square has one degree of freedom
        cfg = _cfg(n=7, p=2, q=3, sigma_psi2=1.0, sigma_delta2=0.01,
                   M=DesignRule(low=-0.5, high=0.5, seed=1848))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8], [0.2]],
                        theta=[[0.3]], theta0=[[0.9]])
    b_seed = np.array([[1.6, 0.8, -0.3], [-0.5, 1.3, 0.6]])
    plan = _plan(cfg, restr=restr, b_seed=b_seed, reps=4000,
                 estimators=("UE", "B2"), weight=None)
    sampler, b_truth, exact = _sampler_and_exact_mean(plan)
    if case == "singular-omega":
        assert np.linalg.matrix_rank(_omega(cfg, b_truth)) < cfg.p + cfg.q
    elif case == "n-p-below-p+q":
        assert cfg.n - cfg.p < cfg.p + cfg.q
    np.testing.assert_allclose(_pieces_mean(sampler), exact, rtol=1e-12,
                               atol=1e-12 * np.abs(exact).max())
    draws = _stats(*_draw(sampler, plan.master_seed, 0, plan.reps))
    assert _mean_gap_se(draws, exact, cfg.p) <= 4.0
    summary = run_plan(plan)
    assert summary.rep_count > 0.99 * plan.reps
    assert np.all(np.isfinite(summary.errors))
