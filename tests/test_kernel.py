"""The batched replication kernel against per-replication reference loops built
from the public one-dataset functions, the exact gaussian sampler of the
sufficient statistics against the row sampler, the score drawn through both,
and which plans use the thread pool."""

import concurrent.futures
import math
import sys

import numpy as np
import pytest

from eivreg.asymptotics import estimate_score_cov, score_sample
from eivreg.estimators import (NAMED_WEIGHTS, build_kx, estimate_batch, lse,
                               restricted)
from eivreg.exceptions import EivregError
from eivreg.linalg import rvec, sym
from eivreg.model import (BLOCK, CHUNK, ERROR_FAMILIES, DesignRule, ModelConfig,
                          Restriction, RowSampler, generate, make_restricted_b,
                          stream_rng)
from eivreg import asymptotics, model, montecarlo
from eivreg.montecarlo import SimulationPlan, run_plan
from test_model import replay_latent

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
    base = dict(cfg=cfg, restr=RESTR, b_seed=B_SEED, reps=24, key=(41, 0),
                estimators=LABELS, weight=LOSS_WEIGHT)
    base.update(kw)
    return SimulationPlan(**base)


def _rep_rngs(key, reps):
    """The generator of each of replications 0, ..., reps - 1: its block's,
    drawn on by the block's replications in turn."""
    blocks = [stream_rng((*key, b)) for b in range(-(-reps // BLOCK))]
    return [blocks[r // BLOCK] for r in range(reps)]


def _reference(plan):
    """One dataset at a time: generate, then lse / build_kx / restricted.
    Returns the kept replications' errors and losses, and the excluded ones
    with their messages."""
    n = plan.cfg.n
    b_truth = make_restricted_b(plan.cfg, plan.restr, plan.b_seed)
    w = np.eye(plan.cfg.p) if plan.weight is None else plan.weight
    errors, losses, excluded, reasons = [], [], [], []
    for r, rng in enumerate(_rep_rngs(plan.key, plan.reps)):
        ds = generate(plan.cfg, b_truth, rng)
        try:
            att = build_kx(ds.X, plan.cfg.sigma_delta2)
            b1 = np.linalg.solve(att.n * att.sigma_d, ds.X.T @ ds.Z)
            weights = {"B2": att.n * att.sigma_d, "B3": att.n * att.sigma_x,
                       "B4": float(n) * np.eye(plan.cfg.p)}
            est = [lse(ds.X, ds.Z) if lbl == "LSE" else b1 if lbl == "UE"
                   else restricted(b1, weights[lbl], plan.restr)
                   for lbl in plan.estimators]
        except EivregError as exc:
            excluded.append(r)
            reasons.append(str(exc))
            continue
        devs = [e - b_truth for e in est]
        errors.append(np.concatenate([math.sqrt(n) * rvec(d) for d in devs]))
        losses.append([n * float(np.trace(d.T @ w @ d)) for d in devs])
    return np.array(errors), np.array(losses), tuple(excluded), tuple(reasons)


def _row_sampler_only(monkeypatch):
    """Draw gaussian plans through the row sampler too.  The reference loop
    replays those draws, so they test the batched estimate and reduction
    bit for bit; the exact sampler's draws are tested by their law below."""
    monkeypatch.setattr(model, "stats_sampler", RowSampler)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_run_plan_matches_reference_loop(family, monkeypatch):
    if family == "gaussian":
        _row_sampler_only(monkeypatch)
    # three blocks, the last one partial; two workers get one task per block
    plan = _plan(_cfg(error_family=family), reps=2 * BLOCK + 5)
    errors, losses, excluded, _ = _reference(plan)
    for workers in (1, 2):
        summary = run_plan(plan, workers=workers)
        np.testing.assert_array_equal(summary.errors, errors)
        assert summary.excluded == excluded == ()
        np.testing.assert_allclose(summary.losses, losses, rtol=1e-12, atol=0)


def test_excluded_replications_match_reference_loop(monkeypatch):
    _row_sampler_only(monkeypatch)
    # sigma_delta2 close to ch_min(sigma): a few plug-in sigma_d lose
    # definiteness, fewer than the 1% cap
    cfg = _cfg(n=60, p=2, sigma_eps2=1.0, sigma_psi2=0.36,
               M=DesignRule(low=-0.5, high=0.5, seed=1848))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                        theta0=[[0.9]])
    plan = _plan(cfg, restr=restr, b_seed=B_SEED[:2], reps=400, key=(11, 0),
                 estimators=("UE", "B2", "B3", "B4"), weight=None)
    errors, losses, excluded, _ = _reference(plan)
    summary = run_plan(plan)
    assert 0 < len(excluded) <= 4
    assert summary.excluded == excluded
    assert summary.rep_count == plan.reps - len(excluded)
    np.testing.assert_array_equal(summary.errors, errors)
    # past the cap the plan aborts, quoting the first reason
    monkeypatch.setattr(montecarlo, "MAX_EXCLUDED_FRACTION", 0.0)
    with pytest.raises(EivregError, match=r"of 400 replications were excluded "
                       r"\(first: attenuation correction breaks down: ch_min"):
        run_plan(plan)


@pytest.mark.parametrize("family", ["gaussian", "shifted-exponential"])
@pytest.mark.parametrize("reps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
def test_run_plan_is_chunk_invariant(family, reps, monkeypatch):
    # the exact sampler's stacked products and the row sampler's pooled
    # draws, chunk by chunk, against the whole plan as one chunk
    plan = _plan(_cfg(error_family=family), reps=reps)
    with monkeypatch.context() as m:
        m.setattr(model, "CHUNK", 4 * CHUNK)
        whole = run_plan(plan)
    for workers in (1, 2):
        summary = run_plan(plan, workers=workers)
        np.testing.assert_array_equal(summary.errors, whole.errors)
        np.testing.assert_array_equal(summary.losses, whole.losses)
        assert summary.excluded == whole.excluded
        assert summary.rep_count == reps


@pytest.mark.parametrize("family", ["gaussian", "shifted-exponential"])
def test_score_cov_is_chunk_invariant(family, monkeypatch):
    # three chunks, the last one partial, against the stream as one chunk
    cfg, B, reps = _cfg(p=2, error_family=family), B_SEED[:2], 2 * CHUNK + 5
    with monkeypatch.context() as m:
        m.setattr(model, "CHUNK", 4 * CHUNK)
        whole = estimate_score_cov(cfg, B, reps=reps, key=(19, 1))
    for workers in (1, 2):
        sc = estimate_score_cov(cfg, B, reps=reps, key=(19, 1), workers=workers)
        np.testing.assert_array_equal(sc.cov, whole.cov)
        assert sc.standard_error == whole.standard_error


def test_exclusions_in_two_chunks_match_reference_loop(monkeypatch):
    _row_sampler_only(monkeypatch)
    # test_excluded_replications_match_reference_loop's plan, a chunk and a bit long
    cfg = _cfg(n=60, p=2, sigma_eps2=1.0, sigma_psi2=0.36,
               M=DesignRule(low=-0.5, high=0.5, seed=1848))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                        theta0=[[0.9]])
    plan = _plan(cfg, restr=restr, b_seed=B_SEED[:2], reps=CHUNK + 100,
                 key=(11, 0), estimators=("UE", "B2", "B3", "B4"), weight=None)
    errors, losses, excluded, reasons = _reference(plan)
    summary = run_plan(plan)
    assert {r // CHUNK for r in excluded} == {0, 1}
    assert summary.excluded == excluded
    np.testing.assert_array_equal(summary.errors, errors)
    np.testing.assert_allclose(summary.losses, losses, rtol=1e-12, atol=0)
    # the cap counts every chunk's exclusions and quotes the first reason
    monkeypatch.setattr(montecarlo, "MAX_EXCLUDED_FRACTION", 0.0)
    with pytest.raises(EivregError) as exc:
        run_plan(plan)
    assert str(exc.value) == (f"{len(excluded)} of {plan.reps} replications were "
                              f"excluded (first: {reasons[0]})")


def test_singular_design_excluded_like_reference():
    # replication 1's X'X is singular: lse raises EivregError on its
    # dataset, and the kernel excludes it with that message
    g = np.random.default_rng(4)
    X = g.standard_normal((50, 3))
    X_bad = np.column_stack([X[:, 0], X[:, 0], X[:, 2]])
    Z = g.standard_normal((50, 2))
    with pytest.raises(EivregError, match="X'X is numerically singular"):
        lse(X_bad, Z)
    xtx = np.stack([X.T @ X, X_bad.T @ X_bad])
    xtz = np.stack([X.T @ Z, X_bad.T @ Z])
    batch = estimate_batch(xtx, xtz, 50, 0.1, RESTR, ("LSE",))
    assert batch.excluded == (1,)
    assert batch.reasons == ("X'X is numerically singular",)
    assert np.all(np.isnan(batch.estimates[1]))
    np.testing.assert_array_equal(batch.estimates[0, 0], lse(X, Z))


def test_lse_exclusions_match_reference_at_the_condition_limit():
    # X'X with condition numbers 1e11 and 1e13, either side of COND_LIMIT:
    # the kernel excludes exactly the replications where lse raises, with
    # lse's message, and matches lse bit for bit on the others
    g = np.random.default_rng(9)
    n, p, conds = 60, 3, (1e11, 1e13) * 4
    datasets = []
    for cond in conds:
        u = np.linalg.qr(g.standard_normal((n, p)))[0]
        v = np.linalg.qr(g.standard_normal((p, p)))[0]
        X = (u * np.sqrt(np.geomspace(1.0, cond, p))) @ v.T
        datasets.append((X, g.standard_normal((n, 2))))
    xtx = np.stack([X.T @ X for X, _ in datasets])
    xtz = np.stack([X.T @ Z for X, Z in datasets])
    batch = estimate_batch(xtx, xtz, n, 0.0, RESTR, ("LSE",))
    raised = []
    for r, (X, Z) in enumerate(datasets):
        try:
            np.testing.assert_array_equal(batch.estimates[r, 0], lse(X, Z))
        except EivregError as exc:
            raised.append((r, str(exc)))
    assert [r for r, _ in raised] == [1, 3, 5, 7]
    assert batch.excluded == tuple(r for r, _ in raised)
    assert batch.reasons == tuple(msg for _, msg in raised)
    assert set(batch.reasons) == {"X'X is numerically singular"}


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
    with pytest.raises(EivregError, match=r"R1 S\^\{-1\} R1' is numerically singular"):
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
    # `estimate_batch` skips `restricted`'s weight checks: every replication that
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
    with pytest.raises(EivregError, match=r"ch_min\(sigma_d\)"):
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
    reps, seed = BLOCK + 5, 17
    draws = np.array([score_sample(cfg, B, rng)
                      for rng in _rep_rngs((seed, 1), reps)])
    sc = estimate_score_cov(cfg, B, reps=reps, key=(seed, 1))
    np.testing.assert_array_equal(sc.cov, sym(draws.T @ draws) / reps)
    prods = draws[:, :, None] * draws[:, None, :]
    se = float(np.sqrt(np.var(prods, axis=0, ddof=1) / reps).max())
    assert sc.standard_error == pytest.approx(se, rel=1e-12, abs=0)


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_score_from_sufficient_statistics_matches_latent_form(family):
    # Z - X B = E - Delta B, so X'Z - X'X B is the score's X'(E - Delta B)
    # a block's replications draw one after another from its generator
    cfg = _cfg(n=2000, error_family=family)
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    datasets = [generate(cfg, B_SEED, rng) for _ in range(2)]
    xtx, xtz = RowSampler(cfg, B_SEED).draw(np.random.default_rng(8), 2)
    for i, ds in enumerate(datasets):
        E, Delta, Psi = replay_latent(cfg, replay)
        np.testing.assert_array_equal(ds.X, cfg.design() + Psi + Delta)
        xtu = ds.X.T @ (E - Delta @ B_SEED)
        np.testing.assert_array_equal(xtx[i], ds.X.T @ ds.X)
        np.testing.assert_array_equal(xtz[i], ds.X.T @ ds.Z)
        gap = np.linalg.norm(xtz[i] - xtx[i] @ B_SEED - xtu) / np.linalg.norm(xtu)
        assert gap <= 1e-12


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_score_draws_come_from_the_samplers(family, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the score drew a whole dataset")

    monkeypatch.setattr(model, "generate", forbidden)
    monkeypatch.setattr(asymptotics, "generate", forbidden, raising=False)
    cfg = _cfg(p=2, error_family=family)
    sc = estimate_score_cov(cfg, B_SEED[:2], reps=20, key=(5, 1))
    assert np.all(np.isfinite(sc.cov)) and sc.standard_error > 0
    draw = score_sample(cfg, B_SEED[:2], np.random.default_rng(5))
    assert draw.shape == (4,) and np.all(np.isfinite(draw))


def record_pools(monkeypatch) -> list:
    """The max_workers of each thread pool opened from now on."""
    opened = []
    real = concurrent.futures.ThreadPoolExecutor

    class Recording(real):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return opened


@pytest.mark.parametrize("family", sorted(ERROR_FAMILIES))
def test_pool_only_for_row_sampler_plans(family, monkeypatch):
    # an exact-sampler replication costs less than shipping it to a worker
    opened = record_pools(monkeypatch)
    # two workers take a row-sampler plan's four blocks, the last one
    # partial, as one task each
    plan = _plan(_cfg(error_family=family), reps=3 * BLOCK + 7)
    s1 = run_plan(plan, workers=1)
    s2 = run_plan(plan, workers=2)
    assert opened == ([] if family == "gaussian" else [2])
    np.testing.assert_array_equal(s1.errors, s2.errors)
    assert s1.excluded == s2.excluded
    np.testing.assert_array_equal(s1.losses, s2.losses)


def test_pooled_draw_identical_with_threads_switching_often():
    # more threads than most test machines have cores, switched as often as
    # the interpreter allows: a pool task shares only read-only state
    cfg = _cfg(error_family="scaled-t")
    B = make_restricted_b(cfg, RESTR, B_SEED)
    reps = 16 * BLOCK + 5
    want = list(model.draw_stats(cfg, B, (7, 0), reps))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(model.draw_stats(cfg, B, (7, 0), reps, workers=8))
    finally:
        sys.setswitchinterval(interval)
    for (start_a, *a), (start_b, *b) in zip(want, got, strict=True):
        assert start_a == start_b
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)


def test_design_materialized_once_per_plan(monkeypatch):
    calls = []
    original = ModelConfig.design

    def counting(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(ModelConfig, "design", counting)
    # three chunks: the sampler is made once, not per chunk
    plan = _plan(_cfg(), reps=2 * CHUNK + 40)
    run_plan(plan)
    assert len(calls) <= 2
    calls.clear()
    estimate_score_cov(plan.cfg, B_SEED, reps=40, key=(3, 1))
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
    mu = cfg.design() @ np.hstack([np.eye(cfg.p), b_truth])
    sampler = model.stats_sampler(cfg, b_truth)
    return sampler, b_truth, mu.T @ mu + cfg.n * _omega(cfg, b_truth)


def _draw(sampler, key, start, stop):
    """X'X and X'Z of replications start, ..., stop - 1 of the stream `key`,
    start on a block boundary, drawn by `sampler` one block at a time."""
    parts = [sampler.draw(stream_rng((*key, lo // BLOCK)), min(BLOCK, stop - lo))
             for lo in range(start, stop, BLOCK)]
    return tuple(map(np.concatenate, zip(*parts)))


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
    sampler, b_truth, exact = _sampler_and_exact_mean(plan)
    assert sampler.root.shape == (3, 5)
    np.testing.assert_allclose(_pieces_mean(sampler), exact, rtol=1e-12,
                               atol=1e-12 * np.abs(exact).max())
    # draws over replications that straddle block boundaries, both samplers
    reps = 2 * BLOCK + 5
    rows = RowSampler(plan.cfg, b_truth)
    for drawn in (sampler, rows):
        draws = _stats(*_draw(drawn, plan.key, 0, reps))
        assert _mean_gap_se(draws, exact, 3) <= 4.0


@pytest.mark.parametrize("n", [200, 4, 8])
def test_gaussian_sampler_follows_documented_draw_order(n):
    # replays the seeding contract of the model docstring over a full and a
    # partial block, one replication at a time within each draw.  At
    # n - p >= p + q (n = 8 = 2p + q on the boundary): every replication's
    # Q'G, then every one's Bartlett off-diagonals, then every one's
    # chi-squares one by one.  Below it: `generate`'s datasets, bit for bit
    plan = _plan(_cfg(n=n), reps=BLOCK + 5)
    sampler, b_truth, _ = _sampler_and_exact_mean(plan)
    p, k = plan.cfg.p, plan.cfg.p + plan.cfg.q
    dof = n - p
    assert isinstance(sampler, RowSampler) == (dof < k)
    xtx, xtz = _draw(sampler, plan.key, 0, plan.reps)
    for b, lo in enumerate(range(0, plan.reps, BLOCK)):
        m = min(BLOCK, plan.reps - lo)
        rng = np.random.default_rng([*plan.key, b])
        if dof < k:
            for i in range(m):
                ds = generate(plan.cfg, b_truth, rng)
                np.testing.assert_array_equal(xtx[lo + i], ds.X.T @ ds.X)
                np.testing.assert_array_equal(xtz[lo + i], ds.X.T @ ds.Z)
            continue
        g = [rng.standard_normal((p, k)) for _ in range(m)]
        off = [rng.standard_normal(k * (k - 1) // 2) for _ in range(m)]
        chi = [[rng.chisquare(dof - j) for j in range(k)] for _ in range(m)]
        for i in range(m):
            h = sampler.root + g[i] @ sampler.factor.T
            a = np.zeros((k, k))
            a[np.tril_indices(k, -1)] = off[i]
            a[np.diag_indices(k)] = np.sqrt(chi[i])
            ww = h.T @ h + sampler.factor @ a @ a.T @ sampler.factor.T
            np.testing.assert_allclose(xtx[lo + i], ww[:p, :p], rtol=1e-12)
            np.testing.assert_allclose(xtz[lo + i], ww[:p, p:], rtol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gaussian_sampler_matches_row_sampler(seed):
    reps = 2000
    plan = _plan(_cfg(), reps=reps, key=(seed, 0))
    sampler, b_truth, exact = _sampler_and_exact_mean(plan)
    wishart = _stats(*_draw(sampler, plan.key, 0, reps))
    rows = _stats(*_draw(RowSampler(plan.cfg, b_truth), plan.key, 0, reps))
    gap = np.abs(wishart.mean(axis=0) - rows.mean(axis=0)) / np.sqrt(
        (wishart.var(axis=0, ddof=1) + rows.var(axis=0, ddof=1)) / reps)
    assert gap.max() <= 4.0
    ratio = wishart.std(axis=0, ddof=1) / rows.std(axis=0, ddof=1)
    assert np.all((ratio > 0.9) & (ratio < 1.1))
    assert _mean_gap_se(wishart, exact, 3) <= 4.0
    assert _mean_gap_se(rows, exact, 3) <= 4.0


def test_gaussian_sampler_is_chunk_and_worker_invariant():
    plan = _plan(_cfg(), reps=2 * BLOCK + 5)
    sampler, _, _ = _sampler_and_exact_mean(plan)
    full = _draw(sampler, plan.key, 0, plan.reps)
    part = _draw(sampler, plan.key, BLOCK, plan.reps)
    for whole, piece in zip(full, part):
        np.testing.assert_array_equal(whole[BLOCK:], piece)
    s1 = run_plan(plan, workers=1)
    s2 = run_plan(plan, workers=2)
    np.testing.assert_array_equal(s1.errors, s2.errors)
    assert s1.excluded == s2.excluded
    np.testing.assert_array_equal(s1.losses, s2.losses)


def test_one_generator_per_block(monkeypatch):
    plan = _plan(_cfg(), reps=5000)
    seeded = []
    real = np.random.default_rng

    def counting(seed=None):
        if isinstance(seed, list) and seed[:2] == list(plan.key):
            seeded.append(seed[2])
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    run_plan(plan)
    assert seeded == list(range(79))  # ceil(5000 / 64)


@pytest.mark.parametrize("case", ["singular-omega", "n-p-below-p+q",
                                  "n-p-equals-p+q"])
def test_gaussian_sampler_edge_cases(case):
    # at small n a wrong chi-square degree of freedom moves the mean by many SEs
    if case == "singular-omega":
        # no response noise and q > p: the z-block of Omega has rank <= p
        cfg = _cfg(p=2, q=3, sigma_eps2=0.0)
    elif case == "n-p-below-p+q":
        # n - p = 2 < p + q = 5: no Bartlett form, so the row sampler
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
        assert cfg.n - cfg.p < cfg.p + cfg.q and isinstance(sampler, RowSampler)
    if not isinstance(sampler, RowSampler):
        np.testing.assert_allclose(_pieces_mean(sampler), exact, rtol=1e-12,
                                   atol=1e-12 * np.abs(exact).max())
    draws = _stats(*_draw(sampler, plan.key, 0, plan.reps))
    assert _mean_gap_se(draws, exact, cfg.p) <= 4.0
    summary = run_plan(plan)
    assert summary.rep_count > 0.99 * plan.reps
    assert np.all(np.isfinite(summary.errors))
