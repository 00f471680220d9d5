"""Replication engine: determinism, law comparison, loss diagnostics, and the
affine-limit suite, which calibrates `compare_law` on a known law."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from eivreg.asymptotics import (AsymptoticLaw, closed_form_score_cov,
                                estimate_score_cov, joint_law, law_inputs,
                                named_weight_limit, population)
from eivreg.config import parse_config
from eivreg.estimators import LAW_LABELS
from eivreg.exceptions import EivregError
from eivreg.linalg import AffineTransform, psd_factor, sym
from eivreg.model import (STREAMS, DesignRule, ModelConfig, Restriction,
                          make_restricted_b, stream_rng)
from eivreg.montecarlo import (MEAN_TOL_SE, EmpiricalSummary, SimulationPlan,
                               _rel_fro, compare_law, replication_plan, run_plan)
from eivreg.risk import dominance_report
from eivreg.verify import (_random_transform, criterion_law_agreement,
                           criterion_sqrt_n_rate)

RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])
B_SEED = np.array([[1.6, 0.8], [-0.5, 1.3]])
ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.yaml"


def _cfg(**kw):
    base = dict(n=400, p=2, q=2, sigma_eps2=2.0, sigma_delta2=0.5,
                sigma_psi2=0.5, M=DesignRule(low=-4, high=4, seed=1848))
    base.update(kw)
    return ModelConfig(**base)


def _plan(**kw):
    base = dict(cfg=_cfg(), restr=RESTR, b_seed=B_SEED, reps=200,
                key=(99, 0))
    base.update(kw)
    return SimulationPlan(**base)


def _summary_from_law_draws(law, ndraws, rng):
    """Sample the stacked limit law directly (bypassing the model); the
    resulting summary must agree with the law itself."""
    factor = psd_factor(sym(law.full_cov()))
    z = rng.standard_normal((ndraws, factor.shape[1]))
    draws = z @ factor.T + law.full_mean()
    losses = np.zeros((ndraws, len(law.labels)))
    return EmpiricalSummary(labels=law.labels, p=law.p, q=law.q,
                            errors=draws, losses=losses)


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
    np.testing.assert_array_equal(s1.losses, s8.losses)


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
    cmp = compare_law(summary, law)
    assert cmp.worst_cov <= 0.10
    assert cmp.worst_mean <= MEAN_TOL_SE


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
    cmp = compare_law(summary, wrong_law)
    assert not cmp.passed
    assert cmp.worst_cov > 0.3


def test_compare_law_label_mismatch():
    cfg = _cfg(n=1000)
    pm = population(cfg)
    sc = np.eye(4)
    law = joint_law(pm, sc, RESTR, estimators=("UE", "B2"))
    summary = _summary_from_law_draws(law, 100, np.random.default_rng(9))
    other = joint_law(pm, sc, RESTR, estimators=("UE", "B3"))
    with pytest.raises(ValueError, match="summary and law describe different"):
        compare_law(summary, other)


def test_exclusion_policy_raises_when_widespread():
    # with a nearly-flat design and no latent variance, X'X/n - sigma_delta2 I
    # hovers at zero and the attenuation correction fails in a large share of
    # replications, tripping the exclusion cap
    cfg = _cfg(n=120, sigma_psi2=0.0, sigma_eps2=1.0,
               M=DesignRule(low=-0.05, high=0.05, seed=3), sigma_delta2=1.0)
    plan = _plan(cfg=cfg, reps=60, estimators=("UE",))
    with pytest.raises(EivregError, match="replications were excluded"):
        run_plan(plan)


def test_loss_scale_constant_in_n():
    medians = []
    for n in (500, 2000, 8000):
        plan = _plan(cfg=_cfg(n=n), reps=100, estimators=("UE",),
                     key=(40 + n, 0))
        summary = run_plan(plan, workers=4)
        medians.append(float(np.median(summary.losses[:, 0])))
    for a, b in zip(medians, medians[1:]):
        assert 0.5 <= b / a <= 2.0


def test_zero_direction_plan_means_centered():
    # under the exact restriction all four limit means are zero and the
    # empirical means must sit within Monte Carlo resolution of them
    cfg = _cfg(n=800)
    restr = Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta)
    plan = _plan(cfg=cfg, restr=restr, reps=800, key=(71, 0))
    summary = run_plan(plan, workers=4)
    pm = population(cfg)
    b_truth = make_restricted_b(cfg, restr, B_SEED)
    sc = estimate_score_cov(cfg, b_truth, reps=800, key=(72, 1)).cov
    law = joint_law(pm, sc, restr)
    cmp = compare_law(summary, law)
    assert cmp.worst_cov <= 0.35
    assert cmp.worst_mean <= 4.0
    for label in law.labels:
        np.testing.assert_array_equal(law.mean(label), np.zeros((2, 2)))


def test_law_agreement_under_skewed_errors():
    # the score-covariance estimate carries the family's higher moments: the
    # skewed-family law matches its own simulation and differs from gaussian
    cfg = _cfg(n=1000, error_family="shifted-exponential")
    pm = population(cfg)
    cfg_s = cfg.at_n(2000)
    b_s = make_restricted_b(cfg_s, RESTR, B_SEED)
    score = estimate_score_cov(cfg_s, b_s, reps=2000, key=(51, 1))
    law = joint_law(pm, score.cov, RESTR)
    plan = _plan(cfg=cfg, reps=2000, key=(52, 0))
    summary = run_plan(plan, workers=4)
    cmp = compare_law(summary, law)
    assert cmp.passed, (cmp.worst_cov, cmp.worst_mean)
    # the exact gap is 0.11, so two Monte Carlo estimates of it cannot be
    # held to the line; each is held to its own closed form instead
    cfg_g = _cfg(n=2000, error_family="gaussian")
    exact, exact_g = (closed_form_score_cov(c, b_s) for c in (cfg_s, cfg_g))
    rel = np.linalg.norm(exact - exact_g) / np.linalg.norm(exact_g)
    assert rel > 0.10
    score_g = estimate_score_cov(cfg_g, b_s, reps=2000, key=(53, 1))
    for sc, ref in ((score, exact), (score_g, exact_g)):
        assert np.max(np.abs(sc.cov - ref)) <= 4.0 * sc.standard_error


def _z_scaled_comparison(j, reps=300):
    """`compare_law` of a replication study on the default config with Z
    alone scaled by 2^j: sigma_eps2 by 4^j, and B_seed, theta and theta0 by
    2^j.  X does not change, so neither should any ratio of the comparison."""
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    doc["model"]["sigma_eps2"] *= 4.0 ** j
    for sec, key in (("simulation", "B_seed"), ("restriction", "theta"),
                     ("restriction", "theta0")):
        doc[sec][key] = np.ldexp(np.asarray(doc[sec][key], dtype=float), j).tolist()
    doc["simulation"]["reps"] = reps
    run = parse_config(doc)
    summary = run_plan(replication_plan(run, LAW_LABELS))
    pm, lam = law_inputs(run)
    return compare_law(summary, joint_law(pm, lam, run.restriction, LAW_LABELS))


def test_gaussian_sampler_invariant_to_z_scale():
    # the exact sampler's factor keeps X's block exact when Z's scale is
    # 2^20 times X's
    base, scaled = _z_scaled_comparison(0), _z_scaled_comparison(20)
    for got, want in ((scaled.cov_rel_fro, base.cov_rel_fro),
                      (scaled.mean_max_se, base.mean_max_se)):
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12)


def test_rel_fro_at_any_power_of_two_scale():
    # a normal-range ratio keeps every bit at any exact scale of its
    # operands, and one beyond double precision is inf, with no warning
    g = np.random.default_rng(5)
    ref = g.standard_normal((4, 4))
    emp = ref + 1e-3 * g.standard_normal((4, 4))
    base = float(np.linalg.norm(emp - ref) / np.linalg.norm(ref))
    for k in (-1000, -3, 0, 3, 1000):
        assert _rel_fro(np.ldexp(emp, k), np.ldexp(ref, k)) == base
    assert _rel_fro(emp, np.zeros((4, 4))) == np.linalg.norm(emp)
    tiny = np.full((2, 2), 1e-300)
    assert _rel_fro(np.full((2, 2), 1e-29), tiny) == pytest.approx(1e271)
    assert _rel_fro(np.full((2, 2), 1e300), tiny) == math.inf


def test_restricted_risk_ordering_at_restriction():
    plan = _plan(cfg=_cfg(n=800),
                 restr=Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta),
                 reps=600)
    summary = run_plan(plan, workers=4)
    ue = summary.losses[:, summary.labels.index("UE")]
    for lbl in ("B2", "B3", "B4"):
        re = summary.losses[:, summary.labels.index(lbl)]
        diff = re - ue
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() <= 2.0 * se


def test_empirical_adr_matches_theory():
    cfg = _cfg(n=2000)
    restr = RESTR
    pm = population(cfg)
    b_truth = make_restricted_b(cfg, restr, B_SEED)
    sc = estimate_score_cov(cfg, b_truth, reps=2000, key=(10, 1)).cov
    plan = _plan(cfg=cfg, reps=2000, key=(11, 0))
    summary = run_plan(plan, workers=4)
    rep = dominance_report(np.eye(2), pm, sc, restr, named_weight_limit(pm, "B3"))
    theory_ue = rep.adr_ue
    theory_re = rep.adr_re
    # mean per-replication loss n ||b - B||_W^2, the empirical counterpart of ADR
    empirical = {lbl: float(summary.losses[:, summary.labels.index(lbl)].mean())
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


# affine-limit suite: AFFINE_M transforms of p-by-q matrices whose coefficients
# converge at rate AFFINE_N_CONV^{-1/2}
AFFINE_M, AFFINE_P, AFFINE_Q, AFFINE_N_CONV = 3, 2, 2, 10_000


def affine_limit_suite(seed, draws):
    """Push a converging matrix-normal sequence through AFFINE_M random affine
    transforms with converging coefficients, and `compare_law` the draws with
    the `AsymptoticLaw` of the transforms.

    Also checks the two-transform specialization with an identity first
    component: the cross block must equal lam @ (I + kron(alpha2.T, beta2)).
    Returns the comparison and that pair's worst relative Frobenius gap.
    """
    m, p, q, n_conv = AFFINE_M, AFFINE_P, AFFINE_Q, AFFINE_N_CONV
    g = stream_rng((seed, STREAMS["affine_limits"]))
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
    law = AsymptoticLaw(labels=labels, transforms=tuple(transforms), lam=lam)
    summary = EmpiricalSummary(labels=labels, p=p, q=q, errors=stacked,
                               losses=np.empty((draws, 0)))  # no estimates, no losses
    cmp = compare_law(summary, law)

    # identity-first pair: the cross block gains the transposed-lift factor
    # and the second diagonal block is the two-sided lift of the score cov
    t_pair = AffineTransform(kappa=np.eye(p), iota=np.eye(q),
                             alpha=transforms[0].alpha, beta=transforms[0].beta,
                             rho=transforms[0].rho)
    base = y.reshape(draws, pq)
    second = (y + t_pair.alpha @ y @ t_pair.beta + t_pair.rho).reshape(draws, pq)
    joint = np.cov(np.hstack([base, second]).T)
    lift2 = t_pair.lift()
    v12_ref = lam + lam @ np.kron(t_pair.alpha.T, t_pair.beta)
    v22_ref = lift2 @ lam @ lift2.T
    pair_rel = max(_rel_fro(joint[:pq, pq:], v12_ref),
                   _rel_fro(joint[pq:, pq:], v22_ref))
    return cmp, pair_rel


def test_affine_limit_suite_blocks_and_means():
    cmp, pair_rel = affine_limit_suite(seed=123, draws=60_000)
    assert cmp.passed
    assert len(cmp.cov_rel_fro) == 9
    assert cmp.worst_cov <= 0.10
    assert cmp.worst_mean <= 4.0
    assert pair_rel <= 0.10


def test_identity_transform_recovers_cov():
    # single identity transform: the empirical covariance is the law's own
    g = np.random.default_rng(12)
    f = g.standard_normal((4, 4))
    lam = sym(f @ f.T) + np.eye(4)
    t = AffineTransform(kappa=np.eye(2), iota=np.eye(2), alpha=np.zeros((2, 2)),
                        beta=np.zeros((2, 2)), rho=np.zeros((2, 2)))
    law = AsymptoticLaw(labels=("T",), transforms=(t,), lam=lam)
    np.testing.assert_allclose(law.block(0, 0), lam, atol=1e-12)
    np.testing.assert_allclose(law.full_cov(), lam, atol=1e-12)
    y = g.standard_normal((50_000, 4)) @ psd_factor(lam).T
    emp = np.cov(y.T)
    assert np.linalg.norm(emp - lam) / np.linalg.norm(lam) <= 0.10


def test_stream_tags_are_distinct_and_in_the_readme_contract():
    assert len(set(STREAMS.values())) == len(STREAMS)
    contract = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Reproducibility contract", 1)[1]
    for name, tag in STREAMS.items():
        assert f"| `{name}` | {tag} |" in contract
    # numpy reads trailing zeros of a key as absent, so the truth B's tag 0
    # keeps the generator default_rng(master_seed)
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    del doc["simulation"]["B_seed"]
    run = parse_config(doc)
    seed = run.simulation.master_seed
    assert STREAMS["truth_B"] == 0
    np.testing.assert_array_equal(run.simulation.B_seed, np.random.default_rng(
        seed).uniform(-1.0, 1.0, size=(run.model.p, run.model.q)))


def test_every_generator_is_made_from_the_stream_table():
    # `stream_rng` makes every generator, and DesignRule's seed, a config
    # field that fixes M, is the one other seed; no key offsets a seed
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "eivreg").glob("*.py")}
    calls = {name: text.count("np.random.default_rng(") for name, text in sources.items()}
    assert {name: k for name, k in calls.items() if k} == {"model.py": 2}
    assert not [name for name, text in sources.items()
                if re.search(r"seed \+ |seed\) \+ ", text)]


def test_no_generator_is_shared_across_seeds_or_consumers(monkeypatch):
    # every stream key drawn by the truth B, criterion 2's plans and criterion
    # 4's replications and score check, at master seeds s, s + 1 and s + 7.
    # Keys are compared by the state they seed, since numpy reads [s, 0, 0]
    # as [s]; DesignRule's seed fixes M and is not a stream
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    del doc["simulation"]["B_seed"]
    doc["simulation"]["reps"] = doc["score_cov"]["reps"] = 100
    real, keys, design_seed = np.random.default_rng, [], doc["model"]["M"]["seed"]
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
        keys.append(seed) if seed != design_seed else None) or real(seed))
    states = {}
    base = doc["simulation"]["master_seed"]
    for seed in (base, base + 1, base + 7):
        doc["simulation"]["master_seed"] = seed
        runs = []
        for name, draw in (
                ("truth B", lambda: runs.append(parse_config(doc))),
                ("criterion 2", lambda: criterion_sqrt_n_rate(runs[0], seed)),
                ("criterion 4", lambda: criterion_law_agreement(runs[0],
                                                                *law_inputs(runs[0])))):
            keys.clear()
            draw()
            assert keys, name
            for key in keys:
                state = tuple(np.random.SeedSequence(key).generate_state(4))
                assert state not in states, (seed, name, key, states.get(state))
                states[state] = (seed, name, key)
