"""Acceptance suite: every exit criterion of the artifact, runnable as a
library call (used by both the `verify` subcommand and the pytest suite).

Each criterion is deterministic: all randomness derives from the run
configuration's master seed through fixed offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import (AsymptoticLaw, PopulationModel, estimate_score_cov,
                          joint_law, law_inputs, limit_map, mean_shift,
                          named_weight_limit, population, score_cov_model)
from .config import RunConfig
from .csvio import open_output, write_rows_csv
from .estimators import LAW_LABELS, NAMED_WEIGHTS, estimate_all, restricted
from .linalg import eig_extremes, rvec, sym
from .model import Restriction, generate, make_restricted_b
from .montecarlo import SimulationPlan, affine_limit_suite, compare_law, run_plan
from .risk import (adr_from_law, adr_restricted, dominance_report,
                   drift_direction, efficiency_curve)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _rand_instance(g: np.random.Generator, max_p: int = 5, max_q: int = 4):
    """Random dimensions and a full-rank restriction for algebra checks."""
    p = int(g.integers(2, max_p + 1))
    q = int(g.integers(2, max_q + 1))
    r1 = int(g.integers(1, p))
    r2 = int(g.integers(1, q))
    R1 = g.standard_normal((r1, p))
    R2 = g.standard_normal((q, r2))
    theta = g.standard_normal((r1, r2))
    return p, q, Restriction(R1=R1, R2=R2, theta=theta)


def _rand_pd(k: int, g: np.random.Generator) -> np.ndarray:
    f = g.standard_normal((k, k))
    return sym(f @ f.T) / k + 0.2 * np.eye(k)


def _rand_population(p: int, g: np.random.Generator) -> PopulationModel:
    sigma = _rand_pd(p, g)
    sd2 = float(g.uniform(0.1, 0.5)) * eig_extremes(sigma)[0]
    return PopulationModel(sigma=sigma, sigma_delta2=sd2)


def criterion_restriction_exactness(run: RunConfig, seed: int) -> CriterionResult:
    g = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(100):
        p, q, restr = _rand_instance(g)
        n = 20 * p
        X = g.standard_normal((n, p))
        Z = g.standard_normal((n, q))
        xmin, _ = eig_extremes(sym(X.T @ X) / n)
        sd2 = 0.15 * xmin
        est = estimate_all(X, Z, sd2, restr)
        est["RE"] = restricted(est["UE"], _rand_pd(p, g), restr)  # any weight
        tol = 1e-8 * (1.0 + np.linalg.norm(restr.theta))
        for lbl in (*NAMED_WEIGHTS, "RE"):
            worst = max(worst, restr.gap(est[lbl]) / tol)
    return CriterionResult(1, "restriction exactness", worst <= 1.0,
                           f"worst gap {worst:.3e} in units of 1e-8(1+||theta||)")


def criterion_sqrt_n_rate(run: RunConfig, seed: int,
                          workers: int = 1) -> CriterionResult:
    medians = []
    for i, n in enumerate((500, 2000, 8000)):
        plan = SimulationPlan(cfg=run.model.at_n(n), restr=run.restriction,
                              b_seed=run.b_truth_seed(), reps=200,
                              master_seed=seed + i, estimators=("UE",))
        summary = run_plan(plan, workers=workers)
        norms = np.linalg.norm(summary.errors, axis=1) / math.sqrt(n)
        medians.append(float(np.median(norms)))
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    ok = 0.35 <= r1 <= 0.70 and 0.35 <= r2 <= 0.70
    return CriterionResult(2, "corrected-estimator sqrt(n) rate", ok,
                           f"median-error ratios {r1:.3f}, {r2:.3f} (target [0.35, 0.70])")


def criterion_naive_bias(run: RunConfig, seed: int) -> CriterionResult:
    n = 8000
    cfg = run.model.at_n(n)
    b_truth = make_restricted_b(cfg, run.restriction, run.b_truth_seed())
    pm = population(cfg)
    # medians over a few datasets: the distance to K B is pure estimation
    # noise and a single draw of it is a lottery against the 10x line
    gaps_kb, gaps_b = [], []
    for r in range(9):
        ds = generate(cfg, b_truth, np.random.default_rng([seed, 31, r]))
        est = estimate_all(ds.X, ds.Z, cfg.sigma_delta2, run.restriction)
        gaps_kb.append(float(np.linalg.norm(est["LSE"] - pm.k @ b_truth)))
        gaps_b.append(float(np.linalg.norm(est["LSE"] - b_truth)))
    gap_kb = float(np.median(gaps_kb))
    gap_b = float(np.median(gaps_b))
    ok = gap_kb < 0.05 and gap_b > 10.0 * gap_kb
    return CriterionResult(3, "naive-estimator attenuation bias", ok,
                           f"median ||lse - K B||={gap_kb:.4f} (<0.05), "
                           f"median ||lse - B||={gap_b:.4f} (>10x)")


def criterion_law_agreement(run: RunConfig, seed: int, pm: PopulationModel,
                            lam: np.ndarray,
                            workers: int = 1) -> CriterionResult:
    law = joint_law(pm, lam, run.restriction, estimators=LAW_LABELS)
    plan = SimulationPlan(cfg=run.model, restr=run.restriction,
                          b_seed=run.b_truth_seed(), reps=run.simulation.reps,
                          master_seed=seed + 7, estimators=LAW_LABELS)
    summary = run_plan(plan, workers=workers)
    cmp = compare_law(summary, law)
    # the Monte Carlo estimate of the same score covariance checks the
    # closed form the law is built from
    cfg, B = score_cov_model(run)
    mc = estimate_score_cov(cfg, B, reps=run.score_cov.reps, seed=seed)
    diff = float(np.max(np.abs(mc.cov - lam)))
    score_gap = (diff / mc.standard_error if mc.standard_error > 0
                 else (math.inf if diff > 0 else 0.0))
    return CriterionResult(
        4, "joint law agreement", cmp.passed and score_gap <= 4.0,
        f"worst covariance block {cmp.worst_cov:.3f} rel-Frobenius (tol 0.15), "
        f"worst mean {cmp.worst_mean:.2f} SE (tol 4), "
        f"score covariance vs Monte Carlo {score_gap:.2f} SE (tol 4)")


def criterion_adr_identity(run: RunConfig, seed: int) -> CriterionResult:
    g = np.random.default_rng([seed, 51])
    worst_adr = 0.0
    worst_quad = 0.0
    for _ in range(100):
        p, q, restr = _rand_instance(g, max_p=4, max_q=3)
        pm = _rand_population(p, g)
        lam = _rand_pd(p * q, g)
        q0 = _rand_pd(p, g)
        w = _rand_pd(p, g)
        theta0 = g.standard_normal(restr.theta.shape)
        restr = restr.with_theta0(theta0)
        res = dominance_report(w, pm, lam, restr, q0)
        decomposition = res.adr_re
        mu = mean_shift(restr, q0)
        law = AsymptoticLaw(labels=("RE",), p=p, q=q, means=(mu,),
                            maps=(limit_map(pm, q, restr, q0),), lam=lam)
        direct = adr_from_law(w, law, "RE")
        worst_adr = max(worst_adr,
                        abs(decomposition - direct) / (1.0 + abs(direct)))
        quad = float(rvec(theta0) @ res.bias_form @ rvec(theta0))
        mean_term = float(np.trace(mu.T @ w @ mu))
        worst_quad = max(worst_quad, abs(quad - mean_term) / (1.0 + abs(quad)))
    ok = worst_adr <= 1e-8 and worst_quad <= 1e-10
    return CriterionResult(5, "risk decomposition identity", ok,
                           f"worst ADR rel diff {worst_adr:.2e} (tol 1e-8), "
                           f"worst quadratic-term diff {worst_quad:.2e} (tol 1e-10)")


def criterion_dominance(run: RunConfig, seed: int) -> CriterionResult:
    g = np.random.default_rng([seed, 61])
    violations = 0
    worst_f1 = 0.0
    for i in range(50):
        p, q, restr = _rand_instance(g, max_p=4, max_q=3)
        pm = _rand_population(p, g)
        lam = _rand_pd(p * q, g)
        q0 = _rand_pd(p, g)
        w = np.eye(p) if i % 2 == 0 else float(g.uniform(0.5, 2.0)) * q0
        direction = g.standard_normal(restr.theta.shape)
        direction /= np.linalg.norm(direction)
        base = adr_restricted(w, pm, lam, restr, q0)
        lower, upper = base.lower_threshold, base.upper_threshold
        targets = []
        if lower > 0:
            targets.append(math.sqrt(0.5 * lower))
        if math.isfinite(upper) and upper > 0:
            targets.append(math.sqrt(2.0 * upper))
            if lower > 0:
                targets.append(math.sqrt(math.sqrt(lower * upper)))
        for s in targets:
            rep = base.at(s * direction)
            # strict-hypothesis margins: at the exact threshold (always hit
            # when the band degenerates to a point) the ordering claim is empty
            eps = 1e-9
            below = rep.theta0_norm2 < rep.lower_threshold * (1.0 - eps)
            above = rep.theta0_norm2 > rep.upper_threshold * (1.0 + eps)
            if below and rep.adr_re > rep.adr_ue:
                violations += 1
            if above and rep.adr_re <= rep.adr_ue:
                violations += 1
            if rep.variance_gain < -1e-8 * rep.adr_ue:
                worst_f1 = max(worst_f1, -rep.variance_gain / rep.adr_ue)
    ok = violations == 0 and worst_f1 == 0.0
    return CriterionResult(6, "dominance thresholds", ok,
                           f"{violations} ordering violations, "
                           f"worst negative variance gain {worst_f1:.2e} (tol 1e-8)")


def criterion_efficiency_curve(run: RunConfig, pm: PopulationModel,
                               lam: np.ndarray) -> CriterionResult:
    base = adr_restricted(run.risk.weight, pm, lam, run.restriction,
                          named_weight_limit(pm, run.risk.q0))
    rows = efficiency_curve(base, drift_direction(run.restriction),
                            base.scale_grid(max(run.risk.grid, 5)))
    rel = [r.relative_efficiency for r in rows]
    norm2 = [r.theta0_norm2 for r in rows]
    starts_above = rel[0] >= 1.0
    decreasing = all(b < a for a, b in zip(rel, rel[1:]))
    crossing_ok = False
    for i in range(len(rows) - 1):
        if (rel[i] - 1.0) >= 0.0 > (rel[i + 1] - 1.0):
            lo, hi = norm2[i], norm2[i + 1]
            # the band can degenerate to a point (rank-one bias form); allow
            # float roundoff at the boundary
            eps = 1e-9 * (1.0 + base.upper_threshold)
            crossing_ok = (hi >= base.lower_threshold - eps
                           and lo <= base.upper_threshold + eps)
            break
    ok = starts_above and decreasing and crossing_ok
    return CriterionResult(
        7, "efficiency curve shape", ok,
        f"rel-eff at 0: {rel[0]:.3f} (>=1), strictly decreasing: {decreasing}, "
        f"crossing inside band [{base.lower_threshold:.3f}, {base.upper_threshold:.3f}]: "
        f"{crossing_ok}")


def criterion_affine_limits(run: RunConfig, seed: int) -> CriterionResult:
    cmp, pair_rel = affine_limit_suite(seed, draws=100_000)
    return CriterionResult(
        8, "affine limit closure", cmp.passed and pair_rel <= cmp.tol_cov,
        f"worst block {cmp.worst_cov:.3f} rel-Frobenius (tol 0.10), means {cmp.worst_mean:.2f} SE "
        f"(tol 4), identity-pair cross block {pair_rel:.3f}")


def criterion_reproducibility(run: RunConfig, out_dir: Path) -> CriterionResult:
    from . import cli  # deferred: cli imports this module

    reduced = _reduced_config(run)
    base = Path(out_dir) / "repro"
    mismatches = []
    for cmd in ("law", "simulate", "adr", "efficiency"):
        d1, d2 = base / f"{cmd}_a", base / f"{cmd}_b"
        cli.run_command(cmd, reduced, d1, workers=1)
        cli.run_command(cmd, reduced, d2, workers=1)
        mismatches += _diff_trees(d1, d2)
    # gaussian plans never start the pool, so worker invariance is tested
    # where the row sampler's chunks are spread over processes
    skewed = replace(reduced, model=replace(reduced.model,
                                            error_family="shifted-exponential"))
    for workers in (1, 2):
        cli.run_command("simulate", skewed, base / f"skewed_w{workers}",
                        workers=workers)
    mismatches += _diff_trees(base / "skewed_w1", base / "skewed_w2")
    ok = not mismatches
    detail = ("all CSV outputs byte-identical across reruns and across 1 and "
              "2 workers with shifted-exponential errors"
              if ok else f"mismatched files: {sorted(set(mismatches))}")
    return CriterionResult(9, "reproducibility", ok, detail)


def _reduced_config(run: RunConfig) -> RunConfig:
    return replace(
        run,
        model=run.model.at_n(400),
        simulation=replace(run.simulation, reps=400),
        score_cov=replace(run.score_cov, n=400, reps=400),
        risk=replace(run.risk, grid=5),
    )


def _diff_trees(a: Path, b: Path) -> list[str]:
    out = []
    for fa in sorted(Path(a).glob("*.csv")):
        fb = Path(b) / fa.name
        if not fb.exists() or fa.read_bytes() != fb.read_bytes():
            out.append(fa.name)
    return out


def run_acceptance(run: RunConfig, out_dir, workers: int = 1) -> list[CriterionResult]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = run.simulation.master_seed
    results = [
        criterion_restriction_exactness(run, seed),
        criterion_sqrt_n_rate(run, seed, workers=workers),
        criterion_naive_bias(run, seed),
    ]
    pm, lam = law_inputs(run)
    results.append(criterion_law_agreement(run, seed, pm, lam, workers=workers))
    results.append(criterion_adr_identity(run, seed))
    results.append(criterion_dominance(run, seed))
    results.append(criterion_efficiency_curve(run, pm, lam))
    results.append(criterion_affine_limits(run, seed))
    results.append(criterion_reproducibility(run, out_dir))
    write_rows_csv(out_dir / "criteria.csv",
                   ["number", "name", "passed", "detail"],
                   [[r.number, r.name, r.passed, r.detail] for r in results])
    with open_output(out_dir / "report.txt") as fh:
        for r in results:
            fh.write(f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number}: "
                     f"{r.name} -- {r.detail}\n")
    return results
