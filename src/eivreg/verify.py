"""Acceptance suite: every exit criterion of the artifact, runnable as a
library call (used by both the `verify` subcommand and the pytest suite).

Each criterion is deterministic: every generator is keyed by the run
configuration's master seed and its own tag in `model.STREAMS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import (AsymptoticLaw, PopulationModel, estimate_score_cov,
                          joint_law, law_inputs, limit_transform,
                          named_weight_limit, population, score_cov_model)
from .config import RunConfig
from .estimators import LAW_LABELS, NAMED_WEIGHTS, estimate_all, restricted
from .linalg import AffineTransform, eig_extremes, rvec, sym
from .model import STREAMS, Restriction, generate, make_restricted_b, stream_rng
from .montecarlo import (COV_TOL_FRO, MEAN_TOL_SE, SimulationPlan, _rel_fro,
                         compare_law, replication_plan, run_plan)
from .risk import (adr_from_law, adr_restricted, dominance_report,
                   efficiency_curve)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _num(x: float, spec: str) -> str:
    """`x` in the fixed-point format `spec` below 1e6 in magnitude, and in
    `.3e` from there, where fixed point would print every digit."""
    return format(x, spec if abs(x) < 1e6 else ".3e")


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


def criterion_restriction_exactness(seed: int) -> CriterionResult:
    g = stream_rng((seed, STREAMS["restriction_exactness"]))
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
                              b_seed=run.simulation.B_seed, reps=200,
                              key=(seed, STREAMS["sqrt_n_rate"], i), estimators=("UE",))
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
    b_truth = make_restricted_b(cfg, run.restriction, run.simulation.B_seed)
    pm = population(cfg)
    # medians over a few datasets: the distance to K B is pure estimation
    # noise and a single draw of it is a lottery against the 10x line
    gaps_kb, gaps_b = [], []
    for r in range(9):
        ds = generate(cfg, b_truth, stream_rng((seed, STREAMS["naive_bias"], r)))
        est = estimate_all(ds.X, ds.Z, cfg.sigma_delta2, run.restriction)
        gaps_kb.append(float(np.linalg.norm(est["LSE"] - pm.k @ b_truth)))
        gaps_b.append(float(np.linalg.norm(est["LSE"] - b_truth)))
    gap_kb = float(np.median(gaps_kb))
    gap_b = float(np.median(gaps_b))
    ok = gap_kb < 0.05 and gap_b > 10.0 * gap_kb
    return CriterionResult(3, "naive-estimator attenuation bias", ok,
                           f"median ||lse - K B||={_num(gap_kb, '.4f')} (<0.05), "
                           f"median ||lse - B||={_num(gap_b, '.4f')} (>10x)")


def criterion_law_agreement(run: RunConfig, pm: PopulationModel, lam: np.ndarray,
                            workers: int = 1) -> CriterionResult:
    law = joint_law(pm, lam, run.restriction, estimators=LAW_LABELS)
    summary = run_plan(replication_plan(run, LAW_LABELS), workers=workers)
    cmp = compare_law(summary, law)
    # the Monte Carlo estimate of the same score covariance checks the
    # closed form the law is built from
    cfg, B = score_cov_model(run)
    mc = estimate_score_cov(cfg, B, reps=run.score_cov.reps, workers=workers,
                            key=(run.simulation.master_seed, STREAMS["score_cov"]))
    diff = float(np.max(np.abs(mc.cov - lam)))
    score_gap = (diff / mc.standard_error if mc.standard_error > 0
                 else (math.inf if diff > 0 else 0.0))
    overflow = not (np.isfinite(mc.cov).all() and math.isfinite(mc.standard_error))
    return CriterionResult(
        4, "joint law agreement", cmp.passed and score_gap <= 4.0 and not overflow,
        f"worst covariance block {_num(cmp.worst_cov, '.3f')} rel-Frobenius "
        f"(tol {COV_TOL_FRO:g}), worst mean {_num(cmp.worst_mean, '.2f')} SE "
        f"(tol {MEAN_TOL_SE:g}), score covariance vs Monte Carlo "
        + ("not compared: the Monte Carlo score covariance overflows double precision"
           if overflow else f"{_num(score_gap, '.2f')} SE (tol 4)"))


def criterion_adr_identity(seed: int) -> CriterionResult:
    g = stream_rng((seed, STREAMS["adr_identity"]))
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
        t = limit_transform(pm, q, restr, q0)
        law = AsymptoticLaw(labels=("RE",), transforms=(t,), lam=lam)
        mu = t.rho
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


def criterion_dominance(seed: int) -> CriterionResult:
    g = stream_rng((seed, STREAMS["dominance"]))
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
    curve = efficiency_curve(base, run.restriction, max(run.risk.grid, 5))
    rel = [r.relative_efficiency for _, r in curve]
    norm2 = [r.theta0_norm2 for _, r in curve]
    starts_above = rel[0] >= 1.0
    decreasing = all(b < a for a, b in zip(rel, rel[1:]))
    # the first crossing of 1; the band can degenerate to a point (rank-one
    # bias form), so allow float roundoff at the boundary
    eps = 1e-9 * (1.0 + base.upper_threshold)
    crossing_ok = next((norm2[i + 1] >= base.lower_threshold - eps
                        and norm2[i] <= base.upper_threshold + eps
                        for i in range(len(rel) - 1) if rel[i] >= 1.0 > rel[i + 1]),
                       False)
    ok = starts_above and decreasing and crossing_ok
    return CriterionResult(
        7, "efficiency curve shape", ok,
        f"rel-eff at 0: {_num(rel[0], '.3f')} (>=1), strictly decreasing: {decreasing}, "
        f"crossing inside band [{_num(base.lower_threshold, '.3f')}, "
        f"{_num(base.upper_threshold, '.3f')}]: {crossing_ok}")


def _random_transform(p: int, q: int, g: np.random.Generator) -> AffineTransform:
    return AffineTransform(kappa=g.uniform(-1, 1, (p, p)),
                           iota=g.uniform(-1, 1, (q, q)),
                           alpha=g.uniform(-1, 1, (p, p)),
                           beta=g.uniform(-1, 1, (q, q)),
                           rho=g.uniform(-1, 1, (p, q)))


def _linear_part(t: AffineTransform, y: np.ndarray) -> np.ndarray:
    """kappa Y iota + alpha Y beta for a p-by-q Y or a stack of them."""
    return t.kappa @ y @ t.iota + t.alpha @ y @ t.beta


def criterion_affine_limits(seed: int) -> CriterionResult:
    """`AsymptoticLaw`'s blocks A_i lam A_j' and means rho_i against their
    definition on 100 random instances, with no sampling: T_i F, for
    lam = F F', applies T_i to each column of F as a p-by-q matrix, not
    through `lift`."""
    g = stream_rng((seed, STREAMS["affine_limits"]))
    gaps = {"blocks": [], "lifts": [], "means": [], "identity-pair cross block": []}
    for _ in range(100):
        p, q = (int(k) for k in g.integers(2, 6, size=2))
        f = g.standard_normal((p * q, p * q))
        transforms = [_random_transform(p, q, g) for _ in range(3)]
        law = AsymptoticLaw(labels=("T1", "T2", "T3"), transforms=tuple(transforms),
                            lam=f @ f.T)
        columns = f.T.reshape(p * q, p, q)  # column c of F, as a p-by-q matrix
        tf = [_linear_part(t, columns).reshape(p * q, p * q).T for t in transforms]
        gaps["blocks"] += [_rel_fro(law.block(i, j), tf[i] @ tf[j].T)
                           for i in range(3) for j in range(3)]
        y = g.standard_normal((p, q))
        gaps["lifts"] += [_rel_fro(t.lift() @ rvec(y), rvec(_linear_part(t, y)))
                          for t in transforms]
        gaps["means"].append(_rel_fro(law.full_mean(), np.concatenate(
            [rvec(t.rho) for t in transforms])))
        t2 = replace(transforms[1], kappa=np.eye(p), iota=np.eye(q))
        identity = AffineTransform(kappa=np.eye(p), iota=np.eye(q), alpha=np.zeros((p, p)),
                                   beta=np.zeros((q, q)), rho=np.zeros((p, q)))
        pair = AsymptoticLaw(labels=("I", "T2"), transforms=(identity, t2), lam=law.lam)
        gaps["identity-pair cross block"].append(_rel_fro(
            pair.block(0, 1), law.lam + law.lam @ np.kron(t2.alpha.T, t2.beta)))
    worst = {name: float(np.max(v)) for name, v in gaps.items()}  # nan propagates
    return CriterionResult(
        8, "affine limit closure", all(w <= 1e-12 for w in worst.values()),
        "worst rel-Frobenius gap over 100 instances (tol 1e-12): "
        + ", ".join(f"{name} {w:.1e}" for name, w in worst.items()))


def criterion_reproducibility(run: RunConfig, out_dir: Path) -> CriterionResult:
    from . import cli  # deferred: cli imports this module

    reduced = run.with_fields({"model.n": 400, "simulation.reps": 400, "score_cov.n": 400,
                               "score_cov.reps": 400, "risk.grid": 5})
    base = Path(out_dir) / "repro"
    mismatches = []
    for cmd in ("law", "simulate", "adr", "efficiency"):
        d1, d2 = base / f"{cmd}_a", base / f"{cmd}_b"
        cli.run_command(cmd, reduced, d1, workers=1)
        cli.run_command(cmd, reduced, d2, workers=1)
        mismatches += _diff_trees(d1, d2)
    # gaussian plans never start the pool, so worker invariance is tested
    # where the row sampler's chunks are spread over threads
    skewed = reduced.with_fields({"model.error_family": "shifted-exponential"})
    for workers in (1, 2):
        cli.run_command("simulate", skewed, base / f"skewed_w{workers}",
                        workers=workers)
    mismatches += _diff_trees(base / "skewed_w1", base / "skewed_w2")
    ok = not mismatches
    detail = ("all CSV outputs byte-identical across reruns and across 1 and "
              "2 workers with shifted-exponential errors"
              if ok else f"mismatched files: {sorted(set(mismatches))}")
    return CriterionResult(9, "reproducibility", ok, detail)


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
    pm, lam = law_inputs(run)
    return [
        criterion_restriction_exactness(seed),
        criterion_sqrt_n_rate(run, seed, workers=workers),
        criterion_naive_bias(run, seed),
        criterion_law_agreement(run, pm, lam, workers=workers),
        criterion_adr_identity(seed),
        criterion_dominance(seed),
        criterion_efficiency_curve(run, pm, lam),
        criterion_affine_limits(seed),
        criterion_reproducibility(run, out_dir),
    ]
