"""Asymptotic distributional risk (ADR) of the corrected and restricted
estimators, the variance-gain / bias-cost decomposition, dominance thresholds,
and relative-efficiency sweeps.

For a weight W, ADR is E[tr(U' W U)] of the limit variable U.  The restricted
estimator's ADR decomposes as

    adr_re = adr_ue - variance_gain + rvec(theta0)' bias_form rvec(theta0)

with bias_form = (gain' W gain) x (R2'R2)^{-1} (Kronecker) and variance_gain
the three-trace expansion of tr((W x I_q)(S11 - S22)).  The restricted
estimator dominates when ||theta0||^2 is below variance_gain / ch_max(bias_form)
and is dominated above variance_gain / ch_min(bias_form); in between no ordering
is claimed.  A negative variance gain makes variance_gain / ch_min the lower threshold.

Only the last term depends on the drift theta0.  `adr_restricted` computes
every other term once per weight W and weight limit Q0, as a
`DriftFreeReport`, and theta0 enters only through its `at` method, which
gives the `ADRReport` (those terms and the drift's) at one drift.
`dominance_report` is the report at the restriction's own theta0;
`efficiency_curve` sweeps the drift along it against one `DriftFreeReport`.

Every function that needs the score covariance takes it as the plain
pq-by-pq array `lam` and reads q off it through `asymptotics.score_q`, so a
`lam` of any other shape raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import (AsymptoticLaw, PopulationModel, constraint_gain,
                          limit_transform, score_q)
from .exceptions import ConfigError, EivregError
from .linalg import eig_extremes, is_symmetric, kron, rvec
from .model import Restriction

VERDICT_RE = "RE-dominates"
VERDICT_UE = "UE-dominates"
VERDICT_BAND = "indeterminate-band"


def _check_weight(w: np.ndarray, p: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (p, p):
        raise ValueError(f"weight must be {p}x{p}, got {w.shape}")
    if not is_symmetric(w):
        raise ValueError("weight must be symmetric")
    ch_min, _ = eig_extremes(w)
    if ch_min <= 0:
        raise ValueError("weight must be positive definite")
    return w


def adr_unrestricted(weight: np.ndarray, pm: PopulationModel,
                     lam: np.ndarray) -> float:
    """tr((W x I_q) S11) for the corrected estimator's limit covariance."""
    law = AsymptoticLaw(("UE",), (limit_transform(pm, score_q(pm, lam)),), lam)
    return adr_from_law(weight, law, "UE")


def adr_from_law(weight: np.ndarray, law: AsymptoticLaw, label: str) -> float:
    """Direct joint-law evaluation: tr((W x I_q) S_ll) + tr(mu' W mu)."""
    w = _check_weight(weight, law.p)
    s = law.block(label, label)
    mu = law.mean(label)
    return float(np.trace(kron(w, np.eye(law.q)) @ s) + np.trace(mu.T @ w @ mu))


def variance_gain_terms(weight: np.ndarray, pm: PopulationModel,
                        lam: np.ndarray, restr: Restriction,
                        q0: np.ndarray) -> tuple[float, float, float]:
    """The three traces whose signed sum is the restriction's variance gain.

    With A1 - K the restricted limit transform's lift, A1 = kron(kappa,
    iota') and K = kron(-alpha, beta'), the gain is tr(V A1 lam K') +
    tr(V K lam A1') - tr(V K lam K') with V = W x I_q.
    """
    q = score_q(pm, lam)
    w = _check_weight(weight, pm.p)
    v = kron(w, np.eye(q))
    t = limit_transform(pm, q, restr, q0)
    a1 = kron(t.kappa, t.iota.T)
    kq = kron(-t.alpha, t.beta.T)
    t1 = float(np.trace(v @ a1 @ lam @ kq.T))
    t2 = float(np.trace(v @ kq @ lam @ a1.T))
    t3 = float(np.trace(v @ kq @ lam @ kq.T))
    return t1, t2, t3


def variance_gain_compact(weight: np.ndarray, pm: PopulationModel,
                          lam: np.ndarray, restr: Restriction,
                          q0: np.ndarray) -> float:
    """Single-trace Kronecker-lifted arrangement of the first gain term.

    Evaluates vec(lam)' kron(kron(J1' W, J), I) rvec(A1) with J1 = -alpha
    and J = beta' of the restricted limit transform; equals the first of the
    three gain traces.  Tests use it to cross-check the lifted arrangement;
    the ADR functions do not call it: it builds a (pq)^2-by-(pq)^2 matrix.
    """
    q = score_q(pm, lam)
    w = _check_weight(weight, pm.p)
    t = limit_transform(pm, q, restr, q0)
    a1 = kron(t.kappa, t.iota.T)
    j1, j = -t.alpha, t.beta.T
    pq = pm.p * q
    big = kron(kron(j1.T @ w, j), np.eye(pq))
    lam_vec = lam.ravel(order="F")
    a1_vec = a1.ravel(order="F")
    return float(lam_vec @ big @ a1_vec)


def bias_form(weight: np.ndarray, restr: Restriction, q0: np.ndarray) -> np.ndarray:
    """Quadratic form (on the flattened local direction) giving the bias cost:
    (gain' W gain) x (R2'R2)^{-1}."""
    gain = constraint_gain(q0, restr.R1)
    return kron(gain.T @ np.asarray(weight, dtype=float) @ gain,
                np.linalg.inv(restr.R2.T @ restr.R2))


@dataclass(frozen=True)
class DriftFreeReport:
    """The terms of the risk comparison that do not depend on the drift
    theta0, for one weight W and weight limit Q0."""

    adr_ue: float
    variance_gain: float
    bias_form: np.ndarray
    bias_form_min: float
    bias_form_max: float
    lower_threshold: float
    upper_threshold: float

    def at(self, theta0: np.ndarray) -> ADRReport:
        """The comparison at drift theta0: its bias cost, the restricted ADR,
        ||theta0||^2 against the thresholds, and the relative efficiency."""
        theta0 = np.asarray(theta0, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            quad = float(rvec(theta0) @ self.bias_form @ rvec(theta0))
        adr_re = self.adr_ue - self.variance_gain + quad
        if not math.isfinite(adr_re):
            raise ConfigError("fields 'restriction.R1', 'restriction.R2', "
                              "'restriction.theta0' and 'risk.weight' give a drift "
                              "whose bias cost overflows double precision")
        norm2 = float(np.sum(theta0 * theta0))
        if norm2 < self.lower_threshold:
            verdict = VERDICT_RE
        elif norm2 > self.upper_threshold:
            verdict = VERDICT_UE
        else:
            verdict = VERDICT_BAND
        drift_free = {f.name: getattr(self, f.name) for f in fields(DriftFreeReport)}
        return ADRReport(
            **drift_free, adr_re=adr_re, theta0_norm2=norm2, verdict=verdict,
            relative_efficiency=(self.adr_ue / adr_re if adr_re > 0 else math.inf))


@dataclass(frozen=True)
class ADRReport(DriftFreeReport):
    """Risk comparison of the corrected estimator against one restricted one
    at one drift theta0."""

    adr_re: float
    theta0_norm2: float
    verdict: str
    relative_efficiency: float


def adr_restricted(weight: np.ndarray, pm: PopulationModel, lam: np.ndarray,
                   restr: Restriction, q0: np.ndarray) -> DriftFreeReport:
    """The restricted estimator's ADR against the corrected estimator's as a
    function of the drift: every term of the comparison except those of
    theta0, which `DriftFreeReport.at` adds."""
    t1, t2, t3 = variance_gain_terms(weight, pm, lam, restr, q0)
    gain = t1 + t2 - t3
    f1 = bias_form(weight, restr, q0)
    ch_min, ch_max = eig_extremes(f1)
    if ch_min < -1e-10 * max(ch_max, 1.0):
        raise EivregError(f"bias form has eigenvalue {ch_min:.3e} < 0")
    # gain / ch_max is the lower threshold unless a negative gain reverses them
    lower, upper = sorted(gain / ch if ch > 0 else math.inf for ch in (ch_max, ch_min))
    return DriftFreeReport(
        adr_ue=adr_unrestricted(weight, pm, lam), variance_gain=gain,
        bias_form=f1, bias_form_min=ch_min, bias_form_max=ch_max,
        lower_threshold=lower, upper_threshold=upper)


def dominance_report(weight: np.ndarray, pm: PopulationModel, lam: np.ndarray,
                     restr: Restriction, q0: np.ndarray) -> ADRReport:
    """Thresholds and verdict for the restricted-vs-unrestricted comparison
    at the restriction's theta0."""
    return adr_restricted(weight, pm, lam, restr, q0).at(restr.theta0)


def efficiency_curve(report: DriftFreeReport, restr: Restriction,
                     points: int) -> list[tuple[float, ADRReport]]:
    """Each of `points` drift scales with the comparison at theta0 = scale *
    direction, from one `DriftFreeReport`.  The direction is the
    restriction's theta0, or a matrix of ones when theta0 = 0, at unit
    Frobenius norm.  The squared scales run evenly from 0 to twice the upper
    threshold, or to 2 when that threshold is infinite or not positive (a
    loss weight can make the variance gain negative)."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(restr.theta0)
    if not math.isfinite(nrm):
        raise ValueError("theta0 is too large: its Frobenius norm overflows "
                         "double precision")
    theta0 = restr.theta0 if nrm > 0 else np.ones_like(restr.theta)
    direction = theta0 / np.linalg.norm(theta0)
    top = report.upper_threshold if 0 < report.upper_threshold < math.inf else 1.0
    return [(float(s), report.at(float(s) * direction))
            for s in np.sqrt(np.linspace(0.0, 2.0 * top, points))]
