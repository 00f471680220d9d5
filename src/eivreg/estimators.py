"""Unrestricted and restricted estimators of the coefficient matrix.

The naive least-squares estimator is inconsistent under measurement error; the
attenuation-corrected estimator divides it by the plug-in reliability matrix
built from X'X/n and the known measurement-error variance.  Restricted
estimators project the corrected estimator onto the constraint set with a
configurable positive definite weight.

`NAMED_WEIGHTS` is the one place where an estimator label is defined: the
named restricted estimators differ only in their projection weight.
`estimate_batch` applies its rules to the sample moments,
`asymptotics.named_weight_limit` to their limits, and every list of labels
is derived from it.  Any other weight goes through `restricted`, the
one-dataset reference, which checks the weight it is given.

`estimate_batch` has one failure rule: a replication that fails a check is
excluded with that check's message, and only input no replication could be
estimated from (a non-finite X'X or X'Z, a negative sigma_delta2, an unknown
label) raises.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import (DimMismatch, NearSingular, NotPD, RankDeficient,
                         SingularDesign)
from .linalg import COND_LIMIT, eig_extremes, is_symmetric, sym
from .model import Restriction

RESTRICTION_TOL = 1e-8
# weight per unit of n of each named restricted estimator, from X'X/n and
# X'X/n - sigma_delta^2 I at a sample, or from their limits sigma and sigma_d
NAMED_WEIGHTS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "B2": lambda sigma_x, sigma_d: sigma_d,
    "B3": lambda sigma_x, sigma_d: sigma_x,
    "B4": lambda sigma_x, sigma_d: np.broadcast_to(np.eye(sigma_x.shape[-1]),
                                                   sigma_x.shape),
}
LAW_LABELS = ("UE", *NAMED_WEIGHTS)  # the estimators with a limit law
ESTIMATOR_LABELS = ("LSE", *LAW_LABELS)


@dataclass(frozen=True)
class Attenuation:
    """Plug-in reliability pieces: sigma_x = X'X/n, sigma_d = sigma_x - s2_delta I,
    and kx = sigma_x^{-1} sigma_d (the multiplicative attenuation to undo)."""

    sigma_x: np.ndarray
    sigma_d: np.ndarray
    kx: np.ndarray
    n: int


def lse(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Naive least squares (X'X)^{-1} X'Z."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.shape[0] != Z.shape[0]:
        raise DimMismatch("X and Z must have the same number of rows")
    xtx = sym(X.T @ X)
    ch_min, ch_max = eig_extremes(xtx)
    if ch_min <= 0 or ch_max / ch_min > COND_LIMIT:
        raise SingularDesign("X'X is numerically singular")
    return np.linalg.solve(xtx, X.T @ Z)


def build_kx(X: np.ndarray, sigma_delta2: float) -> Attenuation:
    """Plug-in attenuation estimate from the observed n-row design."""
    X = np.asarray(X, dtype=float)
    if sigma_delta2 < 0:
        raise ValueError("sigma_delta2 must be nonnegative")
    n = X.shape[0]
    sigma_x = sym(X.T @ X) / n
    sigma_d = sigma_x - sigma_delta2 * np.eye(X.shape[1])
    _, x_max = eig_extremes(sigma_x)
    d_min, _ = eig_extremes(sigma_d)
    if d_min <= 1e-8 * x_max:
        raise NearSingular(
            f"attenuation correction breaks down: ch_min(sigma_d)={d_min:.3e}")
    kx = np.linalg.solve(sigma_x, sigma_d)
    return Attenuation(sigma_x=sigma_x, sigma_d=sigma_d, kx=kx, n=n)


def restricted(b1: np.ndarray, sigma_hat: np.ndarray, restr: Restriction) -> np.ndarray:
    """Weighted projection of b1 onto {B : R1 B R2 = theta}.

    b_tilde = b1 - S^{-1} R1' [R1 S^{-1} R1']^{-1} (R1 b1 R2 - theta)
              (R2'R2)^{-1} R2', for a symmetric positive definite weight S.
    The output satisfies the restriction exactly (up to solve roundoff) and is
    invariant to rescaling the weight.
    """
    b1 = np.asarray(b1, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if not is_symmetric(sigma_hat):
        raise NotPD("weight must be symmetric positive definite")
    ch_min, ch_max = eig_extremes(sigma_hat)
    if ch_min <= 0:
        raise NotPD(f"weight is not positive definite (ch_min={ch_min:.3e})")
    if ch_max / ch_min > COND_LIMIT:
        raise NearSingular("weight matrix is too ill-conditioned")
    sinv_r1t = np.linalg.solve(sigma_hat, restr.R1.T)
    gram = restr.R1 @ sinv_r1t
    if np.linalg.cond(gram) > COND_LIMIT:
        raise RankDeficient("R1 S^{-1} R1' is numerically singular")
    gap = restr.R1 @ b1 @ restr.R2 - restr.theta
    return b1 - sinv_r1t @ np.linalg.solve(gram, gap) @ restr.right


def _solvable(mats: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """`mats` with the identity in place of each matrix of an excluded
    replication, so that a stacked solve cannot raise for it."""
    return np.where(bad[:, None, None], np.eye(mats.shape[-1]), mats)


def _project(b1: np.ndarray, weight: np.ndarray, restr: Restriction,
             failed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`restricted` for a stack of corrected estimates and their named weights
    (reps, p, p), with only its Gram check, whose failures it returns: its
    weight checks cannot fail where the attenuation check passed.
    sigma_x = sym(X'X)/n is exactly symmetric, and so is sigma_d.  That
    check gives ch_min(sigma_d) > 1e-8 ch_max(sigma_x), so with
    sigma_delta2 >= 0 B2's n sigma_d and B3's n sigma_x are positive
    definite with condition number below 1e8, and B4's is n I.  A `failed`
    replication gets the identity, so no stacked solve can raise for it."""
    # an explicit stack of right-hand sides: numpy < 2 reads a 2-d b against
    # a 3-d a as a stack of vectors
    r1t = np.broadcast_to(restr.R1.T, weight.shape[:-2] + restr.R1.T.shape)
    sinv_r1t = np.linalg.solve(_solvable(weight, failed), r1t)
    gram = restr.R1 @ sinv_r1t
    gram_singular = np.linalg.cond(gram) > COND_LIMIT
    gap = restr.R1 @ b1 @ restr.R2 - restr.theta
    step = np.linalg.solve(_solvable(gram, gram_singular), gap)
    return b1 - sinv_r1t @ step @ restr.right, gram_singular


@dataclass(frozen=True)
class BatchEstimates:
    """Estimates for a stack of replications.

    `estimates[r, i]` is replication r's estimate for `labels[i]` (NaN for an
    excluded replication); `excluded` lists the replications that failed a
    check, in order, and `reasons` gives the message of the first check each
    one failed.
    """

    labels: tuple[str, ...]
    estimates: np.ndarray                # (reps, len(labels), p, q)
    excluded: tuple[int, ...]
    reasons: tuple[str, ...]


def estimate_batch(xtx: np.ndarray, xtz: np.ndarray, n: int,
                   sigma_delta2: float, restr: Restriction,
                   labels: tuple[str, ...]) -> BatchEstimates:
    """Every requested estimator for a stack of replications, from each
    replication's X'X (reps, p, p) and X'Z (reps, p, q) at sample size n.

    Replication r gets the same numbers, bit for bit, as `lse` (label "LSE"),
    `build_kx` with the corrected solve ("UE") and `restricted` with weight
    n times the `NAMED_WEIGHTS` rule of its sigma_x and sigma_d (a named
    label) run on its dataset.  A replication that fails one of their checks
    is excluded, with the message of the first check it fails, where that
    dataset would raise it; no check raises.  Every check runs before the
    solve it protects, so an excluded replication never makes a stacked solve
    raise.  A negative sigma_delta2, a non-finite X'X or X'Z entry and an
    unknown label raise ValueError for the whole stack.
    """
    if sigma_delta2 < 0:
        raise ValueError("sigma_delta2 must be nonnegative")
    xtx = np.asarray(xtx, dtype=float)
    xtz = np.asarray(xtz, dtype=float)
    if not (np.isfinite(xtx).all() and np.isfinite(xtz).all()):
        raise ValueError("X'X or X'Z overflows: the data are too large in "
                         "magnitude for double precision")
    reps, p = xtx.shape[:2]
    failed = np.zeros(reps, dtype=bool)
    reasons: dict[int, str] = {}

    def exclude(fail: np.ndarray, message: Callable[[int], str]) -> None:
        for r in np.flatnonzero(fail & ~failed):
            reasons[int(r)] = message(r)
        failed[fail] = True

    xtx_s = sym(xtx)
    out = {}
    if any(lbl != "LSE" for lbl in labels):
        sigma_x = xtx_s / n
        sigma_d = sigma_x - sigma_delta2 * np.eye(p)
        x_max = np.linalg.eigvalsh(sigma_x)[:, -1]
        d_min = np.linalg.eigvalsh(sigma_d)[:, 0]
        exclude(d_min <= 1e-8 * x_max, lambda r: "attenuation correction "
                f"breaks down: ch_min(sigma_d)={d_min[r]:.3e}")
        # the check above bounds the condition number of sigma_d
        b1 = np.linalg.solve(_solvable(n * sigma_d, failed), xtz)
    for lbl in labels:
        if lbl == "LSE":
            w = np.linalg.eigvalsh(xtx_s)
            exclude((w[:, 0] <= 0) | (w[:, -1] / COND_LIMIT > w[:, 0]),
                    lambda r: "X'X is numerically singular")
            out[lbl] = np.linalg.solve(_solvable(xtx_s, failed), xtz)
        elif lbl == "UE":
            out[lbl] = b1
        elif lbl in NAMED_WEIGHTS:
            out[lbl], gram_singular = _project(
                b1, n * NAMED_WEIGHTS[lbl](sigma_x, sigma_d), restr, failed)
            exclude(gram_singular, lambda r: "R1 S^{-1} R1' is numerically singular")
        else:
            raise ValueError(f"unknown estimator label {lbl!r}")
    estimates = np.stack([out[lbl] for lbl in labels], axis=1)
    excluded = tuple(sorted(reasons))
    estimates[list(excluded)] = np.nan
    return BatchEstimates(labels=tuple(labels), estimates=estimates,
                          excluded=excluded,
                          reasons=tuple(reasons[r] for r in excluded))


def estimate_all(X: np.ndarray, Z: np.ndarray, sigma_delta2: float,
                 restr: Restriction) -> dict[str, np.ndarray]:
    """Naive, corrected, and the named restricted estimators, keyed by label.

    One replication of `estimate_batch`; a failed check raises NearSingular
    here with that check's message.
    """
    X = np.asarray(X, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise ValueError("X and Z must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = X.T @ X
        xtz = X.T @ Z
    batch = estimate_batch(xtx[None], xtz[None], X.shape[0], sigma_delta2, restr,
                           ESTIMATOR_LABELS)
    if batch.excluded:
        raise NearSingular(batch.reasons[0])
    est = dict(zip(ESTIMATOR_LABELS, batch.estimates[0]))
    tol = RESTRICTION_TOL * (1.0 + np.linalg.norm(restr.theta))
    for lbl in NAMED_WEIGHTS:  # the restricted estimators
        if restr.gap(est[lbl]) > tol:
            raise NearSingular("restricted estimate failed to satisfy the restriction")
    return est
