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
is derived from it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import (DimMismatch, NearSingular, NonSymmetric, NotPD,
                         RankDeficient, SingularDesign)
from .linalg import COND_LIMIT, SYM_RTOL, eig_extremes, is_symmetric, sym
from .model import Restriction

RESTRICTION_TOL = 1e-8
# weight per unit of n of each named restricted estimator, from X'X/n and
# X'X/n - sigma_delta^2 I at a sample, or from their limits sigma and sigma_d
NAMED_WEIGHTS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "B2": lambda sigma_x, sigma_d: sigma_d,
    "B3": lambda sigma_x, sigma_d: sigma_x,
    "B4": lambda sigma_x, sigma_d: np.eye(sigma_x.shape[-1]),
}
LAW_LABELS = ("UE", *NAMED_WEIGHTS)  # the estimators with a limit law
ESTIMATOR_LABELS = ("LSE", *LAW_LABELS, "generic")


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
    if d_min < 1e-8 * x_max:
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


class _Guards:
    """First failed check of each replication of a stack.

    Checks are recorded in the order `lse`, `build_kx` and `restricted` run
    them on one dataset; a replication's first failure is the one it would
    raise there, and later checks cannot overwrite it.
    """

    def __init__(self, reps: int):
        self.first = np.full(reps, -1)
        self.failures: list[tuple[type, Callable[[int], str]]] = []

    def check(self, fail, exc: type, message: Callable[[int], str]) -> None:
        """Record `exc` for every replication where `fail` holds (a scalar
        for a check shared by all); `message(r)` describes replication r."""
        new = np.broadcast_to(fail, self.first.shape) & (self.first < 0)
        self.first[new] = len(self.failures)
        self.failures.append((exc, message))

    @property
    def failed(self) -> np.ndarray:
        return self.first >= 0

    def message(self, r: int) -> str:
        return self.failures[self.first[r]][1](r)

    def raise_first_hard(self) -> None:
        """Raise the failure of the first replication whose first failed
        check is not NearSingular."""
        # a trailing False maps "no failure" (-1) to not hard
        hard = np.array([exc is not NearSingular for exc, _ in self.failures]
                        + [False])[self.first]
        if hard.any():
            r = int(np.argmax(hard))
            raise self.failures[self.first[r]][0](self.message(r))


def _solvable(mats: np.ndarray, bad) -> np.ndarray:
    """`mats` with the identity in place of each matrix a guard rejected, so
    that a stacked solve or eigensolve cannot raise for a replication that is
    already failed.  A single matrix shared by all replications takes a
    scalar `bad`."""
    eye = np.eye(mats.shape[-1])
    if mats.ndim == 2:
        return eye if bad else mats
    return np.where(bad[:, None, None], eye, mats)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def _asymmetry(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||S - S'|| and the `is_symmetric` pass mask, matrix by matrix."""
    asym = np.linalg.norm(s - np.swapaxes(s, -1, -2), axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(s, axis=(-2, -1)))
    return asym, asym <= SYM_RTOL * scale


def _project(b1: np.ndarray, weight: np.ndarray, restr: Restriction,
             guards: _Guards) -> np.ndarray:
    """`restricted` for a stack of corrected estimates, with its checks in its
    order.  `weight` is (reps, p, p), or (p, p) when one weight serves every
    replication, which is then validated once."""
    _, symmetric = _asymmetry(weight)
    guards.check(~symmetric, NotPD,
                 lambda r: "weight must be symmetric positive definite")
    w = np.linalg.eigvalsh(_solvable(weight, ~symmetric))
    ch_min = np.broadcast_to(w[..., 0], guards.first.shape)
    ill = _ratio(w[..., -1], w[..., 0]) > COND_LIMIT
    guards.check(ch_min <= 0, NotPD, lambda r: "weight is not positive "
                 f"definite (ch_min={ch_min[r]:.3e})")
    guards.check(ill, NearSingular, lambda r: "weight matrix is too ill-conditioned")
    bad = ~symmetric | (w[..., 0] <= 0) | ill
    # an explicit stack of right-hand sides: numpy < 2 reads a 2-d b against
    # a 3-d a as a stack of vectors
    r1t = np.broadcast_to(restr.R1.T, weight.shape[:-2] + restr.R1.T.shape)
    sinv_r1t = np.linalg.solve(_solvable(weight, bad), r1t)
    gram = restr.R1 @ sinv_r1t
    gram_singular = np.linalg.cond(gram) > COND_LIMIT
    guards.check(gram_singular, RankDeficient,
                 lambda r: "R1 S^{-1} R1' is numerically singular")
    gap = restr.R1 @ b1 @ restr.R2 - restr.theta
    return b1 - sinv_r1t @ np.linalg.solve(_solvable(gram, gram_singular), gap) @ restr.right


@dataclass(frozen=True)
class BatchEstimates:
    """Estimates for a stack of replications.

    `estimates[r, i]` is replication r's estimate for `labels[i]` (NaN for an
    excluded replication); `excluded` lists the replications a NearSingular
    check dropped, in order, and `reasons` says why, one entry each.
    """

    labels: tuple[str, ...]
    estimates: np.ndarray                # (reps, len(labels), p, q)
    excluded: tuple[int, ...]
    reasons: tuple[str, ...]


def estimate_batch(xtx: np.ndarray, xtz: np.ndarray, n: int,
                   sigma_delta2: float, restr: Restriction,
                   labels: tuple[str, ...],
                   generic_weight: np.ndarray | None = None) -> BatchEstimates:
    """Every requested estimator for a stack of replications, from each
    replication's X'X (reps, p, p) and X'Z (reps, p, q) at sample size n.

    Replication r gets the same numbers, bit for bit, as `lse` (label "LSE"),
    `build_kx` with the corrected solve ("UE") and `restricted` with weight
    n times the `NAMED_WEIGHTS` rule of its sigma_x and sigma_d (a named
    label) or `generic_weight` ("generic") run on its dataset, and it fails
    the check they would fail first.  A NearSingular failure excludes the
    replication.  Any other failure raises for the first replication that has
    one.  Every check runs before the solve it protects, so an excluded
    replication never makes a stacked solve raise.
    """
    xtx = np.asarray(xtx, dtype=float)
    xtz = np.asarray(xtz, dtype=float)
    reps, p = xtx.shape[:2]
    guards = _Guards(reps)
    xtx_s = sym(xtx)
    out = {}
    if any(lbl != "LSE" for lbl in labels):
        sigma_x = xtx_s / n
        sigma_d = sigma_x - sigma_delta2 * np.eye(p)
        asym_x, symmetric = _asymmetry(sigma_x)
        guards.check(~symmetric, NonSymmetric,
                     lambda r: f"asymmetry {asym_x[r]:.3e} exceeds tolerance")
        x_max = np.linalg.eigvalsh(_solvable(sigma_x, guards.failed))[:, -1]
        d_min = np.linalg.eigvalsh(_solvable(sigma_d, guards.failed))[:, 0]
        guards.check(d_min < 1e-8 * x_max, NearSingular,
                     lambda r: "attenuation correction breaks down: "
                     f"ch_min(sigma_d)={d_min[r]:.3e}")
        # the checks above bound the condition number of sigma_d
        b1 = np.linalg.solve(_solvable(n * sigma_d, guards.failed), xtz)
    for lbl in labels:
        if lbl == "LSE":
            asym_xtx, symmetric = _asymmetry(xtx_s)
            guards.check(~symmetric, NonSymmetric,
                         lambda r: f"asymmetry {asym_xtx[r]:.3e} exceeds tolerance")
            w = np.linalg.eigvalsh(_solvable(xtx_s, guards.failed))
            guards.check((w[:, 0] <= 0) | (_ratio(w[:, -1], w[:, 0]) > COND_LIMIT),
                         SingularDesign, lambda r: "X'X is numerically singular")
            out[lbl] = np.linalg.solve(_solvable(xtx_s, guards.failed), xtz)
        elif lbl == "UE":
            out[lbl] = b1
        else:
            if lbl in NAMED_WEIGHTS:
                weight = n * NAMED_WEIGHTS[lbl](sigma_x, sigma_d)
            elif lbl == "generic" and generic_weight is not None:
                weight = np.asarray(generic_weight, dtype=float)
            else:
                raise ValueError(f"unknown estimator label {lbl!r}, or "
                                 "'generic' without generic_weight")
            out[lbl] = _project(b1, weight, restr, guards)
    guards.raise_first_hard()
    estimates = np.stack([out[lbl] for lbl in labels], axis=1)
    excluded = np.flatnonzero(guards.failed)
    estimates[excluded] = np.nan
    return BatchEstimates(labels=tuple(labels), estimates=estimates,
                          excluded=tuple(int(r) for r in excluded),
                          reasons=tuple(guards.message(r) for r in excluded))


def estimate_all(X: np.ndarray, Z: np.ndarray, sigma_delta2: float,
                 restr: Restriction,
                 generic_weight: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Naive, corrected, and the named restricted estimators (and "generic"
    when a generic weight is given), keyed by label.

    One replication of `estimate_batch`; a NearSingular failure raises here.
    """
    X = np.asarray(X, dtype=float)
    if sigma_delta2 < 0:
        raise ValueError("sigma_delta2 must be nonnegative")
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise ValueError("X and Z must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = X.T @ X
        xtz = X.T @ Z
    if not (np.isfinite(xtx).all() and np.isfinite(xtz).all()):
        raise ValueError("X'X or X'Z overflows: the data are too large in "
                         "magnitude for double precision")
    labels = ("LSE", *LAW_LABELS) + (("generic",) if generic_weight is not None
                                     else ())
    batch = estimate_batch(xtx[None], xtz[None], X.shape[0], sigma_delta2, restr,
                           labels, generic_weight)
    if batch.excluded:
        raise NearSingular(batch.reasons[0])
    est = dict(zip(labels, batch.estimates[0]))
    tol = RESTRICTION_TOL * (1.0 + np.linalg.norm(restr.theta))
    for lbl in labels[2:]:  # the restricted estimators
        if restr.gap(est[lbl]) > tol:
            raise NearSingular("restricted estimate failed to satisfy the restriction")
    return est
