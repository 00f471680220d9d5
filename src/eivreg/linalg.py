"""Matrix utilities: row-major flattening and Kronecker products, eigenvalue
extremes, PSD factors, and the lift of an affine transform of p-by-q matrices.
Every "numerically singular" decision is `ill_conditioned`; every attenuation
check requires ch_min(sigma_d) > ATTENUATION_FLOOR * ch_max(sigma_x).

Stacking convention used throughout the package: matrix-valued random variables
are flattened row-major (`rvec`, equal to the classical column-stacking vec of
the *transpose*).  All pq-by-pq covariance objects refer to that flattening.
A transform's `lift()` is the map it induces on `rvec`; every `AsymptoticLaw`,
the estimators' joint laws included, forms its covariance blocks from lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EivregError

SYM_RTOL = 1e-10
PSD_CLIP_RTOL = 1e-10
COND_LIMIT = 1e12
ATTENUATION_FLOOR = 1e-8


def rvec(m: np.ndarray) -> np.ndarray:
    """Row-major flattening; equals vec of the transposed matrix."""
    return np.asarray(m, dtype=float).ravel(order="C")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def sym(s: np.ndarray) -> np.ndarray:
    """Symmetrize: (S + S') / 2, matrix by matrix for a stack (..., k, k)."""
    s = np.asarray(s, dtype=float)
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def solvable(mats: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """`mats` (..., k, k) with the identity in place of each matrix flagged
    in `bad` (...), so that a stacked solve cannot raise for it."""
    return np.where(bad[..., None, None], np.eye(mats.shape[-1]), mats)


def ill_conditioned(s: np.ndarray) -> np.ndarray:
    """Whether the symmetric s, or each of a stack (..., k, k), is not positive
    definite or has lambda_max / lambda_min above COND_LIMIT (or NaN in it)."""
    w = np.linalg.eigvalsh(sym(s))  # divided, not multiplied: cannot overflow
    return ~((w[..., 0] > 0) & (w[..., -1] / COND_LIMIT <= w[..., 0]))


def is_symmetric(s: np.ndarray) -> bool:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        return False
    # ||S - S'|| <= SYM_RTOL max(1, ||S||), both norms taken of S / max|S|
    # so that entries near the top of double precision do not overflow them
    top = float(np.abs(s).max(initial=0.0))
    if not 0.0 < top < np.inf:  # zero, or not finite
        return top == 0.0
    t = s / top
    return np.linalg.norm(t - t.T) <= SYM_RTOL * max(1.0 / top, np.linalg.norm(t))


def eig_extremes(s: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix.

    The input is symmetrized before the eigensolve; asymmetry beyond
    ``SYM_RTOL * ||s||`` raises EivregError.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not is_symmetric(s):
        raise EivregError(
            f"asymmetry {np.linalg.norm(s - s.T):.3e} exceeds tolerance"
        )
    w = np.linalg.eigvalsh(sym(s))
    return float(w[0]), float(w[-1])


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F @ F.T = cov for a PSD matrix.

    Eigenvalues in [-PSD_CLIP_RTOL * ch_max, 0) are clipped to zero
    (covariances estimated by Monte Carlo can be slightly indefinite);
    anything more negative raises EivregError.
    """
    cov = np.asarray(cov, dtype=float)
    if not is_symmetric(cov):
        raise EivregError("covariance must be symmetric")
    w, v = np.linalg.eigh(sym(cov))
    ch_max = max(float(w[-1]), 0.0)
    floor = -PSD_CLIP_RTOL * ch_max
    if np.any(w < floor):
        raise EivregError(
            f"smallest eigenvalue {w[0]:.3e} below PSD tolerance {floor:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


@dataclass(frozen=True)
class AffineTransform:
    """The map Y -> kappa @ Y @ iota + alpha @ Y @ beta + rho on p-by-q matrices."""

    kappa: np.ndarray
    iota: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for name in ("kappa", "iota", "alpha", "beta", "rho"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if self.kappa.shape != self.alpha.shape:
            raise ValueError("kappa and alpha must have the same shape")
        if self.iota.shape != self.beta.shape:
            raise ValueError("iota and beta must have the same shape")
        if self.rho.shape != (self.kappa.shape[0], self.iota.shape[1]):
            raise ValueError("rho does not conform to kappa @ Y @ iota")

    def lift(self) -> np.ndarray:
        """Linear map taking rvec(Y) to rvec(kappa Y iota + alpha Y beta)."""
        return kron(self.kappa, self.iota.T) + kron(self.alpha, self.beta.T)

