"""Row-major flattening and Kronecker algebra, eigenvalue extremes, the
conditioning rule, PSD factors, and the covariance blocks of affine
transforms, formed by an `AsymptoticLaw` whose maps are the transforms'
lifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivreg.asymptotics import AsymptoticLaw
from eivreg.exceptions import EivregError
from eivreg.linalg import (COND_LIMIT, AffineTransform, eig_extremes,
                           ill_conditioned, is_symmetric, kron, psd_factor,
                           rvec, sym)

RNG = np.random.default_rng(20260810)


def test_vec_column_stacking():
    # the column-stacking vec of a matrix is rvec of its transpose
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rvec(m).tolist() == [1.0, 2.0, 3.0, 4.0]
    assert rvec(m.T).tolist() == [1.0, 3.0, 2.0, 4.0]


def test_vec_zero_matrix():
    assert rvec(np.zeros((2, 3)).T).tolist() == [0.0] * 6


def test_vec_of_product_identity():
    # rvec(A X B) = (A kron B') rvec(X), checked against elementwise
    # evaluation, and a transform's lift is that map summed over its terms
    g = np.random.default_rng(3)
    for _ in range(20):
        a, x, b = (g.standard_normal((2, 2)) for _ in range(3))
        left = rvec(a @ x @ b)
        lift = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        lift[2 * i + j, 2 * k + l] = a[i, k] * b[l, j]
        np.testing.assert_allclose(left, lift @ rvec(x), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(left, kron(a, b.T) @ rvec(x), rtol=1e-12,
                                   atol=1e-12)
        zero = np.zeros((2, 2))
        t = AffineTransform(kappa=a, iota=b, alpha=zero, beta=zero, rho=zero)
        np.testing.assert_allclose(left, t.lift() @ rvec(x), rtol=1e-12,
                                   atol=1e-12)


def test_rvec_is_vec_of_transpose():
    m = RNG.standard_normal((3, 4))
    np.testing.assert_array_equal(rvec(m), m.T.ravel(order="F"))
    np.testing.assert_array_equal(rvec(m).reshape(3, 4), m)


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    b = RNG.standard_normal((3, 2))
    np.testing.assert_allclose(kron(np.array([[2.0]]), b), 2.0 * b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_kron_mixed_product_and_associativity(seed):
    g = np.random.default_rng(seed)
    a, b, c, d = (g.standard_normal((3, 3)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
    assoc_l = kron(kron(a, b), c)
    assoc_r = kron(a, kron(b, c))
    assert np.linalg.norm(assoc_l - assoc_r) <= 1e-12 * np.linalg.norm(assoc_r)


def test_eig_extremes_diagonal():
    assert eig_extremes(np.diag([1.0, 5.0, 3.0])) == (1.0, 5.0)


def test_eig_extremes_scaled_identity():
    lo, hi = eig_extremes(2.5 * np.eye(4))
    assert lo == pytest.approx(2.5) and hi == pytest.approx(2.5)


def test_eig_extremes_rayleigh_bracket():
    g = np.random.default_rng(11)
    s = sym(g.standard_normal((4, 4)))
    lo, hi = eig_extremes(s)
    for _ in range(100):
        x = g.standard_normal(4)
        rq = x @ s @ x / (x @ x)
        assert lo - 1e-12 <= rq <= hi + 1e-12


def test_eig_extremes_rejects_asymmetric():
    with pytest.raises(EivregError, match="asymmetry .* exceeds tolerance"):
        eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200, 1e300])
def test_is_symmetric_at_extreme_scales(scale):
    # the norms are taken after scaling by the largest entry: no overflow
    # warning at 1e200 or 1e300, where ||S||^2 exceeds double precision
    s = np.array([[2.0, 1.0, -0.5], [1.0, 3.0, 0.25], [-0.5, 0.25, 1.0]])
    asym = s + np.array([[0.0, 1e-3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert is_symmetric(scale * s)
    # ||S - S'|| is measured against max(1, ||S||): at 1e-200 the asymmetry
    # is far below the absolute floor of 1e-10
    assert is_symmetric(scale * asym) == (scale < 1.0)


def test_is_symmetric_degenerate_inputs():
    assert is_symmetric(np.zeros((2, 2)))
    assert not is_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    assert not is_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert not is_symmetric(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), c=st.floats(-5, 5))
def test_eig_extremes_shift(seed, c):
    s = sym(np.random.default_rng(seed).standard_normal((4, 4)))
    lo, hi = eig_extremes(s)
    lo_c, hi_c = eig_extremes(s + c * np.eye(4))
    assert lo_c == pytest.approx(lo + c, abs=1e-10)
    assert hi_c == pytest.approx(hi + c, abs=1e-10)


def _spd_with_cond(g, k, cond):
    """A random symmetric k x k matrix with eigenvalues spread from 1 to cond."""
    q = np.linalg.qr(g.standard_normal((k, k)))[0]
    w = np.geomspace(1.0, cond, k)
    return sym((q * w) @ q.T)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ill_conditioned_is_the_condition_number_rule(k):
    # the eigenvalue ratio decides as np.linalg.cond's SVD ratio does, on
    # matrices two orders of magnitude either side of COND_LIMIT
    g = np.random.default_rng(k)
    conds = [1e10, 1e11, 1e13, 1e14] * 3
    mats = np.stack([_spd_with_cond(g, k, c) for c in conds])
    expected = np.linalg.cond(mats) > COND_LIMIT
    assert expected.tolist() == [c > COND_LIMIT for c in conds]
    assert ill_conditioned(mats).tolist() == expected.tolist()
    assert [bool(ill_conditioned(m)) for m in mats] == expected.tolist()
    assert ill_conditioned(mats.reshape(3, 4, k, k)).shape == (3, 4)


@pytest.mark.parametrize("s", [
    np.zeros((2, 2)),
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    np.diag([1.0, -1e-3]),
    -np.eye(3),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["zero", "singular", "indefinite", "negative", "nan", "inf"])
def test_ill_conditioned_flags_singular_indefinite_and_nan(s):
    assert ill_conditioned(s)
    assert ill_conditioned(np.stack([np.eye(len(s)), s])).tolist() == [False, True]


def test_ill_conditioned_does_not_overflow():
    # eigenvalues near the top of double precision: the ratio is divided out
    assert not ill_conditioned(np.diag([1e300, 1e299]))
    assert ill_conditioned(np.diag([1e300, 1e287]))


def test_psd_factor_rejects_indefinite():
    with pytest.raises(EivregError, match="below PSD tolerance"):
        psd_factor(np.diag([1.0, -0.5]))


def test_psd_factor_clips_tiny_negative():
    cov = np.diag([1.0, -1e-12])
    f = psd_factor(cov)
    np.testing.assert_allclose(f @ f.T, np.diag([1.0, 0.0]), atol=1e-11)


def _random_transform(g, p=2, q=2):
    return AffineTransform(kappa=g.standard_normal((p, p)),
                           iota=g.standard_normal((q, q)),
                           alpha=g.standard_normal((p, p)),
                           beta=g.standard_normal((q, q)),
                           rho=g.standard_normal((p, q)))


def _identity_transform(p=2, q=2):
    return AffineTransform(kappa=np.eye(p), iota=np.eye(q),
                           alpha=np.zeros((p, p)), beta=np.zeros((q, q)),
                           rho=np.zeros((p, q)))


def _law(transforms, lam):
    """The joint law of the transforms of Y with Cov(rvec Y) = lam."""
    return AsymptoticLaw(labels=tuple(f"T{i}" for i in range(len(transforms))),
                         transforms=tuple(transforms), lam=lam)


def test_transform_cov_block_identity():
    lam = sym(RNG.standard_normal((4, 4)))
    lam = lam @ lam.T + np.eye(4)
    t = _identity_transform()
    np.testing.assert_allclose(_law([t], lam).block(0, 0), lam, rtol=1e-12)


def test_transform_cov_block_vanishing_terms():
    # alpha_i = 0 and kappa_j = 0 leaves the single kappa_i/alpha_j cross term
    g = np.random.default_rng(5)
    lam = np.eye(4)
    zero = np.zeros((2, 2))
    ti = AffineTransform(kappa=g.standard_normal((2, 2)), iota=g.standard_normal((2, 2)),
                         alpha=zero, beta=zero, rho=zero)
    tj = AffineTransform(kappa=zero, iota=zero,
                         alpha=g.standard_normal((2, 2)), beta=g.standard_normal((2, 2)),
                         rho=zero)
    expected = kron(ti.kappa, ti.iota.T) @ lam @ kron(tj.alpha, tj.beta.T).T
    np.testing.assert_allclose(_law([ti, tj], lam).block(0, 1), expected,
                               rtol=1e-12)


def test_transform_cov_block_monte_carlo_oracle():
    g = np.random.default_rng(99)
    ti, tj = _random_transform(g), _random_transform(g)
    lam = np.eye(4)
    y = (g.standard_normal((100_000, 4)) @ psd_factor(lam).T).reshape(-1, 2, 2)
    vi = np.einsum("ab,rbc,cd->rad", ti.kappa, y, ti.iota) \
        + np.einsum("ab,rbc,cd->rad", ti.alpha, y, ti.beta)
    vj = np.einsum("ab,rbc,cd->rad", tj.kappa, y, tj.iota) \
        + np.einsum("ab,rbc,cd->rad", tj.alpha, y, tj.beta)
    stacked = np.hstack([vi.reshape(-1, 4), vj.reshape(-1, 4)])
    emp = np.cov(stacked.T)[:4, 4:]
    ref = _law([ti, tj], lam).block(0, 1)
    assert np.linalg.norm(emp - ref) / np.linalg.norm(ref) < 0.10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_transform_cov_block_transpose_symmetry(seed):
    g = np.random.default_rng(seed)
    ti, tj = _random_transform(g), _random_transform(g)
    f = g.standard_normal((4, 4))
    lam = sym(f @ f.T)
    law = _law([ti, tj], lam)
    bij = law.block(0, 1)
    bji = law.block(1, 0)
    assert np.linalg.norm(bij.T - bji) <= 1e-12 * max(1.0, np.linalg.norm(bij))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(1, 4))
def test_transform_block_grid_psd(seed, m):
    g = np.random.default_rng(seed)
    transforms = [_random_transform(g) for _ in range(m)]
    f = g.standard_normal((4, 4))
    lam = sym(f @ f.T)
    grid = _law(transforms, lam).full_cov()
    lo, hi = eig_extremes(sym(grid))
    assert lo >= -1e-8 * max(hi, 1.0)


def test_transform_dim_mismatch():
    good = dict(kappa=np.eye(2), iota=np.eye(3), alpha=np.eye(2),
                beta=np.eye(3), rho=np.zeros((2, 3)))
    assert _law([AffineTransform(**good)], np.eye(6)).block(0, 0).shape == (6, 6)
    for key, bad, message in (("alpha", np.eye(3), "kappa and alpha must"),
                              ("beta", np.eye(2), "iota and beta must"),
                              ("rho", np.zeros((3, 2)), "rho does not conform")):
        with pytest.raises(ValueError, match=message):
            AffineTransform(**{**good, key: bad})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.integers(1, 4), q=st.integers(1, 4))
def test_law_block_matches_elementwise_covariance(seed, p, q):
    # exact oracle: Cov(T_i(Y)[a, b], T_j(Y)[c, d]) summed over the entries of
    # Y from the definition T(Y) = kappa Y iota + alpha Y beta + rho, with no
    # Kronecker product on the way
    g = np.random.default_rng(seed)
    transforms = [_random_transform(g, p, q) for _ in range(2)]
    f = g.standard_normal((p * q, p * q))
    lam = f @ f.T
    law = _law(transforms, lam)
    coef = [np.einsum("ae,fb->abef", t.kappa, t.iota)
            + np.einsum("ae,fb->abef", t.alpha, t.beta) for t in transforms]
    lam4 = lam.reshape(p, q, p, q)
    for i in range(2):
        for j in range(2):
            ref = np.einsum("abef,efgh,cdgh->abcd", coef[i], lam4, coef[j])
            np.testing.assert_allclose(law.block(i, j), ref.reshape(p * q, p * q),
                                       rtol=1e-12, atol=1e-12)
