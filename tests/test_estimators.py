"""Estimator algebra: naive and corrected least squares, weighted restricted
projections, and the corrected objective."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivreg.estimators import Attenuation, build_kx, estimate_all, lse, restricted
from eivreg.exceptions import NearSingular, NotPD, SingularDesign
from eivreg.model import DesignRule, ModelConfig, Restriction, generate, \
    make_restricted_b
from eivreg.asymptotics import population

RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]])


def _corrected_lse(X: np.ndarray, Z: np.ndarray, sigma_delta2: float) -> np.ndarray:
    """Attenuation-corrected estimator kx^{-1} (X'X)^{-1} X'Z = (X'X - n s2 I)^{-1} X'Z."""
    att = build_kx(X, sigma_delta2)
    return np.linalg.solve(att.n * att.sigma_d, np.asarray(X, dtype=float).T @ Z)


@dataclass(frozen=True)
class _ObjectiveValue:
    """Two evaluations of the corrected least-squares objective.

    `direct` is tr((Z-XB)'(Z-XB)) - tr(B'(X'X)(I-kx)B); `quadratic` is
    tr(Z'Z) + tr((b1-B)'(X'X kx)(b1-B)).  They differ by the B-independent
    `anchor` tr(b1'(X'X kx) b1): quadratic - direct == anchor.
    """

    direct: float
    quadratic: float
    anchor: float


def _corrected_objective(B: np.ndarray, X: np.ndarray, Z: np.ndarray,
                         att: Attenuation, b1: np.ndarray) -> _ObjectiveValue:
    B = np.asarray(B, dtype=float)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    resid = Z - X @ B
    n = att.n
    penalty = n * (att.sigma_x @ (np.eye(X.shape[1]) - att.kx))
    direct = float(np.trace(resid.T @ resid) - np.trace(B.T @ penalty @ B))
    w = n * att.sigma_d
    dev = b1 - B
    quadratic = float(np.trace(Z.T @ Z) + np.trace(dev.T @ w @ dev))
    anchor = float(np.trace(b1.T @ w @ b1))
    return _ObjectiveValue(direct=direct, quadratic=quadratic, anchor=anchor)


def _orthonormal_design(n, p, seed=0):
    g = np.random.default_rng(seed)
    q, _ = np.linalg.qr(g.standard_normal((n, p)))
    return q


def test_lse_projection_recovers_b():
    X = _orthonormal_design(40, 3)
    B = np.random.default_rng(1).standard_normal((3, 2))
    np.testing.assert_allclose(lse(X, X @ B), B, atol=1e-12)


def test_lse_zero_response():
    X = np.random.default_rng(2).standard_normal((30, 3))
    np.testing.assert_array_equal(lse(X, np.zeros((30, 2))), np.zeros((3, 2)))


def test_lse_noiseless_interpolation():
    g = np.random.default_rng(3)
    X = g.standard_normal((50, 2))
    B = g.standard_normal((2, 2))
    assert np.linalg.norm(lse(X, X @ B) - B) <= 1e-10


def test_lse_singular_design():
    X = np.ones((20, 2))
    with pytest.raises(SingularDesign):
        lse(X, np.zeros((20, 1)))


def test_build_kx_no_measurement_error():
    X = np.random.default_rng(4).standard_normal((60, 3))
    att = build_kx(X, 0.0)
    np.testing.assert_allclose(att.kx, np.eye(3), atol=1e-12)


def test_build_kx_scalar_algebra():
    # X'X/n = 2I and sigma_delta2 = 1 gives kx = I/2
    X = _orthonormal_design(50, 2) * np.sqrt(2 * 50)
    att = build_kx(X, 1.0)
    np.testing.assert_allclose(att.sigma_x, 2 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(att.kx, 0.5 * np.eye(2), atol=1e-10)


def test_build_kx_matches_population_limit():
    cfg = ModelConfig(n=10_000, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.5,
                      sigma_psi2=0.5, M=DesignRule(seed=7))
    B = np.array([[1.0, 0.2], [-0.3, 0.8]])
    ds = generate(cfg, B, np.random.default_rng(5))
    att = build_kx(ds.X, cfg.sigma_delta2)
    pm = population(cfg)
    assert np.linalg.norm(att.kx - pm.k) / np.linalg.norm(pm.k) <= 0.05


def test_build_kx_near_singular():
    X = _orthonormal_design(50, 2) * np.sqrt(50)  # X'X/n = I
    with pytest.raises(NearSingular):
        build_kx(X, 1.0)


def test_estimate_all_zero_design_without_measurement_error():
    # sigma_x = sigma_d = 0 fails the attenuation check rather than the
    # corrected solve
    Z = np.random.default_rng(8).standard_normal((10, 2))
    with pytest.raises(NearSingular, match=r"ch_min\(sigma_d\)"):
        estimate_all(np.zeros((10, 2)), Z, 0.0, RESTR)


def test_corrected_equals_naive_without_measurement_error():
    g = np.random.default_rng(6)
    X = g.standard_normal((80, 3))
    Z = g.standard_normal((80, 2))
    a = lse(X, Z)
    b = _corrected_lse(X, Z, 0.0)
    assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))


def test_naive_converges_to_attenuated_target():
    cfg = ModelConfig(n=4000, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.5,
                      sigma_psi2=0.5, M=DesignRule(low=-2, high=2, seed=7))
    restr = Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta)
    B = make_restricted_b(cfg, restr, np.array([[1.5, 0.7], [-0.4, 1.2]]))
    ds = generate(cfg, B, np.random.default_rng(8))
    pm = population(cfg)
    naive = lse(ds.X, ds.Z)
    corrected = _corrected_lse(ds.X, ds.Z, cfg.sigma_delta2)
    assert np.linalg.norm(naive - pm.k @ B) < 0.1
    assert np.linalg.norm(naive - B) > 3 * np.linalg.norm(naive - pm.k @ B)
    assert np.linalg.norm(corrected - B) < np.linalg.norm(naive - B)


def _random_problem(seed, n=60, p=3, q=2):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, p))
    Z = g.standard_normal((n, q))
    return X, Z


def test_restricted_fixed_point():
    X, Z = _random_problem(9)
    restr = Restriction(R1=[[1.0, 0.0, 0.0]], R2=[[1.0], [0.0]], theta=[[0.4]])
    b1 = _corrected_lse(X, Z, 0.05)
    feasible = restricted(b1, np.eye(3), restr)
    again = restricted(feasible, np.eye(3), restr)
    np.testing.assert_allclose(again, feasible, atol=1e-12)


def test_restricted_exactness_and_idempotence():
    g = np.random.default_rng(10)
    for _ in range(25):
        p = int(g.integers(2, 6))
        q = int(g.integers(2, 5))
        r1 = int(g.integers(1, p))
        r2 = int(g.integers(1, q))
        restr = Restriction(R1=g.standard_normal((r1, p)),
                            R2=g.standard_normal((q, r2)),
                            theta=g.standard_normal((r1, r2)))
        b1 = g.standard_normal((p, q))
        f = g.standard_normal((p, p))
        weight = f @ f.T + p * np.eye(p)
        bt = restricted(b1, weight, restr)
        assert restr.gap(bt) <= 1e-8 * (1.0 + np.linalg.norm(restr.theta))
        np.testing.assert_allclose(restricted(bt, weight, restr), bt, atol=1e-10)


def test_restricted_weight_scale_invariance():
    g = np.random.default_rng(11)
    restr = Restriction(R1=g.standard_normal((1, 3)), R2=g.standard_normal((2, 1)),
                        theta=[[0.2]])
    b1 = g.standard_normal((3, 2))
    f = g.standard_normal((3, 3))
    weight = f @ f.T + 3 * np.eye(3)
    a = restricted(b1, weight, restr)
    b = restricted(b1, 7.3 * weight, restr)
    np.testing.assert_allclose(a, b, atol=1e-10)


def _well_conditioned(g, k):
    """A k x k matrix with singular values in [0.5, 2]."""
    u, _ = np.linalg.qr(g.standard_normal((k, k)))
    v, _ = np.linalg.qr(g.standard_normal((k, k)))
    return u @ np.diag(g.uniform(0.5, 2.0, k)) @ v


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_restricted_change_of_basis(seed):
    # B -> G^{-1} B with R1 -> R1 G and S -> G'SG, or B -> B O' with R2 -> O R2
    # for an orthogonal O, is the same projection in the new coordinates
    g = np.random.default_rng(seed)
    p, q = int(g.integers(2, 6)), int(g.integers(2, 5))
    r1, r2 = int(g.integers(1, p + 1)), int(g.integers(1, q + 1))
    restr = Restriction(R1=_well_conditioned(g, p)[:r1],
                        R2=_well_conditioned(g, q)[:, :r2],
                        theta=g.standard_normal((r1, r2)))
    b1 = g.standard_normal((p, q))
    f = _well_conditioned(g, p)
    weight = f @ f.T
    want = restricted(b1, weight, restr)

    G = _well_conditioned(g, p)
    left = G @ restricted(np.linalg.solve(G, b1), G.T @ weight @ G,
                          Restriction(R1=restr.R1 @ G, R2=restr.R2,
                                      theta=restr.theta))
    O, _ = np.linalg.qr(g.standard_normal((q, q)))
    right = restricted(b1 @ O.T, weight,
                       Restriction(R1=restr.R1, R2=O @ restr.R2,
                                   theta=restr.theta)) @ O
    for got in (left, right):
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_restricted_identity_weight_is_min_norm_projection():
    # independent KKT oracle for min ||B - b1||_F s.t. R1 B = theta (R2 = I)
    g = np.random.default_rng(12)
    p, q, r1 = 4, 3, 2
    R1 = g.standard_normal((r1, p))
    theta = g.standard_normal((r1, q))
    restr = Restriction(R1=R1, R2=np.eye(q), theta=theta)
    b1 = g.standard_normal((p, q))
    bt = restricted(b1, np.eye(p), restr)

    # KKT system on column-stacked coordinates
    A = np.kron(np.eye(q), R1)
    k = p * q
    kkt = np.block([[np.eye(k), A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])
    rhs = np.concatenate([b1.ravel(order="F"), theta.ravel(order="F")])
    sol = np.linalg.solve(kkt, rhs)
    oracle = sol[:k].reshape((q, p)).T
    np.testing.assert_allclose(bt, oracle, atol=1e-10)


def test_fully_determined_restriction():
    # r1 = p and r2 = q pin B on the constraint: the projection returns
    # R1^{-1} theta R2^{-1} whatever the unrestricted estimate was
    g = np.random.default_rng(22)
    R1 = g.standard_normal((3, 3))
    R2 = g.standard_normal((2, 2))
    theta = g.standard_normal((3, 2))
    restr = Restriction(R1=R1, R2=R2, theta=theta)
    pinned = np.linalg.solve(R1, theta) @ np.linalg.inv(R2)
    f = g.standard_normal((3, 3))
    weight = f @ f.T + 3 * np.eye(3)
    for _ in range(5):
        b1 = g.standard_normal((3, 2))
        np.testing.assert_allclose(restricted(b1, weight, restr), pinned,
                                   atol=1e-9)


def test_restricted_rejects_bad_weight():
    restr = Restriction(R1=[[1.0, 0.0]], R2=[[1.0], [0.0]], theta=[[0.0]])
    b1 = np.zeros((2, 2))
    with pytest.raises(NotPD):
        restricted(b1, np.array([[1.0, 2.0], [0.0, 1.0]]), restr)
    with pytest.raises(NotPD):
        restricted(b1, -np.eye(2), restr)


def test_named_estimators_coincidences():
    g = np.random.default_rng(13)
    X = g.standard_normal((70, 2))
    Z = g.standard_normal((70, 2))
    restr = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]])
    # no measurement error: the first two weights coincide
    es = estimate_all(X, Z, 0.0, restr)
    assert (np.linalg.norm(es["B2"] - es["B3"])
            <= 1e-12 * max(1.0, np.linalg.norm(es["B3"])))
    # scaled-orthonormal design (X'X = n I): the last two weights coincide
    Xo = _orthonormal_design(70, 2, seed=14) * np.sqrt(70)
    es = estimate_all(Xo, Z, 0.2, restr)
    assert (np.linalg.norm(es["B3"] - es["B4"])
            <= 1e-12 * max(1.0, np.linalg.norm(es["B4"])))


def test_estimate_all_restriction_exactness():
    X, Z = _random_problem(15, n=80, p=3, q=3)
    restr = Restriction(R1=np.random.default_rng(16).standard_normal((2, 3)),
                        R2=np.random.default_rng(17).standard_normal((3, 2)),
                        theta=np.random.default_rng(18).standard_normal((2, 2)))
    es = estimate_all(X, Z, 0.05, restr)
    # any other weight goes through the reference projection
    es["RE"] = restricted(es["UE"], np.eye(3), restr)
    tol = 1e-8 * (1.0 + np.linalg.norm(restr.theta))
    for lbl in ("B2", "B3", "B4", "RE"):
        assert restr.gap(es[lbl]) <= tol


@pytest.mark.parametrize("matrix, bad", [("X", np.inf), ("Z", np.nan)])
def test_estimate_all_rejects_non_finite_data(matrix, bad):
    data = dict(zip("XZ", _random_problem(19, n=40, p=2, q=2)))
    data[matrix][3, 1] = bad
    restr = Restriction(R1=np.array([[1.0, -0.5]]), R2=np.array([[1.0], [0.8]]),
                        theta=np.array([[0.3]]))
    with pytest.raises(ValueError, match="finite"):
        estimate_all(data["X"], data["Z"], 0.05, restr)


def test_objective_anchored_identity_and_minimum():
    g = np.random.default_rng(19)
    X = g.standard_normal((60, 3))
    Z = g.standard_normal((60, 2))
    sd2 = 0.1
    att = build_kx(X, sd2)
    b1 = _corrected_lse(X, Z, sd2)

    # at the corrected estimator the quadratic form collapses to tr(Z'Z)
    at_min = _corrected_objective(b1, X, Z, att, b1)
    assert at_min.quadratic == pytest.approx(float(np.trace(Z.T @ Z)), rel=1e-10)

    # the two printed forms differ by the B-independent anchor
    for _ in range(20):
        B = g.standard_normal((3, 2))
        val = _corrected_objective(B, X, Z, att, b1)
        assert val.quadratic - val.direct == pytest.approx(
            val.anchor, rel=1e-8, abs=1e-8)

    # and the quadratic form exceeds its minimum everywhere
    for _ in range(20):
        B = b1 + g.standard_normal((3, 2))
        assert _corrected_objective(B, X, Z, att, b1).quadratic >= at_min.quadratic


def test_constrained_minimum_feasible_directions():
    g = np.random.default_rng(20)
    X = g.standard_normal((60, 3))
    Z = g.standard_normal((60, 2))
    sd2 = 0.1
    restr = Restriction(R1=g.standard_normal((1, 3)), R2=g.standard_normal((2, 1)),
                        theta=[[0.5]])
    att = build_kx(X, sd2)
    es = estimate_all(X, Z, sd2, restr)
    base = _corrected_objective(es["B2"], X, Z, att, es["UE"]).quadratic
    # null-space directions of B -> R1 B R2 keep feasibility
    lift = np.kron(restr.R1, restr.R2.T)  # row-major flattening
    _, _, vt = np.linalg.svd(lift)
    null_basis = vt[1:, :]
    for _ in range(100):
        coef = g.standard_normal(null_basis.shape[0])
        direction = (coef @ null_basis).reshape(3, 2)
        for t in (0.1, -0.1, 0.5):
            cand = es["B2"] + t * direction
            assert restr.gap(cand) <= 1e-8
            val = _corrected_objective(cand, X, Z, att, es["UE"]).quadratic
            assert val >= base - 1e-9 * max(1.0, abs(base))


def test_attenuation_dataclass_fields():
    X = np.random.default_rng(21).standard_normal((50, 2))
    att = build_kx(X, 0.1)
    assert isinstance(att, Attenuation)
    np.testing.assert_allclose(att.sigma_d, att.sigma_x - 0.1 * np.eye(2),
                               atol=1e-14)
    np.testing.assert_allclose(att.sigma_x @ att.kx, att.sigma_d, atol=1e-12)
