"""Data generation moments, restriction projection, and model validation."""

import math

import numpy as np
import pytest

from eivreg.exceptions import ConfigError, DimMismatch, RankDeficient
from eivreg.model import (DesignRule, ModelConfig, Restriction, generate,
                          make_restricted_b, standardized_draw)


def _cfg(**kw):
    base = dict(n=400, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.4,
                sigma_psi2=0.3, error_family="gaussian",
                M=DesignRule(seed=7))
    base.update(kw)
    return ModelConfig(**base)


RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]],
                    theta0=[[0.9]])


def test_noiseless_generation_is_exact():
    cfg = _cfg(sigma_eps2=0.0, sigma_delta2=0.0, sigma_psi2=0.0)
    B = np.array([[1.0, 0.5], [-0.2, 0.8]])
    ds = generate(cfg, B, np.random.default_rng(0))
    m = cfg.design()
    np.testing.assert_array_equal(ds.X, m)
    np.testing.assert_array_equal(ds.Z, m @ B)


def test_latent_identities():
    cfg = _cfg()
    B = np.array([[1.0, 0.5], [-0.2, 0.8]])
    ds = generate(cfg, B, np.random.default_rng(1), keep_latent=True)
    np.testing.assert_allclose(ds.X - ds.latent.D, ds.latent.Delta,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ds.Z - ds.latent.D @ B, ds.latent.E,
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(ds.latent.D, cfg.design() + ds.latent.Psi)


def test_gaussian_measurement_error_moments():
    g = np.random.default_rng(2)
    sd2 = 0.7
    draws = math.sqrt(sd2) * standardized_draw("gaussian", 100_000, g)
    m3 = np.mean(draws ** 3)
    m4 = np.mean(draws ** 4)
    assert abs(m3) < 0.1 * sd2 ** 1.5
    assert abs(m4 - 3 * sd2 ** 2) < 0.1 * 3 * sd2 ** 2


def test_shifted_exponential_skewness():
    g = np.random.default_rng(3)
    draws = standardized_draw("shifted-exponential", 100_000, g)
    skew = np.mean(draws ** 3) / np.std(draws) ** 3
    assert abs(skew - 2.0) < 0.2
    assert abs(np.var(draws) - 1.0) < 0.05


def test_scaled_t_unit_variance_and_symmetry():
    g = np.random.default_rng(4)
    draws = standardized_draw("scaled-t", 200_000, g)
    assert abs(np.var(draws) - 1.0) < 0.05
    assert abs(np.mean(draws ** 3)) < 0.1


PLAIN_DRAWS = {
    "gaussian": lambda g, size: g.standard_normal(size),
    "shifted-exponential": lambda g, size: g.exponential(1.0, size) - 1.0,
    "scaled-t": lambda g, size: g.standard_t(8, size) * math.sqrt(6 / 8),
}


@pytest.mark.parametrize("family", sorted(PLAIN_DRAWS))
def test_standardized_draw_in_place_matches_plain_numpy(family):
    size = (300, 3)
    want = PLAIN_DRAWS[family](np.random.default_rng(9), size)
    fresh = standardized_draw(family, size, np.random.default_rng(9))
    buf = np.full(size, np.nan)
    into = standardized_draw(family, size, np.random.default_rng(9), out=buf)
    assert into is buf
    assert fresh.tobytes() == want.tobytes() == buf.tobytes()


def test_error_components_uncorrelated():
    cfg = _cfg(n=10_000)
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = generate(cfg, B, np.random.default_rng(5), keep_latent=True)
    n = cfg.n
    se = 3.0 / math.sqrt(n * cfg.p)
    pairs = [(ds.latent.E[:, 0], ds.latent.Delta[:, 0]),
             (ds.latent.E[:, 1], ds.latent.Psi[:, 1]),
             (ds.latent.Delta[:, 0], ds.latent.Psi[:, 0])]
    for a, b in pairs:
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(a))
    assert se > 0  # sanity on the bound itself


def test_design_second_moment_convergence():
    cfg = _cfg(n=10_000)
    B = np.eye(2)
    ds = generate(cfg, B, np.random.default_rng(6))
    m = cfg.design()
    target = m.T @ m / cfg.n + (cfg.sigma_psi2 + cfg.sigma_delta2) * np.eye(2)
    emp = ds.X.T @ ds.X / cfg.n
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) <= 0.05


def test_design_rule_rows_nest_across_n():
    rule = DesignRule(seed=11)
    small = rule.rows(100, 3)
    big = rule.rows(500, 3)
    np.testing.assert_array_equal(big[:100], small)


def test_make_restricted_b_fixed_point():
    cfg = _cfg()
    restr = Restriction(R1=RESTR.R1, R2=RESTR.R2, theta=RESTR.theta)  # theta0=0
    seed_b = np.array([[1.0, 0.4], [-0.3, 0.9]])
    feasible = make_restricted_b(cfg, restr, seed_b)
    again = make_restricted_b(cfg, restr, feasible)
    np.testing.assert_allclose(again, feasible, atol=1e-12)


def test_make_restricted_b_hits_target():
    cfg = _cfg()
    for seed in range(10):
        seed_b = np.random.default_rng(seed).standard_normal((2, 2))
        b = make_restricted_b(cfg, RESTR, seed_b)
        gap = RESTR.R1 @ b @ RESTR.R2 - RESTR.target(cfg.n)
        assert np.linalg.norm(gap) <= 1e-10


def test_make_restricted_b_axis_aligned_hand_expansion():
    # R1 = (1, 0), R2 = (1, 0)', theta = 0: only B[0,0] moves, to theta0/sqrt(n)
    cfg = _cfg()
    restr = Restriction(R1=[[1.0, 0.0]], R2=[[1.0], [0.0]], theta=[[0.0]],
                        theta0=[[2.0]])
    seed_b = np.array([[5.0, 1.0], [2.0, 3.0]])
    b = make_restricted_b(cfg, restr, seed_b)
    assert b[0, 0] == pytest.approx(2.0 / math.sqrt(cfg.n), abs=1e-12)
    np.testing.assert_array_equal(b[:, 1], seed_b[:, 1])
    assert b[1, 0] == seed_b[1, 0]


def test_make_restricted_b_shape_check():
    with pytest.raises(DimMismatch):
        make_restricted_b(_cfg(), RESTR, np.zeros((3, 2)))


def test_restriction_rank_validation():
    with pytest.raises(RankDeficient):
        Restriction(R1=[[1.0, 0.0], [2.0, 0.0]], R2=[[1.0], [0.0]],
                    theta=[[0.0], [0.0]])
    with pytest.raises(RankDeficient):
        Restriction(R1=[[1.0, 0.0]], R2=[[0.0], [0.0]], theta=[[0.0]])


def test_restriction_theta_shape_validation():
    with pytest.raises(DimMismatch):
        Restriction(R1=[[1.0, 0.0]], R2=[[1.0], [0.0]], theta=[[0.0, 1.0]])


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(n=2, p=2)
    with pytest.raises(ConfigError):
        _cfg(sigma_eps2=-1.0)
    with pytest.raises(ConfigError):
        _cfg(error_family="cauchy")


def test_explicit_design_matrix():
    m = np.random.default_rng(8).standard_normal((50, 2))
    cfg = _cfg(n=50, M=m)
    np.testing.assert_array_equal(cfg.design(), m)
    np.testing.assert_array_equal(cfg.at_n(50).design(), m)
    with pytest.raises(ConfigError):
        cfg.at_n(100)
    with pytest.raises(ConfigError):
        _cfg(n=50, M=np.zeros((40, 2)))


def test_rank_deficient_design_rejected():
    m = np.ones((50, 2))
    cfg = _cfg(n=50, M=m)
    with pytest.raises(ConfigError, match="field 'model.M' does not have full"):
        cfg.design()
