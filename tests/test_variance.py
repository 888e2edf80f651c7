"""Karhunen-Loeve variance estimators and their chi-square laws."""

import math

import numpy as np
import pytest
from oracles import (
    correlation,
    correlation_grad,
    design_points,
    design_sigma_hat_cond,
    design_sigma_hat_grid,
    torus_delta,
    x_eval,
    x_grad,
)
from scipy.stats import chi2

from srknots.knots import first_knot
from srknots.model import (
    AtomicMeasure,
    ModelContext,
    Observation,
    kernel_gamma,
    synthesize,
)
from srknots.numerics import RngStream
from srknots.variance import sigma_hat_cond, sigma_hat_grid

TWO_PI = 2.0 * math.pi


def _noisy_obs(seed, f_c=3, sigma=1.0):
    return synthesize(AtomicMeasure.empty(), f_c, sigma, RngStream(seed, 0))


def _conditional_correlation(z, f_c):
    """Independent construction of the conditional design correlation
    (rows/columns for the 2N-1 points beyond z itself)."""
    ctx = ModelContext(f_c)
    pts = design_points(z, f_c)
    lam_inv = np.array([1.0 / ctx.alpha1, 1.0])
    rho = np.array([correlation(ctx, torus_delta(p, z)) for p in pts])
    grads = np.array([correlation_grad(ctx, torus_delta(p, z)) for p in pts])
    m = len(pts)
    full = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            full[i, j] = correlation(ctx, torus_delta(pts[i], pts[j]))
    idx = np.arange(1, m)
    c_cond = (
        full[np.ix_(idx, idx)]
        - np.outer(rho[idx], rho[idx])
        - (grads[idx] * lam_inv) @ grads[idx].T
    )
    return pts, rho, grads, c_cond


def test_design_points_fc1_layout():
    pts = design_points((0.0, 0.0), 1)
    expected = [
        (0.0, 0.0),
        (TWO_PI / 3.0, 0.0),
        (2.0 * TWO_PI / 3.0, 0.0),
        (0.0, math.pi / 2.0),
        (TWO_PI / 3.0, math.pi / 2.0),
        (2.0 * TWO_PI / 3.0, math.pi / 2.0),
    ]
    assert len(pts) == 6
    for p, (t, th) in zip(pts, expected):
        assert p.t == pytest.approx(t, abs=1e-12)
        assert p.theta == pytest.approx(th, abs=1e-12)


def test_design_points_distinct_and_anchored():
    z = (1.3, 0.4)
    for f_c in (1, 3, 7):
        pts = design_points(z, f_c)
        assert len(pts) == 2 * (2 * f_c + 1)
        assert pts[0].t == pytest.approx(z[0]) and pts[0].theta == pytest.approx(z[1])
        seen = {(round(p.t, 12), round(p.theta, 12)) for p in pts}
        assert len(seen) == len(pts)


def test_design_covariance_full_rank():
    z = (0.7, 1.9)
    for f_c in (1, 2, 3, 5, 7):
        ctx = ModelContext(f_c)
        pts = design_points(z, f_c)
        m = len(pts)
        cov = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                cov[i, j] = correlation(ctx, torus_delta(pts[i], pts[j]))
        s = np.linalg.svd(cov, compute_uv=False)
        assert s[-1] > 1e-10


def test_conditional_correlation_rank():
    z = (0.2, 2.5)
    for f_c in (3, 5, 7):
        _, _, _, c_cond = _conditional_correlation(z, f_c)
        s = np.linalg.svd(c_cond, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == 2 * (2 * f_c + 1) - 3


def _oracle_cases():
    """(obs, z) at f_c 1, 2, 3, 7, 15 and 30: a null draw and one spike of
    weight 1, sqrt N and 1e3, each at a random z and at z_hat."""
    rng = np.random.default_rng(11)
    cases = []
    for f_c in (1, 2, 3, 7, 15, 30):
        n = 2 * f_c + 1
        for sub, weight in enumerate((0.0, 1.0, math.sqrt(n), 1e3)):
            atoms = [(rng.uniform(0.0, TWO_PI), weight)] if weight else []
            obs = synthesize(AtomicMeasure.from_atoms(atoms), f_c, 1.0, RngStream(700 + f_c, sub))
            z_hat, _ = first_knot(obs)
            cases.append((obs, tuple(rng.uniform(0.0, TWO_PI, 2))))
            cases.append((obs, (z_hat.t, z_hat.theta)))
    return cases


def test_design_correlation_is_white():
    # rho(z_i - z_j) = delta_ij on the design: the identity behind the closed form
    for f_c in (1, 2, 3, 7, 15, 30):
        pts = np.array(design_points((0.0, 0.0), f_c))
        d = pts[:, None, :] - pts[None, :, :]
        full = kernel_gamma(f_c, d[..., 0].ravel()).reshape(d.shape[:2]) * np.cos(d[..., 1])
        assert np.max(np.abs(full - np.eye(len(pts)))) < 1e-13


def test_estimator_dof_and_design():
    obs = _noisy_obs(1)
    z = (0.0, 0.0)
    est_g = sigma_hat_grid(obs, z)
    est_c = sigma_hat_cond(obs, z)
    n = obs.n_freq
    assert est_g.dof == 2 * n - 1
    assert est_c.dof == 2 * n - 3
    # the grid estimate is the quadratic form of the residuals at design_points(z)
    pts, rho, grads, c_cond = _conditional_correlation(z, obs.f_c)
    lam_inv = np.array([1.0 / obs.context().alpha1, 1.0])
    c_grid = c_cond + (grads[1:] * lam_inv) @ grads[1:].T
    vals = np.array([x_eval(obs, p) for p in pts])
    v = vals[1:] - rho[1:] * vals[0]
    expected = float(v @ np.linalg.solve(c_grid, v)) / est_g.dof
    assert est_g.value == pytest.approx(expected, rel=1e-10)
    assert est_g.value > 0 and est_c.value > 0
    # and the design route's SVD pseudo-inverse, over f_c, base points and SNR
    for case_obs, case_z in _oracle_cases():
        assert sigma_hat_grid(case_obs, case_z).value == pytest.approx(
            design_sigma_hat_grid(case_obs, case_z), rel=1e-10)


def test_scaling_quadratic():
    obs = _noisy_obs(2)
    z = (1.0, 0.3)
    c = 3.7
    scaled = Observation(f_c=obs.f_c, y=c * obs.y, sigma=obs.sigma)
    assert sigma_hat_grid(scaled, z).value == pytest.approx(
        c * c * sigma_hat_grid(obs, z).value, rel=1e-12
    )
    assert sigma_hat_cond(scaled, z).value == pytest.approx(
        c * c * sigma_hat_cond(obs, z).value, rel=1e-12
    )


def test_noiseless_kernel_residuals_vanish():
    # data that is exactly a multiple of the kernel at z leaves zero residual
    x0, a = 1.1, 2.0
    obs = synthesize(AtomicMeasure.from_atoms([(x0, a)]), 3, 0.0, RngStream(0))
    obs = Observation(f_c=obs.f_c, y=obs.y, sigma=1.0)  # estimators need a noise mode
    z = (x0, 0.0)
    assert sigma_hat_grid(obs, z).value < 1e-20
    assert sigma_hat_cond(obs, z).value < 1e-20


def test_conditional_estimator_matches_independent_route():
    # same value through an explicit eigendecomposition pseudo-inverse
    obs = _noisy_obs(3)
    z = (0.9, 2.2)
    ctx = obs.context()
    pts, rho, grads, c_cond = _conditional_correlation(z, obs.f_c)
    lam_inv = np.array([1.0 / ctx.alpha1, 1.0])
    vals = np.array([x_eval(obs, p) for p in pts])
    grad = x_grad(obs, z)
    v = vals[1:] - rho[1:] * vals[0] + grads[1:] @ (lam_inv * grad)
    dof = 2 * obs.n_freq - 3
    w, u = np.linalg.eigh(c_cond)
    keep = np.argsort(w)[-dof:]
    pinv = (u[:, keep] / w[keep]) @ u[:, keep].T
    expected = float(v @ pinv @ v) / dof
    assert sigma_hat_cond(obs, z).value == pytest.approx(expected, rel=1e-10)
    # and through the design route's SVD pseudo-inverse, over f_c, base points and SNR
    for obs, z in _oracle_cases():
        assert sigma_hat_cond(obs, z).value == pytest.approx(
            design_sigma_hat_cond(obs, z), rel=1e-10)


def test_gradient_correction_negligible_at_maximizer():
    # at z_hat the X'(z) term is ~0, so dropping it must not move the estimate
    obs = _noisy_obs(4)
    z_hat, _ = first_knot(obs)
    pts, rho, grads, c_cond = _conditional_correlation((z_hat.t, z_hat.theta), obs.f_c)
    vals = np.array([x_eval(obs, p) for p in pts])
    v_drop = vals[1:] - rho[1:] * vals[0]
    dof = 2 * obs.n_freq - 3
    w, u = np.linalg.eigh(c_cond)
    keep = np.argsort(w)[-dof:]
    pinv = (u[:, keep] / w[keep]) @ u[:, keep].T
    dropped = float(v_drop @ pinv @ v_drop) / dof
    assert abs(dropped - sigma_hat_cond(obs, z_hat).value) < 1e-9


def test_phase_rotation_invariance():
    # y -> e^{i phi} y shifts theta-hat; the estimator at the shifted base
    # point is unchanged
    obs = _noisy_obs(5)
    z = (0.8, 1.1)
    phi = 0.77
    rotated = Observation(f_c=obs.f_c, y=np.exp(1j * phi) * obs.y, sigma=obs.sigma)
    z_rot = (z[0], z[1] + phi)
    assert sigma_hat_grid(rotated, z_rot).value == pytest.approx(
        sigma_hat_grid(obs, z).value, abs=1e-9
    )
    assert sigma_hat_cond(rotated, z_rot).value == pytest.approx(
        sigma_hat_cond(obs, z).value, abs=1e-9
    )


def test_chi_square_laws(variance_null_sample):
    _, s2_grid, s2_cond = variance_null_sample
    from scipy.stats import kstest

    assert kstest(13.0 * s2_grid, chi2(13).cdf).statistic < 0.0364
    assert kstest(11.0 * s2_cond, chi2(11).cdf).statistic < 0.0364


def test_value_estimator_independence(variance_null_sample):
    x_at_z, s2_grid, _ = variance_null_sample
    corr = np.corrcoef(x_at_z, s2_grid)[0, 1]
    assert abs(corr) < 0.08
