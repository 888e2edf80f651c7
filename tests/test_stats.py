"""The five test statistics, the Voronoi draw, and the randomized second knot."""

import math

import numpy as np
import pytest
from oracles import g_bar, g_bar_closed, h_bar, normal_pdf, normal_sf, voronoi_rejection_sample
from scipy.special import erfcx
from scipy.stats import ks_2samp

from srknots import stats
from srknots.errors import NonPositiveDenominator, OutOfRange
from srknots.knots import KnotCertificate, compute_certificate, first_knot
from srknots.mc import AlternativeSpec
from srknots.model import AtomicMeasure, ModelContext, TorusPoint, synthesize
from srknots.numerics import RngStream
from srknots.stats import (
    _gauss_reduce,
    grid_knots,
    grid_spacing_test,
    grid_test_known,
    grid_test_unknown,
    h_bar_closed,
    lambda2_bar,
    rice_known,
    rice_unknown,
    spacing_statistic,
    voronoi_sample,
)
from srknots.variance import VarianceEstimate, sigma_hat_cond, sigma_hat_grid

TWO_PI = 2.0 * math.pi


def _cert(lambda1, lambda2, alpha2=0.0, alpha3=0.0):
    """Hand-built certificate for closed-form checks."""
    big_r = np.array([[-alpha2, alpha3], [alpha3, 0.0]])
    return KnotCertificate(
        z_hat=TorusPoint.make(0.0, 0.0),
        lambda1=lambda1,
        y_hat=TorusPoint.make(1.0, 0.0),
        lambda2=lambda2,
        R=big_r,
        alpha2=alpha2,
        alpha3=alpha3,
        grad_norm_at_zhat=0.0,
    )


def _noisy_obs(seed, f_c=3):
    return synthesize(AtomicMeasure.empty(), f_c, 1.0, RngStream(seed, 0))


def _certificate_cases():
    """(obs, cert, sigma-hat) for null and one-spike draws at f_c 3, 7 and 15
    with weights sqrt(N) and 3 sqrt(N), and a weight-50 spike at f_c = 15:
    the knots and remainders the Kac-Rice ratios meet in the Monte-Carlo runs."""
    alternatives = []
    for f_c in (3, 7, 15):
        root_n = math.sqrt(2 * f_c + 1)
        alternatives += [(f_c, AlternativeSpec()), (f_c, AlternativeSpec(1, (root_n,))),
                         (f_c, AlternativeSpec(1, (3.0 * root_n,)))]
    alternatives.append((15, AlternativeSpec(1, (50.0,))))
    cases = []
    for f_c, alt in alternatives:
        for rep in range(2):
            rng = RngStream(1200 + f_c, rep).generator()
            obs = synthesize(alt.draw_measure(f_c, rng), f_c, 1.0, rng)
            cert = compute_certificate(obs)
            s_hat = math.sqrt(sigma_hat_cond(obs, cert.z_hat).value)
            cases.append((obs, cert, s_hat))
    return cases


def test_g_bar_zero_remainder():
    ctx = ModelContext(3)
    assert g_bar(0.0, np.zeros((2, 2)), 1.0, ctx) == pytest.approx(ctx.alpha1 / 2.0, abs=1e-10)
    assert abs(g_bar(40.0, np.zeros((2, 2)), 1.0, ctx)) < 1e-15


def test_g_bar_matches_closed_form():
    ctx = ModelContext(5)
    rng = np.random.default_rng(17)
    for _ in range(100):
        ell = rng.uniform(0.0, 4.0)
        a2 = rng.uniform(-3.0, 3.0)
        a3 = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(0.5, 2.0)
        big_r = np.array([[-a2, a3], [a3, 0.0]])
        quad = g_bar(ell, big_r, sigma, ctx)
        closed = g_bar_closed(ell, ctx.alpha1, a2, a3, sigma)
        assert abs(quad - closed) < 1e-9 * max(1.0, abs(closed))
    # at both knots of real certificates the two routes agree to 1e-12
    # relative (both read exactly 0 where phi(lambda1) underflows)
    for obs, cert, _ in _certificate_cases():
        ctx = obs.context()
        for ell in (cert.lambda1, cert.lambda2):
            quad = g_bar(ell, cert.R, 1.0, ctx)
            closed = g_bar_closed(ell, ctx.alpha1, cert.alpha2, cert.alpha3, 1.0)
            assert abs(quad - closed) <= 1e-12 * abs(closed)


def test_rice_known_equal_knots_is_one():
    ctx = ModelContext(3)
    report = rice_known(_cert(1.3, 1.3, alpha2=0.4, alpha3=-0.2), 1.0, ctx)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.name == "rice"


def test_rice_known_reference_value():
    # alpha2 = alpha3 = 0, sigma = 1, knots (2, 1):
    # (2 phi(2) + sf(2)) / (phi(1) + sf(1))
    ctx = ModelContext(3)
    report = rice_known(_cert(2.0, 1.0), 1.0, ctx)
    expected = (2 * normal_pdf(2.0) + normal_sf(2.0)) / (normal_pdf(1.0) + normal_sf(1.0))
    assert report.value == pytest.approx(expected, rel=1e-12)
    assert report.value == pytest.approx(0.3263194900144883, rel=1e-10)
    assert {"lambda1", "lambda2", "sigma"} <= set(report.aux)


def test_rice_known_scale_equivariance(obs_seed42):
    from srknots.model import Observation

    ctx = obs_seed42.context()
    cert = compute_certificate(obs_seed42)
    base = rice_known(cert, 1.0, ctx).value
    c = 2.9
    scaled = Observation(f_c=obs_seed42.f_c, y=c * obs_seed42.y, sigma=c)
    cert_c = compute_certificate(scaled)
    assert rice_known(cert_c, c, ctx).value == pytest.approx(base, abs=1e-9)


def test_rice_known_nonpositive_denominator():
    ctx = ModelContext(3)
    # B(lambda2) = (alpha1 + alpha2) + alpha1 M(1) = -6 + 4 M(1) < 0 at lambda2 = 1
    with pytest.raises(NonPositiveDenominator):
        rice_known(_cert(2.0, 1.0, alpha2=-10.0), 1.0, ctx)
    # where both phi underflow (knots past 38 sigma) the ratio is still a
    # p-value: exp(-(61^2 - 60^2) / 2) (61 + M(61)) / (60 + M(60)), M the
    # Mills ratio sqrt(pi / 2) erfcx(x / sqrt 2)
    mills = [math.sqrt(0.5 * math.pi) * erfcx(x / math.sqrt(2.0)) for x in (61.0, 60.0)]
    expected = math.exp(-60.5) * (61.0 + mills[0]) / (60.0 + mills[1])
    assert rice_known(_cert(61.0, 60.0), 1.0, ctx).value == pytest.approx(expected, rel=1e-13)


def test_h_bar_zero_remainder_value():
    # r = 0, ell = 0, m = 14: alpha1 * sqrt(11/13) / 2
    ctx = ModelContext(3)
    val = h_bar(0.0, np.zeros((2, 2)), 14, ctx)
    assert val == pytest.approx(ctx.alpha1 * math.sqrt(11.0 / 13.0) / 2.0, abs=1e-10)
    assert abs(h_bar(40.0, np.zeros((2, 2)), 14, ctx)) < 1e-8 * val


def test_h_bar_matches_closed_form():
    ctx = ModelContext(3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        ell = rng.uniform(0.0, 4.0)
        a2 = rng.uniform(-3.0, 3.0)
        a3 = rng.uniform(-2.0, 2.0)
        m = int(rng.choice([8, 14, 30]))
        r = np.array([[-a2, a3], [a3, 0.0]])
        quad = h_bar(ell, r, m, ctx)
        closed = h_bar_closed(ell, r, m, ctx)
        assert abs(quad - closed) < 1e-7 * max(1.0, abs(closed))
    # at the studentized knots T_i = lambda_i / sigma-hat of real certificates
    for obs, cert, s_hat in _certificate_cases():
        ctx = obs.context()
        r = cert.R / s_hat
        for ell in (cert.lambda1 / s_hat, cert.lambda2 / s_hat):
            quad = h_bar(ell, r, ctx.m, ctx)
            closed = h_bar_closed(ell, r, ctx.m, ctx)
            assert abs(quad - closed) <= 1e-12 * abs(closed)


def test_rice_unknown_equal_knots_is_one():
    ctx = ModelContext(3)
    est = VarianceEstimate(value=0.8, dof=ctx.m - 3)
    report = rice_unknown(_cert(1.7, 1.7, alpha2=0.3), est, ctx)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.name == "t_rice"
    assert report.aux["dof"] == 11


def test_rice_unknown_validation():
    ctx = ModelContext(3)
    with pytest.raises(ValueError):
        rice_unknown(_cert(2.0, 1.0), VarianceEstimate(value=1.0, dof=13), ctx)
    with pytest.raises(ValueError):
        rice_unknown(
            _cert(2.0, 1.0),
            VarianceEstimate(value=1.0, dof=3),
            ModelContext(1),
        )


def test_rice_unknown_on_observation(obs_seed42):
    ctx = obs_seed42.context()
    cert = compute_certificate(obs_seed42)
    est = sigma_hat_cond(obs_seed42, cert.z_hat)
    report = rice_unknown(cert, est, ctx)
    assert 0.0 <= report.value <= 1.0
    r = cert.R / math.sqrt(est.value)
    quad = h_bar(report.aux["T1"], r, ctx.m, ctx) / h_bar(report.aux["T2"], r, ctx.m, ctx)
    assert quad == pytest.approx(report.value, abs=1e-7)


def test_spacing_values():
    assert spacing_statistic(1.4, 1.4, 1.0).value == pytest.approx(1.0, abs=1e-14)
    report = spacing_statistic(2.0, 1.0, 1.0)
    assert report.value == pytest.approx(0.14339349869880644, rel=1e-12)
    assert report.name == "spacing"


def test_grid_knots_dominated_by_continuum(obs_seed42):
    _, lambda1 = first_knot(obs_seed42)
    for p in (3, 10, 32, 50):
        l1n, _, l2n = grid_knots(obs_seed42, p)
        assert l1n <= lambda1 + 1e-12
        assert l2n <= l1n + 1e-12
    with pytest.raises(ValueError):
        grid_knots(obs_seed42, 1)


def test_grid_knots_mesh_refinement():
    # pinned instance where the sweep is monotone and the 200-grid closes
    # to within 1e-4 of the continuum maximum
    obs = _noisy_obs(6)
    _, lambda1 = first_knot(obs)
    vals = [grid_knots(obs, p)[0] for p in (3, 10, 32, 50, 200)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert lambda1 - vals[-1] < 1e-4
    assert vals[-1] <= lambda1


def test_grid_knots_noiseless_atom_on_node():
    x0 = TWO_PI * 3.0 / 10.0
    obs = synthesize(AtomicMeasure.from_atoms([(x0, 1.5)]), 3, 0.0, RngStream(0))
    l1n, z_n, _ = grid_knots(obs, 10)
    assert l1n == pytest.approx(1.5, abs=1e-12)
    assert z_n.t == pytest.approx(x0, abs=1e-12)
    assert z_n.theta == 0.0


def test_grid_knots_tie_break_lexicographic():
    # two unit atoms at antipodal grid nodes make (0, 0) and (pi, 0) tie
    measure = AtomicMeasure.from_atoms([(0.0, 1.0), (math.pi, 1.0)])
    obs = synthesize(measure, 1, 0.0, RngStream(0))
    l1n, z_n, _ = grid_knots(obs, 4)
    assert l1n == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert z_n.t == 0.0 and z_n.theta == 0.0


def test_grid_spacing_uniform_null():
    # exact U[0,1] on a fixed grid: 300-rep KS within the 99% band
    vals = []
    for rep in range(300):
        obs = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(31337, rep))
        vals.append(grid_spacing_test(obs, 10, 1.0).value)
    vals = np.sort(np.asarray(vals))
    n = vals.size
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - vals), np.max(vals - (i - 1) / n))
    assert ks < 1.63 / math.sqrt(n)


def test_grid_spacing_report_shape(obs_seed42):
    report = grid_spacing_test(obs_seed42, 10, 1.0)
    assert report.name == "grid_spacing_10"
    assert 0.0 <= report.value <= 1.0
    assert report.aux["p"] == 10


def test_voronoi_sample_diagonal_cell():
    hess = np.diag([-2.0, -0.5])
    gen = RngStream(12, 0).generator()
    draws = np.array([voronoi_sample(hess, gen) for _ in range(400)])
    assert np.all(np.abs(draws) <= 0.5 + 1e-12)
    # deterministic when handed the stream itself
    u1 = voronoi_sample(hess, RngStream(12, 5))
    u2 = voronoi_sample(hess, RngStream(12, 5))
    assert np.array_equal(u1, u2)
    # one uniform pair per draw
    gen, ref = np.random.default_rng(8), np.random.default_rng(8)
    voronoi_sample(hess, gen)
    ref.uniform(size=2)
    assert gen.random() == ref.random()


def test_voronoi_sample_membership_general():
    # every draw must be at least as close to 0 as to any nearby lattice point
    hess = -np.array([[4.0, -1.9], [-1.9, 1.0]])
    metric = -hess
    gen = RngStream(13, 0).generator()
    ks = [np.array([i, j]) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)]
    for _ in range(400):
        u = voronoi_sample(hess, gen)
        qu = u @ metric @ u
        for k in ks:
            assert qu <= (u - k) @ metric @ (u - k) + 1e-9
    # The cell is exactly |<x, r>| <= q(r)/2 over r in {u, v, u + v} for a
    # Lagrange-reduced basis (u, v); random metrics with eigenvalue ratios up
    # to e^8 and any orientation.
    rng = np.random.default_rng(31)
    for _ in range(300):
        eig = np.exp(rng.uniform(-4.0, 4.0, size=2))
        phi = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        metric = rot @ np.diag(eig) @ rot.T
        u, v = (basis[0] for basis in _gauss_reduce(metric[None]))
        assert abs(u[0] * v[1] - u[1] * v[0]) == 1
        assert abs(2.0 * (u @ metric @ v)) <= u @ metric @ u <= v @ metric @ v
        assert u @ metric @ v <= 0.0
        rel = np.array([u, v, u + v], dtype=float)
        halves = 0.5 * np.einsum("ij,jk,ik->i", rel, metric, rel)
        for _ in range(20):
            x = voronoi_sample(-metric, rng)
            assert np.all(np.abs(rel @ metric @ x) <= halves * (1.0 + 1e-12))


@pytest.mark.parametrize(
    "metric", [[[2.0, 0.0], [0.0, 0.5]], [[4.0, -1.9], [-1.9, 1.0]], [[30.0, 5.0], [5.0, 1.0]]]
)
def test_voronoi_sample_law_matches_rejection(metric):
    # two-sample KS against the rejection sampler on u1, u2 and q(u), inside
    # the 1% band; [[30, 5], [5, 1]] reduces to u = (0, 1), v = (1, -5)
    metric = np.array(metric)
    n = 3000
    gen = RngStream(41, 0).generator()
    new = np.array([voronoi_sample(-metric, gen) for _ in range(n)])
    ref = np.array([voronoi_rejection_sample(-metric, gen) for _ in range(n)])
    band = 1.63 * math.sqrt(2.0 / n)
    for f in (lambda d: d[:, 0], lambda d: d[:, 1],
              lambda d: np.einsum("ij,jk,ik->i", d, metric, d)):
        assert ks_2samp(f(new), f(ref)).statistic < band


def test_voronoi_sample_eccentric_mean():
    # strongly sheared metric: the cell leaves [-1,1]^2 and the draw stays
    # centered
    hess = -np.array([[4.0, -1.9], [-1.9, 1.0]])
    gen = RngStream(99, 0).generator()
    draws = np.array([voronoi_sample(hess, gen) for _ in range(10_000)])
    assert np.max(np.abs(draws[:, 1])) > 1.0
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


def test_lambda2_bar_diagonal_axis_vectors():
    # U = 0, hess = -diag(d1, d2): the axis vectors attain the sup, giving
    # max(lambda2, lambda1 - min(d1/alpha1, d2))
    ctx = ModelContext(3)
    val = lambda2_bar(2.0, 1.0, np.diag([-2.0, -0.5]), np.zeros(2), ctx)
    assert val == pytest.approx(1.5, abs=1e-14)
    val2 = lambda2_bar(2.0, 1.9, np.diag([-2.0, -0.5]), np.zeros(2), ctx)
    assert val2 == pytest.approx(1.9, abs=1e-14)


def test_lambda2_bar_dominates_and_window_stable(monkeypatch):
    ctx = ModelContext(3)
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.3, 2.0)
        c = rng.uniform(-0.8, 0.8) * math.sqrt(a * b)
        hess = -np.array([[a, c], [c, b]])
        u = voronoi_sample(hess, rng)
        lam1 = rng.uniform(1.0, 3.0)
        lam2 = rng.uniform(0.0, lam1)
        v16 = lambda2_bar(lam1, lam2, hess, u, ctx)
        with monkeypatch.context() as patch:
            patch.setattr(stats, "_K_WINDOW", 64)
            v64 = lambda2_bar(lam1, lam2, hess, u, ctx)
        assert v16 >= lam2
        assert v16 < lam1
        assert abs(v16 - v64) < 1e-12


def test_grid_test_known_values():
    report = grid_test_known(1.8, 1.8, 1.0)
    assert report.value == pytest.approx(1.0, abs=1e-14)
    assert report.name == "grid"
    with pytest.raises(OutOfRange):
        grid_test_known(1.0, 2.0, 1.0)  # ratio above 1 must not be clamped


def test_grid_test_unknown_dof_validation():
    ctx = ModelContext(3)
    est_wrong = VarianceEstimate(value=1.0, dof=11)
    with pytest.raises(ValueError):
        grid_test_unknown(2.0, 1.0, est_wrong, ctx)
    est = VarianceEstimate(value=1.0, dof=13)
    report = grid_test_unknown(2.0, 1.0, est, ctx)
    assert report.name == "t_grid"
    assert 0.0 <= report.value <= 1.0
    assert report.aux["dof"] == 13


@pytest.mark.parametrize("f_c", [3, 7, 30])
def test_grid_test_unknown_tends_to_the_kappa_power_limit(f_c):
    # One spike of weight 1e6 (sigma = 1): H ~ -Lt lambda1, so lambda2-bar
    # tends to kappa lambda1 with kappa = max_k 2 k'Lt U / k'Lt k over the
    # same window and Voronoi draw U, and t_grid's p-value to kappa^(2N - 1),
    # since Fbar_nu(T) / Fbar_nu(kappa T) -> kappa^nu.  The (2N - 1)-th root
    # of the p-value is about lambda2-bar / lambda1, which is off kappa by
    # k'R(k - 2U) / k'Lt k / lambda1, a few 1e-6 for a remainder R of noise
    # size: 1e-4 leaves a wide margin.
    ctx = ModelContext(f_c)
    nu = 2 * ctx.n_freq - 1
    window = np.arange(-stats._K_WINDOW, stats._K_WINDOW + 1)
    k = np.stack(np.meshgrid(window, window, indexing="ij"), axis=-1).reshape(-1, 2)
    k = k[np.any(k != 0, axis=1)].astype(float)
    lt_k = k * np.array([ctx.alpha1, 1.0])
    for rep in range(10):
        rng = RngStream(1917 + f_c, rep).generator()
        obs = synthesize(AlternativeSpec(1, (1e6,)).draw_measure(f_c, rng), f_c, 1.0, rng)
        cert = compute_certificate(obs)
        hess = np.asarray(cert.R) - ctx.lambda_tilde() * cert.lambda1
        u = voronoi_sample(hess, rng)
        l2b = lambda2_bar(cert.lambda1, cert.lambda2, hess, u, ctx)
        p_value = grid_test_unknown(cert.lambda1, l2b, sigma_hat_grid(obs, cert.z_hat), ctx).value
        kappa = np.max(2.0 * (lt_k @ u) / np.einsum("ij,ij->i", lt_k, k))
        assert p_value ** (1.0 / nu) == pytest.approx(kappa, abs=1e-4)


def test_grid_statistic_dominates_spacing():
    # lambda2_bar >= lambda2 and a decreasing survival make S-grid >= S-spacing
    for seed in range(12):
        obs = _noisy_obs(3000 + seed)
        ctx = obs.context()
        cert = compute_certificate(obs)
        hess = np.asarray(cert.R) - ctx.lambda_tilde() * cert.lambda1
        u = voronoi_sample(hess, RngStream(3000 + seed, 1))
        l2b = lambda2_bar(cert.lambda1, cert.lambda2, hess, u, ctx)
        s_grid = grid_test_known(cert.lambda1, l2b, 1.0).value
        s_spacing = spacing_statistic(cert.lambda1, cert.lambda2, 1.0).value
        assert s_grid >= s_spacing - 1e-12
