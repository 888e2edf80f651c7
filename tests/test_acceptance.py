"""Acceptance gate: eleven numbered criteria, one test (and one summary
line) each.

Monte-Carlo tables are 2000 replications with frozen seeds; tolerances are
the 99% KS band 1.63/sqrt(2000) = 0.0364 and 3-SE binomial bands.  The
tables are shared through the session cache in conftest, so the gate costs
a few minutes total.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES
from oracles import (
    QuadratureSpec,
    correlation,
    g_bar,
    gamma_ratio_unknown_variance,
    h_bar,
    integrate_upper,
    normal_pdf,
    normal_sf,
)
from scipy import stats as sps

from srknots.knots import compute_certificate, first_knot, second_knot
from srknots.lars import LarsOptions, lars_residual, lars_run
from srknots.mc import AlternativeSpec, ExperimentConfig, empirical_level, ks_uniform
from srknots.model import (
    AtomicMeasure,
    ModelContext,
    _aligned_coeffs,
    kernel_gamma,
    synthesize,
    wrap_delta,
)
from srknots.numerics import (
    RngStream,
    student_pdf,
    student_sf,
)
from srknots.stats import rice_known, rice_unknown
from srknots.variance import sigma_hat_cond

KS_BAND = 0.0364  # 99% band at 2000 replications
REPS = 2000

NULL_3 = ExperimentConfig(
    f_c=3, reps=REPS, seed=9002,
    statistics=("rice", "t_rice", "spacing", "grid", "t_grid"),
)
NULL_5 = ExperimentConfig(f_c=5, reps=REPS, seed=2102, statistics=("rice",))
NULL_7 = ExperimentConfig(
    f_c=7, reps=REPS, seed=2113, statistics=("rice", "spacing", "grid", "t_grid"),
)

_GRIDS = tuple("grid_spacing_%d" % p for p in (3, 10, 32, 50))


def _power_config(f_c, seed, extra=()):
    weight = math.sqrt(2 * f_c + 1)
    return ExperimentConfig(
        f_c=f_c, reps=REPS, seed=seed,
        statistics=("rice",) + extra + _GRIDS,
        alternative=AlternativeSpec(n_spikes=1, weights=(weight,)),
    )


POWER_3 = _power_config(3, 2104, extra=("t_rice",))
POWER_5 = _power_config(5, 2105)
POWER_7 = _power_config(7, 2106)


def _report(number, ok, detail):
    ACCEPTANCE_LINES.append(
        "criterion %2d %s  %s" % (number, "PASS" if ok else "FAIL", detail)
    )
    assert ok, detail


def test_criterion_01_rice_null_exact(mc_table):
    ks = {}
    for config in (NULL_3, NULL_5, NULL_7):
        table = mc_table(config)
        assert table.n_excluded == 0
        ks[config.f_c] = ks_uniform(table.values["rice"])
    ok = all(v < KS_BAND for v in ks.values())
    _report(1, ok, "rice null KS fc3=%.4f fc5=%.4f fc7=%.4f (band %.4f)"
            % (ks[3], ks[5], ks[7], KS_BAND))


def test_criterion_02_spacing_overshoot(mc_table):
    level = empirical_level(mc_table(NULL_7).values["spacing"], 0.05)
    ok = 0.093 <= level <= 0.133 and level > 0.07
    _report(2, ok, "spacing level at 0.05, fc7: %.4f (target [0.093, 0.133])" % level)


def test_criterion_03_grid_tests_null_exact(mc_table):
    ks = {}
    for config in (NULL_3, NULL_7):
        table = mc_table(config)
        ks[(config.f_c, "grid")] = ks_uniform(table.values["grid"])
        ks[(config.f_c, "t_grid")] = ks_uniform(table.values["t_grid"])
    ok = all(v < KS_BAND for v in ks.values())
    _report(3, ok, "grid/t_grid null KS fc3=%.4f/%.4f fc7=%.4f/%.4f (band %.4f)"
            % (ks[(3, "grid")], ks[(3, "t_grid")], ks[(7, "grid")],
               ks[(7, "t_grid")], KS_BAND))


def test_criterion_04_t_rice_null_exact(mc_table):
    ks = ks_uniform(mc_table(NULL_3).values["t_rice"])
    _report(4, ks < KS_BAND, "t_rice null KS fc3=%.4f (band %.4f)" % (ks, KS_BAND))


def test_criterion_05_variance_laws(variance_null_sample):
    _, s2_grid, s2_cond = variance_null_sample
    ks_grid = sps.kstest(13.0 * s2_grid, sps.chi2(13).cdf).statistic
    ks_cond = sps.kstest(11.0 * s2_cond, sps.chi2(11).cdf).statistic
    ok = ks_grid < KS_BAND and ks_cond < KS_BAND
    _report(5, ok, "13 s2_z vs chi2(13) KS=%.4f, 11 s2_cond vs chi2(11) KS=%.4f"
            % (ks_grid, ks_cond))


def test_criterion_06_closed_vs_quadrature():
    worst_s, worst_t = 0.0, 0.0
    for i in range(100):
        obs = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(2600, i))
        ctx = obs.context()
        cert = compute_certificate(obs)
        s = rice_known(cert, 1.0, ctx)
        s_quad = g_bar(cert.lambda1, cert.R, 1.0, ctx) / g_bar(cert.lambda2, cert.R, 1.0, ctx)
        worst_s = max(worst_s, abs(s.value - s_quad))
        t = rice_unknown(cert, sigma_hat_cond(obs, cert.z_hat), ctx)
        r = cert.R / t.aux["sigma_hat"]
        t_quad = h_bar(t.aux["T1"], r, ctx.m, ctx) / h_bar(t.aux["T2"], r, ctx.m, ctx)
        worst_t = max(worst_t, abs(t.value - t_quad))
    ok = worst_s < 1e-8 and worst_t < 1e-7
    _report(6, ok, "closed vs quadrature, 100 certs: S %.2e (<1e-8), T %.2e (<1e-7)"
            % (worst_s, worst_t))


def _brute_lambda1(obs, n=1_000_000):
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    e = np.exp(1j * t)
    sqrt_n = math.sqrt(obs.n_freq)
    z = np.full(n, obs.y[obs.f_c] / sqrt_n, dtype=complex)
    ep = np.ones(n, dtype=complex)
    em = np.ones(n, dtype=complex)
    for k in range(1, obs.f_c + 1):
        ep *= e
        em *= np.conj(e)
        z += (obs.y[obs.f_c + k] * ep + obs.y[obs.f_c - k] * em) / sqrt_n
    return float(np.max(np.abs(z)))


def _brute_lambda2(obs, cert, p=2000, chunk=50):
    """lambda1 + max g on the p x p grid of the torus, outside the disc of
    radius 1e-3 around z_hat, with g in closed form: at y = z_hat + (dt, dth),
    g = (Re(e^{-i dth} a(dt)) - lambda1) / (1 - Gamma(dt) cos dth), where
    a(dt) = sum_k w_k e^{ik dt} / sqrt N over the aligned coefficients w."""
    w = _aligned_coeffs(obs, cert.z_hat)
    k = np.arange(-obs.f_c, obs.f_c + 1)
    nodes = np.linspace(0.0, 2.0 * math.pi, p, endpoint=False)
    dt_all = wrap_delta(nodes - cert.z_hat.t)
    dth_all = wrap_delta(nodes - cert.z_hat.theta)
    cos_th, sin_th = np.cos(dth_all), np.sin(dth_all)
    best = -np.inf
    for lo in range(0, p, chunk):
        rows = dt_all[lo:lo + chunk, None]
        a = np.exp(1j * rows * k) @ w[:, None] / math.sqrt(obs.n_freq)
        num = a.real * cos_th + a.imag * sin_th - cert.lambda1
        den = 1.0 - kernel_gamma(obs.f_c, rows) * cos_th
        keep = np.hypot(rows, dth_all) >= 1e-3
        g = np.divide(num, den, out=np.full(keep.shape, -np.inf), where=keep)
        best = max(best, float(np.max(g)))
    return cert.lambda1 + best


def test_criterion_07_knot_oracles():
    worst_1, worst_2 = 0.0, 0.0
    for i in range(20):
        obs = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(2700 + i, 0))
        cert = compute_certificate(obs)
        worst_1 = max(worst_1, abs(cert.lambda1 - _brute_lambda1(obs)))
        worst_2 = max(worst_2, abs(cert.lambda2 - _brute_lambda2(obs, cert)))
    ok = worst_1 < 1e-8 and worst_2 < 1e-5
    _report(7, ok, "20 instances: |lambda1 - 1e6-grid| %.2e (<1e-8), "
            "|lambda2 - 2000^2-grid| %.2e (<1e-5)" % (worst_1, worst_2))


def test_criterion_08_power_ordering(mc_table):
    details = []
    ok = True
    for config in (POWER_3, POWER_5, POWER_7):
        table = mc_table(config)
        assert table.n_excluded == 0
        power = {
            name: empirical_level(table.values[name], 0.05)
            for name in ("rice",) + _GRIDS
        }
        ok &= power["rice"] >= power["grid_spacing_50"] - 0.03
        seq = [power[g] for g in _GRIDS]
        ok &= all(b >= a - 0.03 for a, b in zip(seq, seq[1:]))
        details.append("fc%d rice=%.3f grids=%.3f/%.3f/%.3f/%.3f"
                       % ((config.f_c, power["rice"]) + tuple(seq)))
    _report(8, ok, "power at 0.05, sqrt(N) spike: " + "  ".join(details))


def test_criterion_09_studentization_cost(mc_table):
    table = mc_table(POWER_3)
    p_rice = empirical_level(table.values["rice"], 0.05)
    p_t = empirical_level(table.values["t_rice"], 0.05)
    ok = p_t <= p_rice + 0.03
    _report(9, ok, "power fc3 sqrt(N) spike: t_rice %.3f <= rice %.3f + 0.03"
            % (p_t, p_rice))


def test_criterion_10_lars_invariants():
    t_dense = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    worst_eq, worst_bound, worst_knots = 0.0, 0.0, 0.0
    for i in range(20):
        obs = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(2800 + i, 0))
        path = lars_run(obs, 1.0, LarsOptions(k_max=4))
        lams = [knot.lam for knot in path.knots]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        for k, knot in enumerate(path.knots, start=1):
            res = lars_residual(obs, path, k, np.array(knot.active))
            worst_eq = max(worst_eq, float(np.max(np.abs(np.abs(res) - knot.lam))))
            dense = np.abs(lars_residual(obs, path, k, t_dense))
            worst_bound = max(worst_bound, float(np.max(dense) - knot.lam))
        z_hat, lambda1 = first_knot(obs)
        _, lambda2 = second_knot(obs, z_hat, lambda1)
        worst_knots = max(worst_knots, abs(lams[0] - lambda1), abs(lams[1] - lambda2))
    clean = synthesize(AtomicMeasure.from_atoms([(1.2, 2.5)]), 3, 0.0, RngStream(0))
    clean_path = lars_run(clean, 1.0)
    z1, l1 = first_knot(clean)
    _, l2 = second_knot(clean, z1, l1)
    ok = (worst_eq < 1e-7 and worst_bound < 1e-7 and worst_knots < 1e-8
          and len(clean_path.knots) == 1 and l2 < 1e-9)
    _report(10, ok, "20 paths: active equality %.1e, global bound %.1e, "
            "knot match %.1e; noiseless lambda2 %.1e" % (worst_eq, worst_bound,
                                                         worst_knots, l2))


def test_criterion_11_analytic_identities():
    t0 = time.perf_counter()
    worst_gamma = max(abs(gamma_ratio_unknown_variance(m) - 1.0) for m in (8, 14, 30, 62))

    worst_gauss = 0.0
    for big_l in (0.0, 0.5, 1.0, 2.0, 4.0):
        i0 = integrate_upper(normal_pdf, big_l, 1.0)
        i1 = integrate_upper(lambda u: u * normal_pdf(u), big_l, 1.0)
        i2 = integrate_upper(lambda u: u * u * normal_pdf(u), big_l, 1.0)
        worst_gauss = max(
            worst_gauss,
            abs(i0 - normal_sf(big_l)),
            abs(i1 - normal_pdf(big_l)),
            abs(i2 - (big_l * normal_pdf(big_l) + normal_sf(big_l))),
        )

    spec = QuadratureSpec(node_count=64, tail_cut=600.0)
    worst_student = 0.0
    for m in (8, 14, 30):
        c = math.sqrt((m - 1.0) / (m - 3.0))
        kappa = 1.0 / c
        for big_l in (0.0, 0.5, 2.0):
            i0 = integrate_upper(lambda t: student_pdf(t * c, m - 1), big_l, 1.0, spec)
            i1 = integrate_upper(lambda t: t * student_pdf(t * c, m - 1), big_l, 1.0, spec)
            i2 = integrate_upper(lambda t: t * t * student_pdf(t * c, m - 1), big_l, 1.0, spec)
            worst_student = max(
                worst_student,
                abs(i0 - kappa * student_sf(big_l * c, m - 1)),
                abs(i1 - kappa * student_pdf(big_l, m - 3)),
                abs(i2 - kappa * (big_l * student_pdf(big_l, m - 3)
                                  + student_sf(big_l, m - 3))),
            )

    worst_den = 0.0
    rng = np.random.default_rng(3)
    for f_c in (3, 7):
        ctx = ModelContext(f_c)
        k = np.arange(-f_c, f_c + 1)
        for _ in range(50):
            r = rng.uniform(1e-6, 3.0)
            a = rng.uniform(0.0, 2.0 * math.pi)
            ck = math.cos(a) * k - math.sin(a)
            den = float((ck**2 * np.sinc(r * ck / (2.0 * math.pi)) ** 2).sum()) / (2.0 * ctx.n_freq)
            rho = correlation(ctx, np.array([r * math.cos(a), r * math.sin(a)]))
            worst_den = max(worst_den, abs(r * r * den - (1.0 - rho)))

    elapsed = time.perf_counter() - t0
    ok = (worst_gamma < 1e-12 and worst_den < 1e-12 and worst_gauss < 1e-10
          and worst_student < 1e-10 and elapsed < 1.0)
    _report(11, ok, "gamma_m %.1e (<1e-12), Den r^2 vs 1-rho %.1e (<1e-12), "
            "tail identities %.1e/%.1e (<1e-10), %.3fs (<1s)"
            % (worst_gamma, worst_den, worst_gauss, worst_student, elapsed))
