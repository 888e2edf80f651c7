"""Correctness checks on the outputs the benchmark times.

Each check is computed apart from the code it checks (its own FFT, Dirichlet
kernel and residual formulas, written from the model in PAPER.md), or tests a
property the method must have.  A failing check raises CheckFailed naming it.
"""

import math

import numpy as np

# Family-wise probability that a correct program fails the KS checks of one
# run.  The acceptance gate's band 1.63/sqrt(n) is the 1% band for one table
# with a frozen seed; every benchmark run draws fresh seeds, so at 1% per
# statistic a correct program would fail a few runs in a hundred.
KS_FAMILY_ALPHA = 1e-3

# Acceptance criterion 10's tolerance on the LARS invariants.
LARS_TOL = 1e-7


class CheckFailed(Exception):
    def __init__(self, name, detail):
        super().__init__("%s: %s" % (name, detail))
        self.name = name


def ks_band(n, n_tests):
    """Kolmogorov-limit band c/sqrt(n) with per-test level KS_FAMILY_ALPHA / n_tests."""
    alpha = KS_FAMILY_ALPHA / n_tests
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_distance(values):
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def check_pvalue_range(name, values):
    v = np.asarray(values, dtype=float)
    v = v[~np.isnan(v)]
    bad = v[(v < 0.0) | (v > 1.0)]
    if bad.size:
        raise CheckFailed("pvalue_range", "%s has %d p-values outside [0, 1], e.g. %.17g"
                          % (name, bad.size, bad[0]))


def check_uniform(columns):
    """Every column of null p-values is within the family-wise KS band of uniform."""
    for name, values in columns.items():
        v = np.asarray(values, dtype=float)
        v = v[~np.isnan(v)]
        if not v.size:
            continue  # every replication failed; `failed` reports them
        band = ks_band(v.size, len(columns))
        dist = ks_distance(v)
        if not dist <= band:
            raise CheckFailed("ks_uniform", "%s: KS distance %.4f over %d p-values exceeds %.4f"
                              % (name, dist, v.size, band))


def z_on_grid(y, f_c, m):
    """Z(2 pi j / m) for j < m, by one zero-padded inverse FFT of y."""
    n = 2 * f_c + 1
    padded = np.zeros(m, dtype=complex)
    k = np.arange(-f_c, f_c + 1)
    padded[k % m] = y
    return np.fft.ifft(padded) * (m / math.sqrt(n))


def dirichlet_gamma(f_c, t):
    """Gamma(t) = (1 + 2 sum_{k<=f_c} cos(k t)) / N."""
    k = np.arange(1, f_c + 1)
    return (1.0 + 2.0 * np.cos(np.multiply.outer(t, k)).sum(axis=-1)) / (2 * f_c + 1)


def check_lambda1(y, f_c, lambda1, m=4096):
    """max |Z| on the m-point grid is at most lambda1 and falls short of it
    by at most sup|X''| h^2 / 8, h = 2 pi / m (X is flat at its maximizer)."""
    grid_max = float(np.max(np.abs(z_on_grid(y, f_c, m))))
    k = np.arange(-f_c, f_c + 1)
    curvature = float(np.sum(k * k * np.abs(y))) / math.sqrt(2 * f_c + 1)
    slack = 1e-9 * (1.0 + lambda1)
    gap = curvature * (2.0 * math.pi / m) ** 2 / 8.0
    if not grid_max - slack <= lambda1 <= grid_max + gap + slack:
        raise CheckFailed("lambda1_fft", "lambda1 %.17g, grid max %.17g, allowed gap %.3g"
                          % (lambda1, grid_max, gap))


def check_lambda2(y, f_c, z_hat, lambda1, lambda2, m_t=512, m_theta=128, min_gap=0.05):
    """lambda2 <= lambda1, and lambda2 is at least the regressed field
    lambda1 + (X(y) - lambda1) / (1 - rho(y - z_hat)) at every node of an
    m_t x m_theta grid where 1 - rho >= min_gap."""
    if not lambda2 <= lambda1:
        raise CheckFailed("lambda2_order", "lambda2 %.17g exceeds lambda1 %.17g" % (lambda2, lambda1))
    t_hat, theta_hat = z_hat
    t = 2.0 * math.pi * np.arange(m_t) / m_t
    theta = 2.0 * math.pi * np.arange(m_theta) / m_theta
    x = np.real(np.outer(z_on_grid(y, f_c, m_t), np.exp(-1j * theta)))
    rho = np.outer(dirichlet_gamma(f_c, t - t_hat), np.cos(theta - theta_hat))
    away = 1.0 - rho >= min_gap
    field = lambda1 + (x[away] - lambda1) / (1.0 - rho[away])
    best = float(np.max(field))
    if not lambda2 >= best - 1e-7 * max(1.0, lambda1):
        raise CheckFailed("lambda2_grid", "lambda2 %.17g is below the grid maximum %.17g "
                          "of the regressed field" % (lambda2, best))


def check_grid_lambda1(p, lambda1_n, lambda1):
    if not lambda1_n <= lambda1 + 1e-9 * (1.0 + lambda1):
        raise CheckFailed("grid_lambda1", "%dx%d grid lambda1_n %.17g exceeds lambda1 %.17g"
                          % (p, p, lambda1_n, lambda1))


def lars_residual_abs(y, f_c, sigma, knot, t):
    """|Z(t) - 2 sigma^2 sum_i a_i Gamma(t - t_i)| for the measure of one knot."""
    k = np.arange(-f_c, f_c + 1)
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * np.multiply.outer(t, k)) @ y / math.sqrt(2 * f_c + 1)
    for loc, weight in zip(knot.active, knot.weights):
        z = z - 2.0 * sigma * sigma * weight * dirichlet_gamma(f_c, t - loc)
    return np.abs(z)


def active_gaps(y, f_c, sigma, path):
    """max | |residual| - lambda_k | over the active points of each knot."""
    return [float(np.max(np.abs(lars_residual_abs(y, f_c, sigma, knot, np.array(knot.active))
                                - knot.lam)))
            for knot in path.knots]


def check_lars_path(y, f_c, sigma, path, lambda1, lambda2, n_dense=4096, tol=LARS_TOL):
    """The invariants of the continuation path (acceptance criterion 10)."""
    lams = [knot.lam for knot in path.knots]
    if not all(a > b for a, b in zip(lams, lams[1:])):
        raise CheckFailed("lars_decreasing", "knot lambdas %r do not strictly decrease" % (lams,))
    dense = 2.0 * math.pi * np.arange(n_dense) / n_dense
    for k, (knot, worst) in enumerate(zip(path.knots, active_gaps(y, f_c, sigma, path)), start=1):
        if not worst < tol:
            raise CheckFailed("lars_active_equality", "knot %d: |residual| is off lambda_k "
                              "by %.3g at an active point" % (k, worst))
        over = float(np.max(lars_residual_abs(y, f_c, sigma, knot, dense))) - knot.lam
        if not over < tol:
            raise CheckFailed("lars_global_bound", "knot %d: dense-grid |residual| exceeds "
                              "lambda_k by %.3g" % (k, over))
    if abs(lams[0] - lambda1) >= 1e-8 or (len(lams) > 1 and abs(lams[1] - lambda2) >= 1e-8):
        raise CheckFailed("lars_first_knots", "path knots %r do not start with the certificate "
                          "knots (%.17g, %.17g)" % (lams[:2], lambda1, lambda2))
