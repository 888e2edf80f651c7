"""Exact test statistics for the mean of the super-resolution process.

Five families, all valid p-values (uniform under the null) except the plain
spacing statistic, which is the documented non-conservative baseline:

  rice / t_rice   Kac-Rice survival ratios at the continuous knots, known /
                  studentized noise level;
  spacing         Gaussian survival ratio at the continuous knots (not
                  uniform: its level at 5% is about 11% for f_c = 7);
  grid / t_grid   survival ratios at (lambda1, lambda2-bar), where the
                  randomized lambda2-bar restores exact uniformity;
  grid_spacing_n  the spacing test on a fixed p x p grid, exactly uniform.

Each statistic has one stacked route (_rice_known, _rice_unknown, and
_tail_ratio, which spacing, grid, grid_spacing_n and t_grid share, with
Gaussian tails or Student ones): it takes one array entry per replication
and returns a TestReport whose value and aux entries are arrays, with, per
replication, the SrknotsError that stopped it (None where none did); a nan
entry reads nan with an error, and no warning.  The public functions are
that route on a stack of one; they return a plain TestReport or raise the
error.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonPositiveDenominator, OutOfRange, row_errors
from .model import TorusPoint, kernel_gamma, z_eval
from .numerics import RngStream, mills_ratio, sf_ratio, student_pdf, student_sf


# The half-width K of the lattice window that lambda2_bar maximizes over.
_K_WINDOW = 16


@dataclass(frozen=True)
class TestReport:
    """A test statistic value with its diagnostics."""

    name: str
    value: float
    aux: Optional[dict] = None


def _checked(name, value, aux, errors=None):
    """(TestReport, errors) of a statistic over a stack: a value outside
    [0, 1] (up to 1e-9) is an OutOfRange error, unless an earlier error
    already stopped that entry."""
    value = np.asarray(value, dtype=float)
    errors = row_errors(~((value >= -1e-9) & (value <= 1.0 + 1e-9)), lambda i: OutOfRange(
        "statistic %s = %.17g is outside [0, 1]" % (name, value[i])), errors)
    return TestReport(name=name, value=value, aux=aux), errors


def _one(stacked):
    """The plain TestReport of a stack of one, or its error raised."""
    report, errors = stacked
    if errors[0] is not None:
        raise errors[0]
    aux = {key: float(val[0]) if np.ndim(val) else val for key, val in report.aux.items()}
    return TestReport(name=report.name, value=float(report.value[0]), aux=aux)


def _alphas_from_r(big_r):
    big_r = np.asarray(big_r, dtype=float)
    return -big_r[..., 0, 0], big_r[..., 0, 1]


def _rice_b(ell, a1, a2, a3, sigma):
    """B(x) = sigma (a1 ell + a2) + (a1 sigma^2 - a3^2) M(x) at x = ell / sigma,
    with M the Mills ratio: g_bar(ell) = sigma phi(x) B(x)."""
    return sigma * (a1 * ell + a2) + (a1 * sigma * sigma - a3 * a3) * mills_ratio(ell / sigma)


def _rice_known(lambda1, lambda2, alpha2, alpha3, sigma, alpha1):
    """The stacked route of rice_known."""
    x1, x2 = lambda1 / sigma, lambda2 / sigma
    num, den = _rice_b(np.stack([lambda1, lambda2]), alpha1, alpha2, alpha3, sigma)
    errors = row_errors(~(den > 0.0), lambda i: NonPositiveDenominator(
        "B(lambda2) = %g; the certificate does not describe a maximum" % den[i]))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.exp(-0.5 * (x1 - x2) * (x1 + x2)) * num / den
    aux = {"lambda1": lambda1, "lambda2": lambda2, "sigma": sigma, "alpha2": alpha2,
           "alpha3": alpha3}
    return _checked("rice", value, aux, errors)


def rice_known(cert, sigma, ctx):
    """S-Rice: the Kac-Rice survival ratio g_bar(lambda1)/g_bar(lambda2), where

        g_bar(ell) = integral over [ell, inf) of det(-Lambda-tilde u + R) phi(u/sigma) du

    and det(-Lambda-tilde u + R) = (alpha1 u + alpha2) u - alpha3^2.  From the
    Gaussian moments, g_bar(ell) = sigma phi(x) B(x) with x = ell / sigma and
    B(x) = sigma (alpha1 ell + alpha2) + (alpha1 sigma^2 - alpha3^2) M(x), M
    the Mills ratio (numerics.mills_ratio).  So the ratio is

        exp(-(x1 - x2)(x1 + x2) / 2) B(x1) / B(x2),

    which stays finite where both phi underflow (knots past about 38 sigma),
    and NonPositiveDenominator is raised only where B(x2) <= 0.  The plain
    phi(u/sigma), with no 1/sigma, is harmless: the normalization cancels in
    the ratio.
    """
    return _one(_rice_known(np.atleast_1d(cert.lambda1), np.atleast_1d(cert.lambda2),
                            np.atleast_1d(cert.alpha2), np.atleast_1d(cert.alpha3), sigma,
                            ctx.alpha1))


def h_bar_closed(ell, r, m, ctx):
    """The Student analogue of g_bar,

        h_bar(ell) = integral over [ell, inf) of det(-Lambda-tilde t + r) f_{m-1}(t c) dt,

    c = sqrt((m-1)/(m-3)), with r the Hessian remainder already divided by
    sigma-hat, in closed form from the Student moment identities:

        kappa [a1 (ell f_{m-3}(ell) + Fbar_{m-3}(ell)) + a2 f_{m-3}(ell)
               - a3^2 Fbar_{m-1}(ell c)],   kappa = 1/c = sqrt((m-3)/(m-1)),

    using int_L^inf s f_nu(s) ds = sqrt(nu/(nu-2)) f_{nu-2}(L sqrt((nu-2)/nu))
    and its integration by parts for the second moment.  ell may be an
    array, and r a stack of remainders that broadcasts along its last axis;
    both Student tails take one student_sf call.
    """
    a1 = ctx.alpha1
    a2, a3 = _alphas_from_r(r)
    c = math.sqrt((m - 1.0) / (m - 3.0))
    kappa = 1.0 / c
    pdf = student_pdf(ell, m - 3)
    dofs = np.reshape([m - 3, m - 1], (2,) + (1,) * np.ndim(ell))
    sf_ell, sf_ell_c = student_sf(np.stack([ell, np.multiply(ell, c)]), dofs)
    return kappa * (a1 * (ell * pdf + sf_ell) + a2 * pdf - a3 * a3 * sf_ell_c)


def _check_dof(name, var_dof, dof, estimate):
    if var_dof != dof:
        raise ValueError("%s needs the %s variance estimate (dof %d), got dof %d"
                         % (name, estimate, dof, var_dof))


def _rice_unknown(lambda1, lambda2, big_r, variance, var_dof, ctx):
    """The stacked route of rice_unknown: big_r is (n, 2, 2) and variance
    holds the conditional estimates, of dof var_dof."""
    m = ctx.m
    if m - 3 < 5:
        raise ValueError("rice_unknown needs m - 3 = 2N - 3 >= 5 (f_c >= 2)")
    _check_dof("rice_unknown", var_dof, m - 3, "conditional")
    s_hat = np.sqrt(variance)
    t1, t2 = lambda1 / s_hat, lambda2 / s_hat
    num, den = h_bar_closed(np.stack([t1, t2]), big_r / s_hat[:, None, None], m, ctx)
    errors = row_errors(~(den > 0.0), lambda i: NonPositiveDenominator(
        "h_bar(T2) = %g is not positive" % den[i]))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = num / den
    aux = {"lambda1": lambda1, "lambda2": lambda2, "sigma_hat": s_hat, "dof": var_dof,
           "T1": t1, "T2": t2}
    return _checked("t_rice", value, aux, errors)


def rice_unknown(cert, var_est, ctx):
    """T-Rice: the studentized Kac-Rice ratio h_bar(T1)/h_bar(T2) with
    T_i = lambda_i / sigma-hat and r = R / sigma-hat (h_bar_closed).

    Requires the conditional estimate (dof = 2N - 3 >= 5).
    """
    return _one(_rice_unknown(np.atleast_1d(cert.lambda1), np.atleast_1d(cert.lambda2),
                              np.asarray(cert.R, dtype=float)[None],
                              np.atleast_1d(var_est.value), var_est.dof, ctx))


def _tail_ratio(name, knots, scale, dof=None, **extra):
    """The stacked route of spacing_statistic, grid_test_known,
    grid_spacing_test and grid_test_unknown: Fbar(l1 / scale) /
    Fbar(l2 / scale) in log space (numerics.sf_ratio), with Fbar the
    Gaussian tail, or the Student tail of dof degrees of freedom when dof is
    given, for knots = {key1: l1, key2: l2}, the first knot then the second
    under their aux keys.  aux holds them, the scale as sigma (Gaussian) or
    as sigma_hat with its dof (Student), and extra."""
    l1, l2 = knots.values()
    value = sf_ratio(l1 / scale, l2 / scale, dof)
    noise = {"sigma": scale} if dof is None else {"sigma_hat": scale, "dof": dof}
    return _checked(name, value, dict(knots, **noise, **extra))


def spacing_statistic(lambda1, lambda2, sigma):
    """The spacing baseline Phi-bar(lambda1/sigma) / Phi-bar(lambda2/sigma).

    With continuous knots this is NOT uniform under the null (its level at
    nominal 5% is around 11% for f_c = 7); it is kept as the comparison
    baseline that the Rice and randomized-grid corrections repair.
    """
    return _one(_tail_ratio("spacing", {"lambda1": np.atleast_1d(lambda1),
                                        "lambda2": np.atleast_1d(lambda2)}, sigma))


def _grid_knots(obs, p):
    """(lambda1_n, (t, theta) of the grid maximum, lambda2_n) of each row of
    the stack obs, one array entry per row; see grid_knots.  X on the grid
    is one z_eval of the stack at the p nodes."""
    if p < 2:
        raise ValueError("grid mesh needs p >= 2, got %d" % p)
    nodes = 2.0 * math.pi * np.arange(p) / p
    z_t = z_eval(obs, nodes[:, None]).T  # (row, t index)
    # X = Re(e^{-i theta} Z(t)), as (row, t index, theta index)
    x = z_t.real[:, :, None] * np.cos(nodes) + z_t.imag[:, :, None] * np.sin(nodes)
    rows = np.arange(x.shape[0])
    i0, j0 = np.divmod(np.argmax(x.reshape(rows.size, -1), axis=1), p)
    lambda1_n = x[rows, i0, j0]

    gam = kernel_gamma(obs.f_c, nodes - nodes[i0][:, None])
    rho = gam[:, :, None] * np.cos(nodes - nodes[j0][:, None])[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = (x - lambda1_n[:, None, None]) / (1.0 - rho)
    excess[rows, i0, j0] = -np.inf
    # rounding is monotone, so adding lambda1_n after the max changes nothing
    return lambda1_n, (nodes[i0], nodes[j0]), lambda1_n + np.max(excess.reshape(rows.size, -1), axis=1)


def grid_knots(obs, p):
    """First and second knots of the LARS path restricted to the p x p grid
    t_i = 2 pi i / p: the grid maximum of X and the maximum of the regressed
    field over the remaining nodes.  Ties go to the lexicographically
    smallest (i, j)."""
    lambda1_n, (t, theta), lambda2_n = _grid_knots(obs, p)
    return float(lambda1_n[0]), TorusPoint.make(t[0], theta[0]), float(lambda2_n[0])


def _grid_spacing(obs, p, sigma):
    """grid_spacing_test on a stack: its grid knots, then the shared ratio route."""
    lambda1_n, _, lambda2_n = _grid_knots(obs, p)
    return _tail_ratio("grid_spacing_%d" % p, {"lambda1_n": lambda1_n, "lambda2_n": lambda2_n},
                       sigma, p=p)


def grid_spacing_test(obs, p, sigma):
    """Spacing test on the fixed p x p grid: exactly uniform under the null
    (finite Gaussian vector, no continuum pathology)."""
    return _one(_grid_spacing(obs, p, sigma))


def _quadratic(m, d, e):
    """d' m e for 2-vectors along the last axis of d and e, and 2 x 2
    matrices along the last two of m; the rest broadcasts."""
    return (d[..., 0] * (m[..., 0, 0] * e[..., 0] + m[..., 0, 1] * e[..., 1])
            + d[..., 1] * (m[..., 1, 0] * e[..., 0] + m[..., 1, 1] * e[..., 1]))


def _gauss_reduce(stack):
    """Lagrange-reduced basis (u, v) of Z^2 under each quadratic form of the
    (n, 2, 2) stack, as (n, 2) arrays u and v: q(u) <= q(v) <= q(u + w) for
    all lattice w, and <u, v> <= 0."""
    u = np.tile([1.0, 0.0], (len(stack), 1))
    v = np.tile([0.0, 1.0], (len(stack), 1))
    swap = (_quadratic(stack, u, u) > _quadratic(stack, v, v))[:, None]
    u, v = np.where(swap, v, u), np.where(swap, u, v)
    active = np.ones(len(stack), dtype=bool)
    for _ in range(64):
        mu = np.rint(_quadratic(stack, u, v) / _quadratic(stack, u, u))
        v = np.where(active[:, None], v - mu[:, None] * u, v)
        active &= _quadratic(stack, v, v) < _quadratic(stack, u, u)
        u, v = np.where(active[:, None], v, u), np.where(active[:, None], u, v)
        if not active.any():
            break
    return u, np.where((_quadratic(stack, u, v) > 0.0)[:, None], -v, v)


def _voronoi(hess, x):
    """The stacked route of voronoi_sample, with x the (n, 2) uniform draws."""
    metric = -np.asarray(hess, dtype=float)
    u, v = _gauss_reduce(metric)
    det = u[:, 0] * v[:, 1] - v[:, 0] * u[:, 1]
    # floor of the coordinates of x in the basis (u, v)
    c_u = np.floor((v[:, 1] * x[:, 0] - v[:, 0] * x[:, 1]) / det)
    c_v = np.floor((u[:, 0] * x[:, 1] - u[:, 1] * x[:, 0]) / det)
    x = x - (c_u[:, None] * u + c_v[:, None] * v)
    d = x[:, None, :] - np.stack([np.zeros_like(u), u, v, u + v], axis=1)
    return d[np.arange(len(d)), np.argmin(_quadratic(metric[:, None], d, d), axis=1)]


def voronoi_sample(hess, stream):
    """A uniform draw from the Voronoi cell V0 of Z^2 under the metric -hess,
    by one reduction modulo the lattice.

    A Lagrange-reduced basis (u, v) has <u, v> <= 0 and |2 <u, v>| <= q(u)
    <= q(v), so (u, v, -u - v) is an obtuse superbase: the triangles
    (0, u, u + v) and (0, v, u + v) that split the basis cell have no obtuse
    angle, and the nearest lattice point to any point of the cell is one of
    its corners 0, u, v, u + v (Conway & Sloane, Low-dimensional lattices VI:
    Voronoi reduction, 1992).  One uniform x on [0, 1)^2 is moved into the
    cell by x - B floor(B^-1 x), B = [u v], and x less its nearest corner is
    returned.  x is uniform modulo Z^2 and V0 is a fundamental domain of Z^2,
    so the draw is exactly uniform on V0; it takes one uniform pair from the
    stream.
    """
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    x = rng.uniform(size=2)
    return _voronoi(np.asarray(hess, dtype=float)[None], x[None])[0]


def _lambda2_bar(lambda1, lambda2, hess, u_draw, alpha1):
    """The stacked route of lambda2_bar: hess (n, 2, 2), u_draw (n, 2)."""
    window = np.arange(-_K_WINDOW, _K_WINDOW + 1)
    kk1, kk2 = np.meshgrid(window, window, indexing="ij")
    k_mat = np.stack([kk1.ravel(), kk2.ravel()], axis=1).astype(float)
    k_mat = k_mat[np.any(k_mat != 0, axis=1)]
    num = _quadratic(np.asarray(hess, dtype=float)[:, None], k_mat, k_mat - 2.0 * u_draw[:, None, :])
    den = alpha1 * k_mat[:, 0] ** 2 + k_mat[:, 1] ** 2
    return np.maximum(lambda2, lambda1 + np.max(num / den, axis=1))


def lambda2_bar(lambda1, lambda2, hess, u_draw, ctx):
    """The randomized second knot:

        max(lambda2, lambda1 + max_{k in [-K,K]^2 \\ 0} k' hess (k - 2U) / (k' Lt k)).

    Each term tends to the strictly negative limit k' hess k / k' Lt k as |k|
    grows, but the k that attains the sup grows with f_c.  The window
    K = _K_WINDOW = 16 matches a window of 128 on null draws up to f_c = 30,
    and misses the argmax on a few percent of null draws at f_c >= 40, where
    |k| reaches 17 to 63 and the sup, and so the grid p-values, come out
    too small.  Because U lies in the Voronoi cell, 2 k' (-hess) U <=
    k'(-hess)k for every k, hence lambda2_bar < lambda1 almost surely.
    """
    return float(_lambda2_bar(np.atleast_1d(lambda1), np.atleast_1d(lambda2),
                              np.asarray(hess, dtype=float)[None],
                              np.asarray(u_draw, dtype=float)[None], ctx.alpha1)[0])


def grid_test_known(lambda1, lambda2_bar_value, sigma):
    """S-Grid: Phi-bar(lambda1/sigma) / Phi-bar(lambda2_bar/sigma)."""
    return _one(_tail_ratio("grid", {"lambda1": np.atleast_1d(lambda1),
                                     "lambda2_bar": np.atleast_1d(lambda2_bar_value)}, sigma))


def grid_test_unknown(lambda1, lambda2_bar_value, var_est, ctx):
    """T-Grid: Fbar_{m-1}(lambda1/sigma-hat) / Fbar_{m-1}(lambda2_bar/sigma-hat)
    with sigma-hat from the grid estimator (dof = m - 1 = 2N - 1)."""
    _check_dof("grid_test_unknown", var_est.dof, ctx.m - 1, "grid")
    return _one(_tail_ratio("t_grid", {"lambda1": np.atleast_1d(lambda1),
                                       "lambda2_bar": np.atleast_1d(lambda2_bar_value)},
                            np.sqrt(np.atleast_1d(var_est.value)), var_est.dof))
