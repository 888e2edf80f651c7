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
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonPositiveDenominator, OutOfRange
from .model import TorusPoint, kernel_gamma, z_eval
from .numerics import RngStream, normal_pdf, normal_sf, normal_sf_ratio, student_pdf, student_sf


# The half-width K of the lattice window that lambda2_bar maximizes over.
_K_WINDOW = 16


@dataclass(frozen=True)
class TestReport:
    """A test statistic value with its diagnostics."""

    name: str
    value: float
    aux: Optional[dict] = None


def _checked(name, value, aux):
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise OutOfRange("statistic %s = %.17g is outside [0, 1]" % (name, value))
    return TestReport(name=name, value=float(value), aux=aux)


def _alphas_from_r(big_r):
    big_r = np.asarray(big_r, dtype=float)
    return -float(big_r[0, 0]), float(big_r[0, 1])


def _g_bar_closed(ell, a1, a2, a3, sigma):
    x = ell / sigma
    return sigma * (
        sigma * (a1 * ell + a2) * normal_pdf(x)
        + (a1 * sigma * sigma - a3 * a3) * normal_sf(x)
    )


def rice_known(cert, sigma, ctx):
    """S-Rice: the Kac-Rice survival ratio g_bar(lambda1)/g_bar(lambda2), where

        g_bar(ell) = integral over [ell, inf) of det(-Lambda-tilde u + R) phi(u/sigma) du

    and det(-Lambda-tilde u + R) = (alpha1 u + alpha2) u - alpha3^2, evaluated
    in closed form from the Gaussian moments.  The plain phi(u/sigma), with no
    1/sigma, is harmless: the normalization cancels in the ratio.
    """
    a1 = ctx.alpha1
    a2, a3 = cert.alpha2, cert.alpha3
    num = _g_bar_closed(cert.lambda1, a1, a2, a3, sigma)
    den = _g_bar_closed(cert.lambda2, a1, a2, a3, sigma)
    if not den > 0.0:
        raise NonPositiveDenominator(
            "g_bar(lambda2) = %g; the certificate does not describe a maximum" % den
        )
    aux = {
        "lambda1": cert.lambda1,
        "lambda2": cert.lambda2,
        "sigma": sigma,
        "alpha2": a2,
        "alpha3": a3,
    }
    return _checked("rice", num / den, aux)


def h_bar_closed(ell, r, m, ctx):
    """The Student analogue of g_bar,

        h_bar(ell) = integral over [ell, inf) of det(-Lambda-tilde t + r) f_{m-1}(t c) dt,

    c = sqrt((m-1)/(m-3)), with r the Hessian remainder already divided by
    sigma-hat, in closed form from the Student moment identities:

        kappa [a1 (ell f_{m-3}(ell) + Fbar_{m-3}(ell)) + a2 f_{m-3}(ell)
               - a3^2 Fbar_{m-1}(ell c)],   kappa = 1/c = sqrt((m-3)/(m-1)),

    using int_L^inf s f_nu(s) ds = sqrt(nu/(nu-2)) f_{nu-2}(L sqrt((nu-2)/nu))
    and its integration by parts for the second moment.
    """
    a1 = ctx.alpha1
    a2, a3 = _alphas_from_r(r)
    c = math.sqrt((m - 1.0) / (m - 3.0))
    kappa = 1.0 / c
    return kappa * (
        a1 * (ell * student_pdf(ell, m - 3) + student_sf(ell, m - 3))
        + a2 * student_pdf(ell, m - 3)
        - a3 * a3 * student_sf(ell * c, m - 1)
    )


def rice_unknown(cert, var_est, ctx):
    """T-Rice: the studentized Kac-Rice ratio h_bar(T1)/h_bar(T2) with
    T_i = lambda_i / sigma-hat and r = R / sigma-hat (h_bar_closed).

    Requires the conditional estimate (dof = 2N - 3 >= 5).
    """
    m = ctx.m
    if m - 3 < 5:
        raise ValueError("rice_unknown needs m - 3 = 2N - 3 >= 5 (f_c >= 2)")
    if var_est.dof != m - 3:
        raise ValueError(
            "rice_unknown needs the conditional variance estimate (dof %d), got dof %d"
            % (m - 3, var_est.dof)
        )
    s_hat = math.sqrt(var_est.value)
    t1 = cert.lambda1 / s_hat
    t2 = cert.lambda2 / s_hat
    r = np.asarray(cert.R, dtype=float) / s_hat
    num = h_bar_closed(t1, r, m, ctx)
    den = h_bar_closed(t2, r, m, ctx)
    if not den > 0.0:
        raise NonPositiveDenominator("h_bar(T2) = %g is not positive" % den)
    aux = {
        "lambda1": cert.lambda1,
        "lambda2": cert.lambda2,
        "sigma_hat": s_hat,
        "dof": var_est.dof,
        "T1": t1,
        "T2": t2,
    }
    return _checked("t_rice", num / den, aux)


def spacing_statistic(lambda1, lambda2, sigma):
    """The spacing baseline Phi-bar(lambda1/sigma) / Phi-bar(lambda2/sigma).

    With continuous knots this is NOT uniform under the null (its level at
    nominal 5% is around 11% for f_c = 7); it is kept as the comparison
    baseline that the Rice and randomized-grid corrections repair.
    """
    value = normal_sf_ratio(lambda1 / sigma, lambda2 / sigma)
    aux = {"lambda1": lambda1, "lambda2": lambda2, "sigma": sigma}
    return _checked("spacing", value, aux)


def grid_knots(obs, p):
    """First and second knots of the LARS path restricted to the p x p grid
    t_i = 2 pi i / p: the grid maximum of X and the maximum of the regressed
    field over the remaining nodes.  Ties go to the lexicographically
    smallest (i, j)."""
    if p < 2:
        raise ValueError("grid mesh needs p >= 2, got %d" % p)
    nodes = 2.0 * math.pi * np.arange(p) / p
    z_t = z_eval(obs, nodes)
    x = np.real(np.outer(z_t, np.exp(-1j * nodes)))  # (t index, theta index)
    flat = int(np.argmax(x))
    i0, j0 = divmod(flat, p)
    lambda1_n = float(x[i0, j0])
    z_hat_n = TorusPoint.make(nodes[i0], nodes[j0])

    gam = kernel_gamma(obs.f_c, nodes - nodes[i0])
    rho = np.outer(gam, np.cos(nodes - nodes[j0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        regressed = lambda1_n + (x - lambda1_n) / (1.0 - rho)
    regressed[i0, j0] = -np.inf
    lambda2_n = float(np.max(regressed))
    return lambda1_n, z_hat_n, lambda2_n


def grid_spacing_test(obs, p, sigma):
    """Spacing test on the fixed p x p grid: exactly uniform under the null
    (finite Gaussian vector, no continuum pathology)."""
    lambda1_n, _, lambda2_n = grid_knots(obs, p)
    value = normal_sf_ratio(lambda1_n / sigma, lambda2_n / sigma)
    aux = {"lambda1_n": lambda1_n, "lambda2_n": lambda2_n, "sigma": sigma, "p": p}
    return _checked("grid_spacing_%d" % p, value, aux)


def _gauss_reduce(metric):
    """Lagrange-reduced basis (u, v) of Z^2 under the quadratic form `metric`:
    q(u) <= q(v) <= q(u + w) for all lattice w, and <u, v> <= 0."""
    a = np.asarray(metric, dtype=float)

    def q(w):
        return float(w @ a @ w)

    u = np.array([1, 0])
    v = np.array([0, 1])
    if q(u) > q(v):
        u, v = v, u
    for _ in range(64):
        mu = round(float(u @ a @ v) / q(u))
        v = v - mu * u
        if q(v) < q(u):
            u, v = v, u
        else:
            break
    if float(u @ a @ v) > 0.0:
        v = -v
    return u, v


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
    metric = -np.asarray(hess, dtype=float)
    u, v = _gauss_reduce(metric)
    basis = np.column_stack([u, v]).astype(float)
    x = rng.uniform(size=2)
    x = x - basis @ np.floor(np.linalg.solve(basis, x))
    d = x - np.array([[0, 0], u, v, u + v], dtype=float)
    return d[np.argmin(np.einsum("ij,jk,ik->i", d, metric, d))]


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
    hess = np.asarray(hess, dtype=float)
    u_draw = np.asarray(u_draw, dtype=float)
    rng_1d = np.arange(-_K_WINDOW, _K_WINDOW + 1)
    kk1, kk2 = np.meshgrid(rng_1d, rng_1d, indexing="ij")
    k_mat = np.stack([kk1.ravel(), kk2.ravel()], axis=1).astype(float)
    k_mat = k_mat[np.any(k_mat != 0, axis=1)]
    num = np.einsum("ki,ij,kj->k", k_mat, hess, k_mat - 2.0 * u_draw)
    den = ctx.alpha1 * k_mat[:, 0] ** 2 + k_mat[:, 1] ** 2
    return float(max(lambda2, lambda1 + np.max(num / den)))


def grid_test_known(lambda1, lambda2_bar_value, sigma):
    """S-Grid: Phi-bar(lambda1/sigma) / Phi-bar(lambda2_bar/sigma)."""
    value = normal_sf_ratio(lambda1 / sigma, lambda2_bar_value / sigma)
    aux = {"lambda1": lambda1, "lambda2_bar": lambda2_bar_value, "sigma": sigma}
    return _checked("grid", value, aux)


def grid_test_unknown(lambda1, lambda2_bar_value, var_est, ctx):
    """T-Grid: Fbar_{m-1}(lambda1/sigma-hat) / Fbar_{m-1}(lambda2_bar/sigma-hat)
    with sigma-hat from the grid estimator (dof = m - 1 = 2N - 1)."""
    m = ctx.m
    if var_est.dof != m - 1:
        raise ValueError(
            "grid_test_unknown needs the grid variance estimate (dof %d), got dof %d"
            % (m - 1, var_est.dof)
        )
    s_hat = math.sqrt(var_est.value)
    value = student_sf(lambda1 / s_hat, m - 1) / student_sf(lambda2_bar_value / s_hat, m - 1)
    aux = {
        "lambda1": lambda1,
        "lambda2_bar": lambda2_bar_value,
        "sigma_hat": s_hat,
        "dof": var_est.dof,
    }
    return _checked("t_grid", value, aux)
