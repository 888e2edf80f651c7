"""Reference routes that the tests compare the package against.

The package computes each quantity one way.  The second ways kept here are
independent of it: numerical quadrature of the Kac-Rice integrals g_bar and
h_bar, the gamma-function constant of the unknown-variance density, the
Student tail of odd dof by a series in log space, the field X with its
gradient and Hessian from the derivatives of Z, trigonometric sums on a
uniform grid as one dense matrix product, the regressed field and the ratio
g at arbitrary points of the torus, the Karhunen-Loeve variance
estimators through the design correlation and its pseudo-inverse, the
Dirichlet kernel in ratio form, the derivatives of Gamma term by term, the
correlation rho with its derivatives, the Newton system of a LARS leg from
those derivatives, the residual of a LARS knot as a sum of kernels, the
Voronoi draw by rejection from a box around the cell, two spike locations at
a least separation by rejection of uniform pairs, and bounded Brent search
for a local maximum on an interval, which sees values only.

g_ratio evaluates g(y) = (X(y) - lambda1) / (1 - rho(y - z_hat)).  Near z_hat
both numerator and denominator vanish quadratically, so there the ratio is
evaluated through the integral remainder of Taylor's theorem:

    Num(y) = integral_0^1 (1-h) u' X''(z_hat + h d) u dh        (Gauss-Legendre)
    Den(y) = (1/2N) sum_k c_k^2 sinc^2(r c_k / 2),   c_k = k cos(a) - sin(a)

with d = y - z_hat = r (cos a, sin a).  The exact identity Den * r^2 =
1 - rho(d) makes the two branches agree for every r, so the switch at
r = RADIUS_SWITCH is seamless.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize
from scipy.special import gammaln

from srknots.errors import SrknotsError
from srknots.model import (
    TWO_PI,
    ModelContext,
    TorusPoint,
    circular_distance,
    kernel_gamma,
    wrap_delta,
    z_eval,
)
from srknots.numerics import student_pdf
from srknots.stats import _gauss_reduce, _rice_b

RADIUS_SWITCH = 0.5


class NearSingular(SrknotsError):
    """A regression denominator 1 - rho is below 1e-14; use g_ratio instead."""


# ---------------------------------------------------------------- quadrature


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the semi-infinite integrator.

    node_count: Gauss-Legendre nodes per panel.
    tail_cut:   multiple of `scale` beyond which the integrand is treated as zero.
                12 is ample for Gaussian tails; Student integrands with few
                degrees of freedom need a much larger cut (see h_bar).
    """

    node_count: int = 64
    tail_cut: float = 12.0

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.tail_cut <= 0:
            raise ValueError("tail_cut must be positive")


_DEFAULT_QUAD = QuadratureSpec()

# Student tails are polynomial, not Gaussian: with 11-13 degrees of freedom
# the mass beyond 12 still moves the h_bar integrals at the 1e-6 level, so the
# unknown-variance quadratures integrate out to 600 (the doubling panels make
# the wide window cost only a handful of extra panels).
HBAR_SPEC = QuadratureSpec(node_count=64, tail_cut=600.0)


@lru_cache(maxsize=8)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def integrate_upper(f, lower, scale, spec=None):
    """Integrate f over [lower, +infinity), truncated at lower + tail_cut*scale.

    `f` must accept a 1-d ndarray of abscissae and return the matching values.
    Panels start with width `scale` and double, so heavy (Student) tails are
    resolved with O(log(tail_cut)) panels at full Gauss-Legendre accuracy.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec = spec or _DEFAULT_QUAD
    upper = lower + spec.tail_cut * scale

    edges = [float(lower)]
    width = float(scale)
    while edges[-1] < upper:
        edges.append(min(edges[-1] + width, upper))
        width *= 2.0
    edges = np.asarray(edges)

    xs, ws = _leggauss(spec.node_count)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * xs[None, :] + 0.5 * (b + a)
    weights = 0.5 * (b - a) * ws[None, :]
    values = f(nodes.ravel())
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand returned non-finite values")
    return float(np.dot(weights.ravel(), values))


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi); a float for a
    float, an array for an array."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def normal_sf(x):
    """Standard normal survival function 1 - Phi(x) = erfc(x / sqrt 2) / 2,
    elementwise through math.erfc (no cancellation for large x); it
    underflows to 0 past x = 38.5."""
    out = 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) * (1.0 / math.sqrt(2.0))), dtype=float)
    return float(out) if out.ndim == 0 else out


def student_log_sf_odd(t, dof):
    """log Fbar_nu(t) of the Student tail for odd nu = dof and t > 0, from the
    tail of a series: with phi = atan(sqrt(nu) / t) and
    a_j = (2j)!! / (2j + 1)!!,

        Fbar_nu(t) = (1/pi) cos(phi) sum_{j >= (nu - 1)/2} a_j sin(phi)^(2j+1),

    since the terms j < (nu - 1)/2 make up the closed form of the odd-nu CDF
    and the whole series sums to phi / cos(phi).  The terms shrink at least
    by sin(phi)^2 each; they are summed in log space until that bound falls
    below e^-40 of the first, so the value stays finite where the tail
    underflows."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    log_sin = -0.5 * np.log1p(t * t / dof)           # sin(phi) = sqrt(nu / (nu + t^2))
    log_cos = np.log(t) - 0.5 * np.log(dof + t * t)
    n_terms = int(np.ceil(20.0 / -np.max(log_sin))) + 1
    j = (dof - 1) // 2 + np.arange(n_terms)
    log_a = j * math.log(4.0) + 2.0 * gammaln(j + 1.0) - gammaln(2.0 * j + 2.0)
    log_terms = log_a + (2.0 * j + 1.0) * log_sin[:, None]
    top = log_terms.max(axis=1)
    return log_cos - math.log(math.pi) + top + np.log(np.exp(log_terms - top[:, None]).sum(axis=1))


def g_bar_closed(ell, a1, a2, a3, sigma):
    """g_bar(ell) = sigma phi(ell / sigma) B(ell / sigma), with B the factor
    stats._rice_b whose ratio rice_known takes: the closed form that g_bar
    integrates numerically."""
    return sigma * normal_pdf(ell / sigma) * _rice_b(ell, a1, a2, a3, sigma)


def _alphas_from_r(big_r):
    big_r = np.asarray(big_r, dtype=float)
    return -float(big_r[0, 0]), float(big_r[0, 1])


def g_bar(ell, big_r, sigma, ctx, spec=None):
    """Integral of det(-Lambda-tilde u + R) phi(u/sigma) over [ell, inf).

    With R = [[-a2, a3], [a3, 0]] the determinant is (a1 u + a2) u - a3^2.
    Note the plain phi(u/sigma), no 1/sigma: the normalization cancels in
    every ratio this feeds.
    """
    a1 = ctx.alpha1
    a2, a3 = _alphas_from_r(big_r)

    def integrand(u):
        return ((a1 * u + a2) * u - a3 * a3) * normal_pdf(u / sigma)

    return integrate_upper(integrand, ell, sigma, spec)


def h_bar(ell, r, m, ctx, spec=HBAR_SPEC):
    """Student analogue of g_bar: integral over [ell, inf) of
    det(-Lambda-tilde t + r) f_{m-1}(t c) dt with c = sqrt((m-1)/(m-3)).

    r is the Hessian remainder already divided by sigma-hat.
    """
    a1 = ctx.alpha1
    a2, a3 = _alphas_from_r(r)
    c = math.sqrt((m - 1.0) / (m - 3.0))
    dof = m - 1

    def integrand(t):
        return ((a1 * t + a2) * t - a3 * a3) * student_pdf(t * c, dof)

    return integrate_upper(integrand, ell, 1.0, spec)


def gamma_ratio_unknown_variance(m):
    """The constant ((m-3)/(m-2)) * Gamma(m/2)Gamma((m-3)/2) / (Gamma((m-1)/2)Gamma((m-2)/2)).

    By the recurrence Gamma(x+1) = x Gamma(x) this equals 1 for every m > 3;
    it is evaluated from log-gamma so that the identity is checked, not assumed.
    """
    if m <= 3:
        raise ValueError("m must exceed 3, got %r" % (m,))
    logval = (
        np.log((m - 3.0) / (m - 2.0))
        + gammaln(m / 2.0)
        + gammaln((m - 3.0) / 2.0)
        - gammaln((m - 1.0) / 2.0)
        - gammaln((m - 2.0) / 2.0)
    )
    return float(np.exp(logval))


def rng_normal(stream, size=None):
    """Standard normal draws from the start of the stream (deterministic per stream)."""
    return stream.generator().standard_normal(size)


def rng_uniform(stream, size=None):
    """Uniform [0,1) draws from the start of the stream (deterministic per stream)."""
    return stream.generator().random(size)


# ------------------------------------------------------------ model geometry


def z_deriv(obs, t, order=1):
    """d^order Z / dt^order by term-wise differentiation ((ik)^order factors)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    k = np.arange(-obs.f_c, obs.f_c + 1)
    coef = obs.y * (1j * k) ** order
    vals = np.exp(1j * np.multiply.outer(t, k)) @ coef / math.sqrt(obs.n_freq)
    return complex(vals[0]) if scalar else vals


def dense_uniform_sums(coef, n_points):
    """sum_k coef_k e^{i k t_j} at t_j = 2 pi j / n_points, k = -f_c..f_c
    along the last axis of coef, as one product with the exp(i k t) matrix."""
    n = coef.shape[-1]
    t = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    return coef @ np.exp(1j * np.outer(np.arange(-(n // 2), n // 2 + 1), t))


def x_grad(obs, z):
    """Gradient of X at z = (t, theta): (Re(e^{-i th} Z'), Im(e^{-i th} Z))."""
    ph = np.exp(-1j * z[1])
    return np.array([
        np.real(ph * z_deriv(obs, z[0], order=1)),
        np.imag(ph * z_eval(obs, z[0])),
    ])


def x_eval(obs, z):
    """X(z) = Re(e^{-i theta} Z(t))."""
    return float(np.real(np.exp(-1j * z[1]) * z_eval(obs, z[0])))


def x_hess(obs, z):
    """Hessian of X at z: [[Re(e Z''), Im(e Z')], [Im(e Z'), -Re(e Z)]] with e = e^{-i theta}."""
    ph = np.exp(-1j * z[1])
    xtt = np.real(ph * z_deriv(obs, z[0], order=2))
    xtth = np.imag(ph * z_deriv(obs, z[0], order=1))
    xthth = -np.real(ph * z_eval(obs, z[0]))
    return np.array([[xtt, xtth], [xtth, xthth]])


def torus_delta(z, y):
    """Shortest displacement z - y on the 2-torus, components in [-pi, pi)."""
    return wrap_delta(np.asarray(z, dtype=float) - np.asarray(y, dtype=float))


def dirichlet(f_c, t):
    """The Dirichlet kernel D_N(t) = sin(Nt/2)/sin(t/2), N = 2 f_c + 1.

    The removable singularity at t = 0 (mod 2*pi) evaluates to N; near it the
    ratio form loses digits, so below |sin(t/2)| = 1e-8 the cosine-sum form
    1 + 2 sum_{k<=f_c} cos(kt) is used instead.
    """
    n = 2 * f_c + 1
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    s = np.sin(0.5 * t)
    out = np.empty_like(t)
    near = np.abs(s) < 1e-8
    if np.any(near):
        k = np.arange(1, f_c + 1)
        out[near] = 1.0 + 2.0 * np.cos(np.outer(t[near], k)).sum(axis=1)
    far = ~near
    out[far] = np.sin(0.5 * n * t[far]) / s[far]
    return float(out[0]) if scalar else out


def gamma_deriv(f_c, t, order):
    """Gamma'(t) (order 1) or Gamma''(t) (order 2) by term-wise
    differentiation of Gamma(t) = (1/N)(1 + 2 sum cos(kt)):
    -(2/N) sum k sin(kt) and -(2/N) sum k^2 cos(kt)."""
    n = 2 * f_c + 1
    k = np.arange(1, f_c + 1, dtype=float)
    kt = np.multiply.outer(np.asarray(t, dtype=float), k)
    if order == 1:
        out = -(2.0 / n) * (np.sin(kt) @ k)
    elif order == 2:
        out = -(2.0 / n) * (np.cos(kt) @ (k * k))
    else:
        raise ValueError("order must be 1 or 2")
    return float(out) if out.ndim == 0 else out


def correlation(ctx, dz):
    """Correlation rho(dz) = Gamma(dt) cos(dtheta) of the field X under the null."""
    dt, dth = float(dz[0]), float(dz[1])
    return kernel_gamma(ctx.f_c, dt) * math.cos(dth)


def correlation_grad(ctx, dz):
    """Gradient of rho at dz: (Gamma'(dt) cos(dtheta), -Gamma(dt) sin(dtheta))."""
    dt, dth = float(dz[0]), float(dz[1])
    g = kernel_gamma(ctx.f_c, dt)
    g1 = gamma_deriv(ctx.f_c, dt, 1)
    return np.array([g1 * math.cos(dth), -g * math.sin(dth)])


def correlation_hess(ctx, dz):
    """Hessian of rho at dz (2x2 symmetric)."""
    dt, dth = float(dz[0]), float(dz[1])
    g = kernel_gamma(ctx.f_c, dt)
    g1 = gamma_deriv(ctx.f_c, dt, 1)
    g2 = gamma_deriv(ctx.f_c, dt, 2)
    c, s = math.cos(dth), math.sin(dth)
    return np.array([[g2 * c, -g1 * s], [-g1 * s, -g * c]])


# ------------------------------------------------------- the regressed field


def regressed_value(obs, z, y, mode="on_value"):
    """Value at y of the field regressed on X(z) ("on_value") or on
    (X(z), X'(z)) ("on_value_and_grad").

    on_value:          X(z) + (X(y) - X(z)) / (1 - rho(y-z))
    on_value_and_grad: (X(y) - rho X(z) + <rho'(y-z), Lt^{-1} X'(z)>) / (1 - rho)

    Both are smooth in y away from z; near z use g_ratio instead
    (NearSingular is raised when 1 - rho <= 1e-14).
    """
    ctx = obs.context()
    d = torus_delta(y, z)
    rho = correlation(ctx, d)
    if not 1.0 - rho > 1e-14:
        raise NearSingular(
            "1 - rho(y-z) = %g is below 1e-14; use the Taylor-remainder ratio" % (1.0 - rho,)
        )
    xz = x_eval(obs, z)
    xy = x_eval(obs, y)
    if mode == "on_value":
        return float(xz + (xy - xz) / (1.0 - rho))
    if mode == "on_value_and_grad":
        grad = x_grad(obs, z)
        rp = correlation_grad(ctx, d)
        corr = rp[0] * grad[0] / ctx.alpha1 + rp[1] * grad[1]
        return float((xy - rho * xz + corr) / (1.0 - rho))
    raise ValueError("mode must be 'on_value' or 'on_value_and_grad', got %r" % (mode,))


def g_ratio(obs, z_hat, lambda1, w, dt, dth, n_gl=16):
    """g = (X(y) - lambda1)/(1 - rho(y - z_hat)) for displacements (dt, dth),
    with w the aligned Fourier data of srknots.knots._aligned_coeffs.

    Vectorized over flat arrays.  For r > RADIUS_SWITCH the direct quotient is
    used; below it, Gauss-Legendre on the Taylor remainder over the sinc
    closed form of the denominator (module docstring).  Points with r < 1e-9
    get the theta-circle floor -lambda1 (the limit of g at z_hat depends on
    the direction).
    """
    dt = np.atleast_1d(np.asarray(dt, dtype=float))
    dth = np.atleast_1d(np.asarray(dth, dtype=float))
    n = obs.n_freq
    k = np.arange(-obs.f_c, obs.f_c + 1)
    r = np.hypot(dt, dth)
    out = np.full(dt.shape, -lambda1)

    far = r > RADIUS_SWITCH
    if np.any(far):
        zvals = np.exp(1j * np.outer(dt[far] + z_hat.t, k)) @ obs.y / math.sqrt(n)
        xvals = np.real(np.exp(-1j * (dth[far] + z_hat.theta)) * zvals)
        rho = kernel_gamma(obs.f_c, dt[far]) * np.cos(dth[far])
        out[far] = (xvals - lambda1) / (1.0 - rho)

    near = (~far) & (r > 1e-9)
    if np.any(near):
        rr = r[near]
        ca = dt[near] / rr
        sa = dth[near] / rr
        ck = np.outer(ca, k) - sa[:, None]            # (M, N)
        beta = rr[:, None] * ck                        # (M, N)
        den = (ck**2 * np.sinc(beta / (2.0 * math.pi)) ** 2).sum(axis=1) / (2.0 * n)
        xs, ws = _leggauss(n_gl)
        nodes, weights = 0.5 * (xs + 1.0), 0.5 * ws   # mapped to [0, 1]
        # u' X''(z_hat + h d) u = -(1/sqrt N) sum_k c_k^2 Re(w_k e^{i h beta_k})
        phase = np.exp(1j * beta[:, None, :] * nodes[None, :, None])  # (M, Q, N)
        integrand = -(ck**2)[:, None, :] * np.real(w[None, None, :] * phase)
        integrand = integrand.sum(axis=2) / math.sqrt(n)               # (M, Q)
        num = integrand @ (weights * (1.0 - nodes))
        out[near] = num / den
    return out


# ------------------------------------------------- the variance design route


def design_points(z, f_c):
    """The 2N sampling points: t + 2*pi*(j-1)/N at theta and at theta + pi/2."""
    n = 2 * f_c + 1
    shifts = 2.0 * math.pi * np.arange(n) / n
    pts = [TorusPoint.make(z[0] + s, z[1]) for s in shifts]
    pts += [TorusPoint.make(z[0] + s, z[1] + 0.5 * math.pi) for s in shifts]
    return pts


def _whitener(c_mat, expected_rank):
    """Rows W such that v -> ||W v||^2 is the quadratic form v' C^+ v.

    Asserts that the numerical rank (singular values above 1e-8 of the
    largest) equals the expected one, then truncates there.
    """
    u, s, _ = np.linalg.svd(c_mat, hermitian=True)
    rank = int(np.sum(s > 1e-8 * s[0]))
    assert rank == expected_rank, "design correlation has rank %d, expected %d" % (
        rank, expected_rank)
    return (u[:, :expected_rank] / np.sqrt(s[:expected_rank])).T


@lru_cache(maxsize=16)
def _design_cache(f_c):
    """Geometry shared by every base point z at this cutoff frequency.

    The grid residual v_i = X(z_i) - rho_i X(z) and the conditional residual
    v_i + <rho'(z_i - z), Lt^{-1} X'(z)> (i >= 2, rho_i = rho(z_i - z)) are
    weighed by the pseudo-inverses of their model correlations, of ranks
    2N - 1 and 2N - 3.
    """
    ctx = ModelContext(f_c)
    n = ctx.n_freq
    m = 2 * n
    # offsets w_i = z_i - z, the same for every z: the design at the origin
    off_t, off_th = np.array(design_points((0.0, 0.0), f_c)).T

    rho = kernel_gamma(f_c, off_t) * np.cos(off_th)
    g0 = kernel_gamma(f_c, off_t)
    g1 = gamma_deriv(f_c, off_t, 1)
    rho_grad = np.stack([g1 * np.cos(off_th), -g0 * np.sin(off_th)], axis=1)

    ddt = off_t[:, None] - off_t[None, :]
    ddth = off_th[:, None] - off_th[None, :]
    full = kernel_gamma(f_c, ddt.ravel()).reshape(m, m) * np.cos(ddth)

    idx = np.arange(1, m)
    c_grid = full[np.ix_(idx, idx)] - np.outer(rho[idx], rho[idx])
    lam_inv = np.array([1.0 / ctx.alpha1, 1.0])
    c_cond = c_grid - (rho_grad[idx] * lam_inv) @ rho_grad[idx].T

    k = np.arange(-f_c, f_c + 1)
    return {
        "rho": rho,
        "rho_grad": rho_grad,
        "w_grid": _whitener(c_grid, m - 1),
        "w_cond": _whitener(c_cond, m - 3),
        "e_off": np.exp(1j * np.outer(off_t[:n], k)),
        "lam_inv": lam_inv,
    }


def _design_values(obs, z, cache):
    """X at the 2N design points, ordered theta row then theta + pi/2 row."""
    k = np.arange(-obs.f_c, obs.f_c + 1)
    z_vals = cache["e_off"] @ (obs.y * np.exp(1j * k * z[0])) / math.sqrt(obs.n_freq)
    rotated = np.exp(-1j * z[1]) * z_vals
    return np.concatenate([np.real(rotated), np.imag(rotated)])


def design_sigma_hat_grid(obs, z):
    """sigma_hat_grid through the design correlation: ||W_grid v||^2 / (2N - 1)."""
    cache = _design_cache(obs.f_c)
    vals = _design_values(obs, z, cache)
    v = vals[1:] - cache["rho"][1:] * vals[0]
    return float(np.sum((cache["w_grid"] @ v) ** 2) / (2 * obs.n_freq - 1))


def design_sigma_hat_cond(obs, z):
    """sigma_hat_cond through the design correlation: ||W_cond v||^2 / (2N - 3)."""
    cache = _design_cache(obs.f_c)
    vals = _design_values(obs, z, cache)
    correction = cache["rho_grad"] @ (cache["lam_inv"] * x_grad(obs, z))
    v = vals[1:] - cache["rho"][1:] * vals[0] + correction[1:]
    return float(np.sum((cache["w_cond"] @ v) ** 2) / (2 * obs.n_freq - 3))


# ------------------------------------------------------------ the LARS path


def lars_system(leg, lam, x):
    """(h, dh/dx, a) of the stationarity system of a LARS leg at (lambda, x)
    (lars._Leg.system), with G_m = [Gamma^(m)(x_i - x_j)] from kernel_gamma
    and gamma_deriv on the pairwise differences, and Z, Z', Z'' from z_deriv."""
    d = np.subtract.outer(x, x)
    g0 = kernel_gamma(leg.obs.f_c, d.ravel()).reshape(d.shape)
    g1, g2 = (gamma_deriv(leg.obs.f_c, d, order) for order in (1, 2))
    s = leg.two_s2
    m = s * g0
    cp = (lam / leg.lam_prev) * leg.prev_vals
    z0, z1, z2 = (z_deriv(leg.obs, x, order) for order in range(3))
    a = np.linalg.solve(m, z0 - cp)
    w1 = z1 - s * (g1 @ a)
    da = np.linalg.solve(m, np.diag(w1) + s * g1 * a)
    dw1 = np.diag(z2 - s * (g2 @ a)) + s * g2 * a - s * (g1 @ da)
    return 2.0 * np.real(np.conj(cp) * w1), 2.0 * np.real(np.conj(cp)[:, None] * dw1), a


def lars_residual_kernel_sum(obs, path, k, t):
    """The residual Z_k(t) = Z(t) - sum_i a_i 2 sigma^2 Gamma(t - t_i) after
    knot k (1-based), one kernel term per active point."""
    knot = path.knots[k - 1]
    vals = np.atleast_1d(z_eval(obs, t))
    two_s2 = 2.0 * path.sigma * path.sigma
    for loc, a_i in zip(knot.active, knot.weights):
        vals = vals - two_s2 * a_i * kernel_gamma(obs.f_c, np.asarray(t, dtype=float) - loc)
    return vals


# ------------------------------------------------------------ the Voronoi cell


def voronoi_geometry(metric):
    """Relevant vectors of Z^2 under `metric` and a bounding box of the cell.

    The cell V0 is the intersection of |<x, r>| <= q(r)/2 over the relevant
    vectors r in {u, v, u+v} of a reduced basis.  The box is the componentwise
    maximum of 1 and the cell's extent, listed from the cell's vertices.
    """
    a = np.asarray(metric, dtype=float)
    u, v = (basis[0] for basis in _gauss_reduce(a[None]))
    rel = np.array([u, v, u + v], dtype=float)
    normals = rel @ a                      # rows r' A
    halves = 0.5 * np.einsum("ij,ij->i", normals, rel)  # q(r)/2

    vertices = []
    for i in range(3):
        for j in range(i + 1, 3):
            mat = np.array([normals[i], normals[j]])
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    x = np.linalg.solve(mat, [si * halves[i], sj * halves[j]])
                    if np.all(np.abs(normals @ x) <= halves * (1.0 + 1e-9)):
                        vertices.append(x)
    extent = np.max(np.abs(np.array(vertices)), axis=0)
    box = np.maximum(1.0, extent)
    return normals, halves, box


def voronoi_rejection_sample(hess, rng):
    """A uniform draw from the Voronoi cell of Z^2 under -hess, by rejection
    from the uniform law on the box of voronoi_geometry."""
    normals, halves, box = voronoi_geometry(-np.asarray(hess, dtype=float))
    for _ in range(100000):
        u = rng.uniform(-1.0, 1.0, size=2) * box
        if np.all(np.abs(normals @ u) <= halves):
            return u
    raise RuntimeError("voronoi_rejection_sample failed to accept")


def two_spike_rejection_sample(sep, rng):
    """Two uniform locations on the circle, drawn again until their circular
    distance is >= sep."""
    for _ in range(100000):
        locs = rng.uniform(0.0, TWO_PI, size=2)
        if circular_distance(locs[0], locs[1]) >= sep:
            return locs
    raise RuntimeError("two_spike_rejection_sample failed to accept")


def brent_maximize(f, bracket, tol=1e-10):
    """Maximize a scalar function on an interval by bounded Brent search
    (scipy's minimize_scalar) to |dx| < tol; returns (argmax, max)."""
    lo, hi = bracket
    if not hi > lo:
        raise ValueError("degenerate bracket %r" % (bracket,))
    res = optimize.minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded",
        options={"xatol": tol, "maxiter": 500},
    )
    return float(res.x), float(-res.fun)
