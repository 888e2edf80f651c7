"""Karhunen-Loeve variance estimators.

The field X is sampled at 2N design points around a base point z (N equal
t-shifts at theta, the same shifts at theta + pi/2), the parts explained by
X(z) — or by (X(z), X'(z)) — are regressed out, and the residual quadratic
form in the pseudo-inverse of its own model correlation gives sigma^2 times
a chi-square over its degrees of freedom:

    grid mode:        v_i = X(z_i) - rho_i X(z),               dof = 2N - 1
    conditional mode: v_i = X(z_i) - rho_i X(z)
                            + <rho'(z_i - z), Lt^{-1} X'(z)>,  dof = 2N - 3

(rho_i = rho(z_i - z); i >= 2).  In conditional mode the residual at
z + (0, pi/2) vanishes identically — X_theta(z) is itself a design value —
which is what drops the rank from 2N-1 to 2N-3 together with the t-derivative
combination.  The design offsets do not depend on z, so the correlation
matrices and their pseudo-inverses are computed once per cutoff frequency.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RankDeficient
from .model import ModelContext, TorusPoint, kernel_gamma, x_grad

_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class VarianceEstimate:
    """An unbiased noise-variance estimate with its chi-square degrees of freedom."""

    value: float
    dof: int


def design_points(z, f_c):
    """The 2N sampling points: t + 2*pi*(j-1)/N at theta and at theta + pi/2."""
    n = 2 * f_c + 1
    shifts = 2.0 * math.pi * np.arange(n) / n
    pts = [TorusPoint.make(z[0] + s, z[1]) for s in shifts]
    pts += [TorusPoint.make(z[0] + s, z[1] + 0.5 * math.pi) for s in shifts]
    return pts


def _whitener(c_mat, expected_rank):
    """Rows W such that v -> ||W v||^2 is the quadratic form v' C^+ v.

    Verifies that the numerical rank (singular values above 1e-8 of the
    largest) equals the expected one, then truncates there.
    """
    u, s, _ = np.linalg.svd(c_mat, hermitian=True)
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    if rank != expected_rank:
        raise RankDeficient(
            "design correlation has numerical rank %d, expected %d" % (rank, expected_rank)
        )
    return (u[:, :expected_rank] / np.sqrt(s[:expected_rank])).T


@lru_cache(maxsize=16)
def _design_cache(f_c):
    """Geometry shared by every base point z at this cutoff frequency."""
    ctx = ModelContext(f_c)
    n = ctx.n_freq
    m = 2 * n
    # offsets w_i = z_i - z, the same for every z: the design at the origin
    off_t, off_th = np.array(design_points((0.0, 0.0), f_c)).T

    # rho(w_i) and rho'(w_i) at the offsets w_i = z_i - z
    rho = kernel_gamma(f_c, off_t) * np.cos(off_th)
    g0 = kernel_gamma(f_c, off_t)
    g1 = kernel_gamma(f_c, off_t, order=1)
    rho_grad = np.stack([g1 * np.cos(off_th), -g0 * np.sin(off_th)], axis=1)

    # pairwise rho(z_i - z_j)
    ddt = off_t[:, None] - off_t[None, :]
    ddth = off_th[:, None] - off_th[None, :]
    full = kernel_gamma(f_c, ddt.ravel()).reshape(m, m) * np.cos(ddth)

    idx = np.arange(1, m)
    c_grid = full[np.ix_(idx, idx)] - np.outer(rho[idx], rho[idx])
    lam_inv = np.array([1.0 / ctx.alpha1, 1.0])
    cross = (rho_grad[idx] * lam_inv) @ rho_grad[idx].T
    c_cond = c_grid - cross

    k = np.arange(-f_c, f_c + 1)
    e_off = np.exp(1j * np.outer(off_t[:n], k))

    return {
        "rho": rho,
        "rho_grad": rho_grad,
        "w_grid": _whitener(c_grid, m - 1),
        "w_cond": _whitener(c_cond, m - 3),
        "e_off": e_off,
        "lam_inv": lam_inv,
    }


def _design_values(obs, z, cache):
    """X at the 2N design points, ordered theta row then theta + pi/2 row."""
    n = obs.n_freq
    k = np.arange(-obs.f_c, obs.f_c + 1)
    z_vals = cache["e_off"] @ (obs.y * np.exp(1j * k * z[0])) / math.sqrt(n)
    rotated = np.exp(-1j * z[1]) * z_vals
    return np.concatenate([np.real(rotated), np.imag(rotated)])


def sigma_hat_grid(obs, z):
    """Estimate sigma^2 regressing out X(z); (2N-1) * value / sigma^2 is chi-square(2N-1)."""
    cache = _design_cache(obs.f_c)
    vals = _design_values(obs, z, cache)
    v = vals[1:] - cache["rho"][1:] * vals[0]
    dof = 2 * obs.n_freq - 1
    value = float(np.sum((cache["w_grid"] @ v) ** 2) / dof)
    return VarianceEstimate(value=value, dof=dof)


def sigma_hat_cond(obs, z):
    """Estimate sigma^2 regressing out X(z) and X'(z); dof = 2N - 3.

    Unlike the grid variant this is independent of the local maximum geometry
    (value and gradient both conditioned away), which is what the studentized
    knot tests require at z = z_hat.
    """
    cache = _design_cache(obs.f_c)
    vals = _design_values(obs, z, cache)
    grad = x_grad(obs, z)
    correction = cache["rho_grad"] @ (cache["lam_inv"] * grad)
    v = vals[1:] - cache["rho"][1:] * vals[0] + correction[1:]
    dof = 2 * obs.n_freq - 3
    value = float(np.sum((cache["w_cond"] @ v) ** 2) / dof)
    return VarianceEstimate(value=value, dof=dof)
