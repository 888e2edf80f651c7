"""Karhunen-Loeve variance estimators, in closed form.

The estimators sample X at 2N design points around a base point z: the N
t-shifts z + (2 pi j / N, 0) and the same shifts at theta + pi/2.  They
regress out X(z), or (X(z), X'(z)), and weigh the residual by the
pseudo-inverse of its own model correlation, which gives sigma^2 times a
chi-square over its degrees of freedom.

With the aligned coefficients w_k = y_k e^{i(k t - theta)} (_aligned_coeffs),
e^{-i theta} Z(t + 2 pi j / N) = a_j = sum_k w_k e^{2 pi i k j / N} / sqrt N.
This is the unitary N-point DFT of w.  The design values are Re a_j on the
theta row and Im a_j on the theta + pi/2 row, so they are an orthogonal
transform of the 2N real numbers (Re w, Im w).  Their correlation
rho(z_i - z_j) = Gamma(dt) cos(dtheta) is 0 at every non-zero design
offset, since the Dirichlet kernel vanishes at 2 pi j / N and cos at pi/2.
So the design is white, and the quadratic form of the regressed residual is
the squared norm of (Re w, Im w) projected off the regressed directions:

    X(z)       = sum Re w_k / sqrt N     (the constant vector in Re w),
    X_theta(z) = sum Im w_k / sqrt N     (the constant vector in Im w),
    X_t(z)     = -sum k Im w_k / sqrt N  (the k vector in Im w).

    grid mode:        regress out X(z),          dof = 2N - 1
    conditional mode: regress out X(z) and X'(z), dof = 2N - 3

Both are computed as residual vectors, never as differences of squares, so
a strong spike at z costs no digits.
"""

from dataclasses import dataclass

import numpy as np

from .model import _aligned_coeffs


@dataclass(frozen=True)
class VarianceEstimate:
    """An unbiased noise-variance estimate with its chi-square degrees of freedom."""

    value: float
    dof: int


def _estimate(value, dof):
    return VarianceEstimate(value=float(value) if value.ndim == 0 else value, dof=dof)


def sigma_hat_grid(obs, z):
    """Estimate sigma^2 regressing out X(z); (2N-1) * value / sigma^2 is chi-square(2N-1).
    For a stack obs and z = (t, theta) arrays, value holds one estimate per row."""
    w = _aligned_coeffs(obs, z)
    re_res = w.real - w.real.mean(axis=-1, keepdims=True)
    dof = 2 * obs.n_freq - 1
    return _estimate(((re_res * re_res).sum(axis=-1) + (w.imag * w.imag).sum(axis=-1)) / dof,
                     dof)


def sigma_hat_cond(obs, z):
    """Estimate sigma^2 regressing out X(z) and X'(z); dof = 2N - 3.

    Unlike the grid variant this is independent of the local maximum geometry
    (value and gradient both conditioned away), which is what the studentized
    knot tests require at z = z_hat.  Stacks as sigma_hat_grid does.
    """
    w = _aligned_coeffs(obs, z)
    k = np.arange(-obs.f_c, obs.f_c + 1)
    re_res = w.real - w.real.mean(axis=-1, keepdims=True)
    # the constant and k vectors are orthogonal, so both projections come off at once
    im_res = (w.imag - w.imag.mean(axis=-1, keepdims=True)
              - (w.imag * k).sum(axis=-1, keepdims=True) / (k @ k) * k)
    dof = 2 * obs.n_freq - 3
    return _estimate(((re_res * re_res).sum(axis=-1) + (im_res * im_res).sum(axis=-1)) / dof,
                     dof)
