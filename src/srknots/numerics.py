"""Special functions, semi-infinite quadrature, a local maximizer, and RNG streams.

Everything here is a pure function of its arguments.  The quadrature routine
targets integrands of the form (polynomial of degree <= 2) x (Gaussian or
Student density): panelized Gauss-Legendre with geometrically growing panels,
which keeps the error *relative* to the integral down at machine level even
deep in the tail.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import erfc, gammaln, stdtr

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def normal_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def normal_sf(x):
    """Standard normal survival function 1 - Phi(x), via erfc (no cancellation for large x)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x * _INV_SQRT2)
    return float(out) if out.ndim == 0 else out


def student_pdf(x, dof):
    """Student t density with `dof` degrees of freedom."""
    if dof <= 0:
        raise ValueError("dof must be positive, got %r" % (dof,))
    x = np.asarray(x, dtype=float)
    lognorm = gammaln((dof + 1.0) / 2.0) - gammaln(dof / 2.0) - 0.5 * np.log(dof * np.pi)
    out = np.exp(lognorm - ((dof + 1.0) / 2.0) * np.log1p(x * x / dof))
    return float(out) if out.ndim == 0 else out


def student_sf(x, dof):
    """Student t survival function, via the regularized incomplete beta (scipy stdtr)."""
    if dof <= 0:
        raise ValueError("dof must be positive, got %r" % (dof,))
    x = np.asarray(x, dtype=float)
    out = stdtr(dof, -x)
    return float(out) if out.ndim == 0 else out


def gamma_ratio_unknown_variance(m):
    """The constant ((m-3)/(m-2)) * Gamma(m/2)Gamma((m-3)/2) / (Gamma((m-1)/2)Gamma((m-2)/2)).

    By the recurrence Gamma(x+1) = x Gamma(x) this equals 1 for every m > 3;
    it is kept as an explicit evaluator so the identity is checked, not assumed.
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the semi-infinite integrator.

    node_count: Gauss-Legendre nodes per panel.
    tail_cut:   multiple of `scale` beyond which the integrand is treated as zero.
                12 is ample for Gaussian tails; Student integrands with few
                degrees of freedom need a much larger cut (see h_bar).
    abs_tol:    documented error budget for degree-<=2 polynomial-times-density
                integrands (the panel scheme typically does far better).
    """

    node_count: int = 64
    tail_cut: float = 12.0
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.tail_cut <= 0 or self.abs_tol <= 0:
            raise ValueError("tail_cut and abs_tol must be positive")


_DEFAULT_QUAD = QuadratureSpec()

_leggauss_cache = {}


def _leggauss(n):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _leggauss_cache[n]


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


def maximize_1d(f, bracket, tol=1e-10):
    """Maximize a unimodal scalar function on a bracket; returns (argmax, max)."""
    lo, hi = bracket
    if not hi > lo:
        raise ValueError("degenerate bracket %r" % (bracket,))
    res = optimize.minimize_scalar(
        lambda x: -f(x), bounds=(lo, hi), method="bounded",
        options={"xatol": tol, "maxiter": 500},
    )
    return float(res.x), float(-res.fun)


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG stream: (seed, stream_id) fully determines the sequence.

    Streams with distinct ids are independent (Philox keyed on both words), so
    replication r of an experiment with seed s reproduces identically no matter
    how replications are scheduled across threads or processes.
    """

    seed: int
    stream_id: int = 0

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def rng_normal(stream, size=None):
    """Standard normal draws from the start of the stream (deterministic per stream)."""
    return stream.generator().standard_normal(size)


def rng_uniform(stream, size=None):
    """Uniform [0,1) draws from the start of the stream (deterministic per stream)."""
    return stream.generator().random(size)
