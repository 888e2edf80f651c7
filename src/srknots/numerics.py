"""Special functions, a local maximizer, and RNG streams.

Everything here is a pure function of its arguments.
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
    replication r of an experiment with seed s reproduces identically whatever
    other replications are run, and in whatever order.
    """

    seed: int
    stream_id: int = 0

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
