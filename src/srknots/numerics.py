"""Special functions, a bracketed Newton maximizer, and RNG streams.

Everything here is a pure function of its arguments.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaln, log_ndtr, stdtr

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


def normal_sf_ratio(x1, x2):
    """The survival ratio (1 - Phi(x1)) / (1 - Phi(x2)), as
    exp(log_ndtr(-x1) - log_ndtr(-x2)): finite where both tails underflow."""
    out = np.exp(log_ndtr(np.negative(x1)) - log_ndtr(np.negative(x2)))
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


def maximize_bracketed(fun, a, b, c):
    """A local maximum of f in each bracket [a_i, c_i], all brackets at once.

    fun(x) returns (f, f', f'', ...) at every point of an array x: any
    further arrays ride along with the point they belong to.  Each bracket
    comes with an inner point, a_i < b_i < c_i, and f(b_i) >= f(a_i), f(c_i)
    is expected; where an end is higher the search starts there instead, and
    may end there.  From the best point x of its bracket [lo, hi], each round
    takes the Newton step on f' where f''(x) < 0 and it lands inside
    (lo, hi), and else the midpoint of the side that f'(x) points up (the
    longer side where f'(x) = 0).  The bracket shrinks by values alone: a
    new point u with f(u) >= f(x) becomes the best and x the end on the far
    side; a lower one becomes the end on its own side.  A point whose own
    Newton step is at most 1e-12 has converged and becomes the best whatever
    its value, since there values differ by rounding only.  A bracket stops
    once its next step is at most 1e-12, and takes that step if it is a
    Newton step (a step below one ulp is convergence, not a bracket exit);
    so a maximum at an end stops there.  f, f', f'' are taken at the three
    points of every bracket in one call, then at one new point of every
    bracket per call until all have stopped.  Returns (x, f, f', f'', ...),
    each of fun's arrays at the last point evaluated for the bracket; raises
    ValueError unless a < b < c.
    """
    pts = np.array(np.broadcast_arrays(b, a, c), dtype=float).reshape(3, -1)  # ties go to b
    if not ((pts[1] < pts[0]) & (pts[0] < pts[2])).all():
        raise ValueError("each bracket needs a < b < c")
    cols = np.arange(pts.shape[1])
    vals = np.reshape(fun(pts.ravel()), (-1, 3, cols.size))
    best = np.argmax(vals[0], axis=0)
    state = np.concatenate([pts[None], vals])[:, best, cols]  # x, f, f', f'', ...
    ends = pts[np.array([[1, 1, 0], [2, 0, 2]])[:, best], cols]  # lo, hi around the best
    done = np.zeros(cols.size, dtype=bool)
    for _ in range(100):
        x, f, f1, f2 = state[:4]
        lo, hi = ends
        concave = f2 < 0.0
        u = x - f1 / np.where(concave, f2, -np.inf)
        up = np.where(f1 == 0.0, hi + lo - 2.0 * x, f1) > 0.0
        newton = concave & (lo < u) & (u < hi)
        u = np.where(newton, u, 0.5 * (x + np.where(up, hi, lo)))
        stop = ~done & (np.abs(u - x) <= 1e-12)
        x[stop & newton] = u[stop & newton]  # the last Newton step is taken
        done |= stop
        if done.all():
            break
        new = np.array([u, *fun(u)])
        better = ~done & ((new[1] >= f) | (np.abs(new[2]) <= -1e-12 * new[3]))
        # u better: the far end moves to x; else u's own end moves to u
        ends[((u > x) ^ better).astype(int), cols] = np.where(better, x, u)
        state = np.where(better, new, state)
    return tuple(state)


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
