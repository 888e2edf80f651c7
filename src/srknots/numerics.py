"""Special functions, a bracketed Newton maximizer, and RNG streams.

Everything here is a pure function of its arguments.  The special functions
take a scalar or an array and return a float or an array alike; they are
built on math.erfc and math.lgamma alone.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Past this x the Gaussian tail is read from the Mills ratio's continued
# fraction, which has converged there, and erfc is not needed.
_TAIL_CF_FROM = 30.0
_CF_TERMS = 30

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _out(out):
    return float(out) if out.ndim == 0 else out


def _half_erfc(x):
    """erfc(x / sqrt 2) / 2 = 1 - Phi(x), elementwise through math.erfc."""
    return 0.5 * np.asarray(_erfc(x * _INV_SQRT2), dtype=float)


def _laplace_mills(x):
    """Laplace's continued fraction 1/(x + 1/(x + 2/(x + 3/(x + ...)))) for the
    Mills ratio, taken _CF_TERMS deep from the bottom; converged for x >= 30."""
    tail = x
    for j in range(_CF_TERMS, 0, -1):
        tail = x + j / tail
    return 1.0 / tail


def _by_tail(x, near, far):
    """near(x) where x <= 30 and far(x) past it, each taken only where it is used."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    cut = x <= _TAIL_CF_FROM
    for part, fun in ((cut, near), (~cut, far)):
        if part.any():
            out[part] = fun(x[part])
    return _out(out)


def mills_ratio(x):
    """The Mills ratio M(x) = (1 - Phi(x)) / phi(x) for x >= 0: the two tails
    up to x = 30, Laplace's continued fraction past it, where both would
    underflow (M(x) ~ 1/x)."""
    return _by_tail(x, lambda v: _half_erfc(v) * _SQRT_2PI * np.exp(0.5 * v * v), _laplace_mills)


def _log_near(x):
    tail = _half_erfc(np.abs(x))
    with np.errstate(divide="ignore"):
        return np.where(x < 0.0, np.log1p(-tail), np.log(tail))


def _log_far(x):
    with np.errstate(divide="ignore"):  # x = inf: M reads 0, and the log -inf
        return -0.5 * x * x - _LOG_SQRT_2PI + np.log(_laplace_mills(x))


def log_normal_sf(x):
    """log(1 - Phi(x)) at every x: log1p(-Phi-bar(-x)) below 0, the log of the
    erfc tail up to x = 30, and -x^2/2 - log sqrt(2 pi) + log M(x) past it."""
    return _by_tail(x, _log_near, _log_far)


def normal_sf_ratio(x1, x2):
    """The survival ratio (1 - Phi(x1)) / (1 - Phi(x2)), as
    exp(log_normal_sf(x1) - log_normal_sf(x2)): finite where both tails underflow."""
    return _out(np.exp(np.asarray(log_normal_sf(x1)) - log_normal_sf(x2)))


def _check_dof(dof):
    if not np.all(np.asarray(dof) > 0):
        raise ValueError("dof must be positive, got %r" % (dof,))


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def student_pdf(x, dof):
    """Student t density with `dof` degrees of freedom."""
    _check_dof(dof)
    x = np.asarray(x, dtype=float)
    lognorm = math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0) - 0.5 * math.log(dof * math.pi)
    return _out(np.exp(lognorm - ((dof + 1.0) / 2.0) * np.log1p(x * x / dof)))


def _beta_fraction(a, b, z):
    """The continued fraction of I_z(a, b) (Numerical Recipes' betacf), by
    the modified Lentz method, for z < (a + 1)/(a + b + 2), where it
    converges; every array holds one instance per element.  An element
    stops once its step is within 1e-15 of 1, so its value does not depend
    on the other elements."""
    apb = a + b
    c = np.ones_like(z)
    d = 1.0 / (1.0 - apb * z / (a + 1.0))
    frac = d.copy()
    live = np.ones(z.shape, dtype=bool)
    for m in range(1, 200):
        a2m = a + 2.0 * m
        step = 1.0
        for num in (m * (b - m) * z / ((a2m - 1.0) * a2m),
                    -(a + m) * (apb + m) * z / (a2m * (a2m + 1.0))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            half = d * c
            step = step * half
        frac = np.where(live, frac * step, frac)
        live &= np.abs(half - 1.0) > 1e-15  # nan stops too
        if not live.any():
            break
    return frac


def student_sf(x, dof):
    """Student t survival function; dof may be an array that broadcasts
    with x, so the tails of several dofs take one call.

    The two-sided tail P(|T| > |t|) is the regularized incomplete beta
    I_z(dof/2, 1/2) at z = dof/(dof + t^2).  Where t^2 (dof + 2) > 3 dof,
    z lies inside the region where its continued fraction (_beta_fraction)
    converges; elsewhere the fraction gives the central mass
    I_{1-z}(1/2, dof/2), which is below P(|T| <= sqrt 3) < 0.92 there, so
    1 minus it does not cancel.  For t < 0, sf is 1 minus sf(-t)."""
    _check_dof(dof)
    x = np.asarray(x, dtype=float)
    dof = np.broadcast_to(np.asarray(dof, dtype=float), x.shape)
    t2 = x * x
    upper = t2 * (dof + 2.0) > 3.0 * dof
    a = np.where(upper, 0.5 * dof, 0.5)
    b = 0.5 * dof + 0.5 - a
    with np.errstate(invalid="ignore"):  # t^2 = inf: z = 0 on the upper side
        z = np.where(upper, dof / (dof + t2), t2 / (dof + t2))
    z = np.where(np.isinf(t2), 0.0, z)
    log_beta = np.asarray(_lgamma(a) + _lgamma(b) - _lgamma(a + b), dtype=float)
    with np.errstate(divide="ignore"):
        mass = np.exp(a * np.log(z) + b * np.log1p(-z) - log_beta) / a * _beta_fraction(a, b, z)
    tail = 0.5 * np.where(upper, mass, 1.0 - mass)
    return _out(np.where(x < 0.0, 1.0 - tail, tail))


def maximize_bracketed(fun, a, b, c):
    """A local maximum of f in each bracket [a_i, c_i], all brackets at once.

    fun(x) returns (f, f', f'', ...) at every point of an array x whose
    last axis runs over the brackets, so data of a bracket's own can
    broadcast along it: x is (3, B) on the first call and (B,) after.  Any
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
    vals = np.reshape(fun(pts), (-1, 3, cols.size))
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
