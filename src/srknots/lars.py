"""Active-set continuation of the least-angle regression path for complex
measures against the kernel K(s, t) = 2 sigma^2 Gamma(t - s).

The first two knots are delegated to the grid-less knot module.  From the
third on, for lambda in (lambda_k, lambda_{k-1}] the weights are

    a(lambda, x) = M(x)^{-1} (Z(x_i) - (lambda/lambda_{k-1}) Z_{k-1}(t_i))_i,
    M(x)_{ij} = K(x_i, x_j),

which makes the residual at every active point have modulus exactly lambda
(the previous residual values Z_{k-1}(t_i) all have modulus lambda_{k-1}).
The active locations x(lambda) then follow the stationarity system

    h_j(lambda, x) = d/dt |Z(t) - sum_i a_i K(x_i, t)|^2 at t = x_j = 0,

tracked by a predictor-corrector scheme: decrement lambda by a predicted
step, half the distance to the crossing that the secant of the peak gap (the
largest off-support peak of |Z^(lambda)| less lambda) over the last two
solved points predicts, kept within 1% and 10% of lambda (1% on a leg's
first step and wherever the peak gap did not rise), and re-solve h = 0 by
Newton with the analytic Jacobian from the secant prediction, halving the
decrement when Newton fails.  The Jacobian (_Leg.system) needs Z and the
Gram tables G_m = [Gamma^(m)(x_i - x_j)] up to second order at the active
points, and reads them all from one e^{ikx} table.  The next knot is the
largest lambda at which the off-support maximum of |Z^(lambda)| reaches
lambda.  The residual Z^(lambda) is itself the Z of the Fourier data
y_res = y - (2 sigma^2 / sqrt N) sum_i a_i e^{-ik x_i} (_residual), so that
maximum comes from the one route to the peaks of |Z| that the first knot
also takes: knots.z_peaks sweeps y_res on the 64N-point event grid and
polishes every local maximum outside the merge discs.  Every step ends with
that sweep.  Once a step's sweep reads a gap >= 0, it brackets the
knot, and one loop (_Leg.locate) narrows the bracket to a width of 1e-9
lambda: by Illinois false position on the gap of the one candidate that
crosses (a peak re-polished at each lambda, or a disc-boundary point),
confirmed by one sweep at the final upper end, or by halving on the global
gap where that candidate does not exist at the upper end or false position
fails.
"""

import math
import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .knots import _newton_peaks, _z_block, first_knot, second_knot, z_peaks
from .model import Observation, wrap_delta, z_eval

_MERGE_RADIUS = 1e-3
_COND_LIMIT = 1e14
_EDGE_SIGNS = np.array([-1.0, 1.0])
_STEP_FLOOR = 1e-2  # a march step lowers lambda by at least 1%
_STEP_CAP = 1e-1  # and by at most 10%
_NEWTON_TOL = 1e-10  # Newton stops at a step below this
_EVENT_GRID_FACTOR = 64  # event grid points per frequency
_GAP_ROUNDING = 1e-12  # two routes to one |Z^(lambda)| peak agree to this


@dataclass(frozen=True)
class LarsOptions:
    """Continuation controls: the number of knots and the lowest lambda."""

    k_max: int = 4
    lambda_min: float = 1e-3

    def __post_init__(self):
        if self.k_max < 2:
            raise ValueError("k_max must be >= 2")
        if not self.lambda_min > 0:
            raise ValueError("lambda_min must be positive")


@dataclass(frozen=True)
class LarsKnot:
    """One knot: the regularization level, the active locations and the
    weights of the fitted measure (the newly entered point carries weight 0)."""

    lam: float
    active: Tuple[float, ...]
    weights: Tuple[complex, ...]


@dataclass
class LarsPath:
    knots: List[LarsKnot]
    status: str
    sigma: float
    f_c: int


class _PathStop(Exception):
    def __init__(self, status):
        self.status = status


def _residual(obs, two_s2, x, a):
    """The Observation whose Z is the residual Z(t) - sum_i a_i K(x_i, t),
    K(s, t) = two_s2 Gamma(t - s): its Fourier data are
    y - (two_s2 / sqrt N) sum_i a_i e^{-ik x_i}."""
    k = np.arange(-obs.f_c, obs.f_c + 1)
    shift = np.exp(-1j * np.outer(k, x)) @ a
    return Observation(f_c=obs.f_c, y=obs.y - two_s2 * shift / math.sqrt(obs.n_freq))


class _Leg:
    """Continuation state for one leg of the path (fixed active cardinality)."""

    def __init__(self, obs, two_s2, active, prev_vals, lam_prev, lambda_min):
        self.obs = obs
        self.two_s2 = two_s2
        self.x = np.asarray(active, dtype=float)
        self.prev_vals = np.asarray(prev_vals, dtype=complex)
        self.lam_prev = float(lam_prev)
        self.lambda_min = lambda_min
        self.k, self.z_block = _z_block(obs)
        # rows (ik)^m / N, m = 0, 1, 2: Gamma^(m)(t) = sum_k (ik)^m e^{ikt} / N
        self.gamma_block = (1j * self.k) ** np.arange(3)[:, None] / obs.n_freq
        # A tracked peak may move this far between two lambdas of a bracket:
        # a quarter of the Fourier node spacing 2 pi / N.
        self.track_radius = 0.5 * math.pi / obs.n_freq

    def system(self, lam, x):
        """(h, dh/dx, a) of the stationarity system at (lambda, x).

        With s = 2 sigma^2, G_m = [Gamma^(m)(x_i - x_j)], c p the scaled
        previous residual values and W the residual, a = M^{-1}(Z(x) - c p)
        and W'(x) = Z'(x) - s G_1 a; differentiating M a = Z(x) - c p gives

            da/dx   = M^{-1} (diag(W') + s G_1 diag(a)),
            dW'/dx  = diag(Z''(x) - s G_2 a) + s G_2 diag(a) - s G_1 da/dx,

        and h = 2 Re(conj(c p) W'), since W(x_j) = c p_j for every x.  Z and
        the G_m come from one table E = [e^{ik x_i}]: (Z, Z', Z'') is E times
        the block y (ik)^(0, 1, 2) / sqrt N, and G_m = Re(E diag((ik)^m / N) E^H).
        Raises _PathStop when M is not finite or its condition number
        exceeds _COND_LIMIT.
        """
        e = np.exp(1j * np.outer(x, self.k))
        g0, g1, g2 = np.real((e * self.gamma_block[:, None, :]) @ e.conj().T)
        s = self.two_s2
        m = s * g0
        if not np.all(np.isfinite(m)) or np.linalg.cond(m) > _COND_LIMIT:
            raise _PathStop("path_stop_singular_gram")
        cp = (lam / self.lam_prev) * self.prev_vals
        z0, z1, z2 = (e @ self.z_block).T
        a = np.linalg.solve(m, z0 - cp)
        w1 = z1 - s * (g1 @ a)
        da = np.linalg.solve(m, np.diag(w1) + s * g1 * a)
        dw1 = np.diag(z2 - s * (g2 @ a)) + s * g2 * a - s * (g1 @ da)
        return 2.0 * np.real(np.conj(cp) * w1), 2.0 * np.real(np.conj(cp)[:, None] * dw1), a

    def newton(self, lam, x0):
        """Solve h(lambda, .) = 0 from x0; returns (x, a) at the first x whose
        Newton step is below _NEWTON_TOL, or raises ValueError."""
        x = np.array(x0, dtype=float)
        for _ in range(30):
            h, jac, a = self.system(lam, x)
            try:
                delta = np.linalg.solve(jac, -h)
            except np.linalg.LinAlgError:
                raise ValueError("singular Jacobian")
            if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 0.1:
                raise ValueError("Newton step diverged")
            if np.max(np.abs(delta)) < _NEWTON_TOL:
                return x, a
            x = x + delta
        raise ValueError("Newton did not converge")

    def residual(self, x, a):
        """The Observation whose Z is the residual Z^(lambda) of weights a at x."""
        return _residual(self.obs, self.two_s2, x, a)

    def off_support_max(self, x, a):
        """(value, location, peak) of the maximum of |Z^(lambda)| outside the
        open merge discs around the active points; peak is the largest value
        at a peak of |Z^(lambda)| outside them (-inf where there is none).

        The peaks are those of the residual's Fourier data (knots.z_peaks on
        the event grid), started from every grid-local maximum outside the
        discs.  No peak may be skipped: one straddling two grid points can
        read below a disc-edge sample and still be the largest.  A start next
        to a disc may converge to its active point, up to h + _MERGE_RADIUS
        away: that is a maximum too, and a peak that lands inside a disc is
        dropped.  The disc boundary points are candidates themselves: the
        constrained maximum sits there when an active point is about to
        split.  Elsewhere on a leg a boundary point reads about
        lambda - O(_MERGE_RADIUS^2), so the maximum itself hardly moves until
        the knot, and peak is what the march predicts from.
        """
        res = self.residual(x, a)

        def off_discs(t):
            return np.min(np.abs(wrap_delta(t[:, None] - x[None, :])), axis=1) >= _MERGE_RADIUS

        t_peak, peak_vals, _ = z_peaks(res, _EVENT_GRID_FACTOR * self.obs.n_freq, keep=off_discs,
                                    margin=_MERGE_RADIUS)
        kept = off_discs(t_peak)
        edges = np.concatenate([x - _MERGE_RADIUS, x + _MERGE_RADIUS])
        cand = np.concatenate([t_peak[kept], edges])
        cand_vals = np.concatenate([peak_vals[kept], np.abs(z_eval(res, edges))])
        peak = float(np.max(peak_vals[kept], initial=-math.inf))
        best = int(np.argmax(cand_vals))
        return float(cand_vals[best]), float(cand[best] % (2.0 * math.pi)), peak

    def gap(self, lam, x, a):
        val, loc, _ = self.off_support_max(x, a)
        return val - lam, loc

    def candidate_gap(self, lam, x, a, cand):
        """(|Z^(lambda)(t_c)| - lambda, cand) for the crossing candidate cand =
        (t_c, edge) at the solved state (x, a), or None where it is lost.

        A peak (edge None) is re-polished from its last location t_c by
        Newton; it is lost when the polish fails, moves by more than
        track_radius or lands inside a merge disc.  A disc-boundary point
        (edge (i, +-1)) is x_i +- _MERGE_RADIUS and moves with x.
        """
        t, edge = cand
        res = self.residual(x, a)
        if edge is None:
            t_new, ok = _newton_peaks(res.rows([0]), np.array([t]), self.track_radius)
            t = float(t_new[0] % (2.0 * math.pi))
            if not ok[0] or np.min(np.abs(wrap_delta(t - x))) < _MERGE_RADIUS:
                return None
        else:
            i, sign = edge
            t = float((x[i] + sign * _MERGE_RADIUS) % (2.0 * math.pi))
        return abs(z_eval(res, t)) - lam, (t, edge)

    def run(self):
        """Track the leg until the next knot; returns (lam_k, x, a, t_new)
        or raises _PathStop.

        Each step starts Newton from the secant through the last two solved
        points, scaled to the step.  Its size is a fraction of lambda: half
        the distance to the crossing that the secant of the peak gap (the
        largest off-support peak of |Z^(lambda)| less lambda, see
        off_support_max) over the last two solved points predicts, within
        [_STEP_FLOOR, _STEP_CAP], and _STEP_FLOOR on the first step and after
        a step on which the peak gap did not rise.  Each step ends with a full
        sweep, and the first that reads a gap >= 0 brackets the knot
        (locate)."""
        lam_hi = self.lam_prev
        x_hi = self.x.copy()
        a_hi = self.system(lam_hi, x_hi)[2]
        lam_prev = x_prev = peak_hi = None
        frac = _STEP_FLOOR
        while True:
            lam_lo = lam_hi * (1.0 - frac)
            if lam_lo < self.lambda_min:
                if lam_hi > self.lambda_min:
                    lam_lo = self.lambda_min
                else:
                    raise _PathStop("reached_lambda_min")
            x0 = x_hi
            if x_prev is not None:
                x0 = x_hi + (x_hi - x_prev) * (lam_lo - lam_hi) / (lam_hi - lam_prev)
            try:
                x_lo, a_lo = self.newton(lam_lo, x0)
            except ValueError:
                frac *= 0.5
                if frac < 1e-6:
                    raise _PathStop("path_stop_singular_jacobian")
                continue
            val, t_lo, peak = self.off_support_max(x_lo, a_lo)
            if val >= lam_lo:
                return self.locate((lam_lo, x_lo, a_lo, val - lam_lo, t_lo), (lam_hi, x_hi, a_hi))
            peak_lo = peak - lam_lo
            frac = _STEP_FLOOR
            if peak_hi is not None and peak_lo > peak_hi:
                ahead = -peak_lo * (lam_hi - lam_lo) / (peak_lo - peak_hi)
                frac = min(max(0.5 * ahead / lam_lo, _STEP_FLOOR), _STEP_CAP)
            lam_prev, x_prev = lam_hi, x_hi
            lam_hi, x_hi, a_hi, peak_hi = lam_lo, x_lo, a_lo, peak_lo
            if lam_hi <= self.lambda_min:
                raise _PathStop("reached_lambda_min")

    def locate(self, lo, hi):
        """The knot in [lam_lo, lam_hi): returns (lam_k, x, a, t_new).

        lo = (lambda, x, a, gap, t) is a solved state whose off-support gap
        is >= 0 with argmax t, hi = (lambda, x, a) one whose gap is < 0.  The
        global gap has a kink at the knot (above it a flat disc-boundary
        value can lead), so while the one candidate that crosses, the argmax
        at lo (candidate_gap), reads a gap < 0 at hi, each step is Illinois
        false position on its smooth gap, 30 steps at most.  Newton for
        x(lambda), and the candidate's polish, start from the linear
        interpolation between the bracket ends.  Each point keeps 0.45 of the
        width 1e-9 lambda from both ends, so the step that lands next to the
        root also closes the bracket to that width.  One full off_support_max
        at the final hi end must confirm a gap below _GAP_ROUNDING lambda
        there (an end on the root reads +-1e-16 lambda by either route).

        Every other step halves the bracket on the global gap (_midpoint).
        Each new lo end gives a new candidate and each new hi end is
        confirmed, and the candidate is tracked at hi again: false position
        resumes once an entering peak born inside the bracket exists at hi.
        A failed confirmation (its hi end becomes lo), a Newton failure, a
        lost candidate or the 30th false-position step sends hi back to the
        lowest confirmed end, and from there the bracket is only halved.  A
        Newton failure while halving stops the path.
        """
        lam_lo, x_lo, a_lo, g_lo, t_lo = lo
        lam_hi, x_hi, a_hi = confirmed = hi  # the lowest hi end with a gap known < 0
        cand = self._crossing_candidate(x_lo, t_lo)
        g_hi = None  # the candidate's gap at hi while false position runs
        budget = 30  # false-position steps left; 0 once the search only halves
        # The end the last step replaced (+1 lo, -1 hi): replacing the same
        # end twice in a row halves the gap kept at the other (Illinois).
        moved = 0
        while True:
            if budget and g_hi is None:
                tracked = self.candidate_gap(lam_hi, x_hi, a_hi, cand)
                if tracked is not None and tracked[0] < 0.0:
                    g_hi, (t_hi, edge) = tracked
            tol = 1e-9 * lam_hi
            if not budget or g_hi is None:
                if lam_hi - lam_lo < tol:
                    return lam_lo, x_lo, a_lo, t_lo
                lam, x, a, g, t = self._midpoint(lam_lo, x_lo, lam_hi, x_hi)
                if g >= 0.0:
                    lam_lo, x_lo, a_lo, g_lo, t_lo = lam, x, a, g, t
                    cand = self._crossing_candidate(x_lo, t_lo)
                else:
                    lam_hi, x_hi, a_hi = confirmed = lam, x, a
                continue
            if lam_hi - lam_lo < tol:
                gap_hi, t_hi = self.gap(lam_hi, x_hi, a_hi)
                if gap_hi < _GAP_ROUNDING * lam_hi:
                    return lam_lo, x_lo, a_lo, t_lo
                lam_lo, x_lo, a_lo, t_lo = lam_hi, x_hi, a_hi, t_hi
                tracked = None
            else:
                lam = (lam_lo * g_hi - lam_hi * g_lo) / (g_hi - g_lo)
                lam = min(max(lam, lam_lo + 0.45 * tol), lam_hi - 0.45 * tol)
                w = (lam - lam_lo) / (lam_hi - lam_lo)
                budget -= 1
                try:
                    x, a = self.newton(lam, x_lo + w * (x_hi - x_lo))
                except ValueError:
                    tracked = None
                else:
                    t = t_lo + w * wrap_delta(t_hi - t_lo)
                    tracked = self.candidate_gap(lam, x, a, (t, edge))
                if tracked is not None:
                    g, (t, _) = tracked
                    if g >= 0.0:
                        lam_lo, x_lo, a_lo, g_lo, t_lo = lam, x, a, g, t
                        if moved == 1:
                            g_hi *= 0.5
                        moved = 1
                    else:
                        lam_hi, x_hi, a_hi, g_hi, t_hi = lam, x, a, g, t
                        if moved == -1:
                            g_lo *= 0.5
                        moved = -1
            if tracked is None or not budget:
                lam_hi, x_hi, a_hi = confirmed
                budget = 0

    @staticmethod
    def _crossing_candidate(x, t):
        """The candidate (t, edge) of candidate_gap for an off-support argmax
        t at active points x: edge (i, +-1) when t is a disc-boundary point."""
        on_edge = np.abs(wrap_delta(t - (x[:, None] + _EDGE_SIGNS * _MERGE_RADIUS))) < 1e-12
        if not on_edge.any():
            return t, None
        i, j = np.argwhere(on_edge)[0]
        return t, (int(i), float(_EDGE_SIGNS[j]))

    def _midpoint(self, lam_lo, x_lo, lam_hi, x_hi):
        """(lambda, x, a, gap, t) solved at the midpoint of a bracket, Newton
        starting from the midpoint of its ends; raises _PathStop when Newton
        fails."""
        lam = 0.5 * (lam_lo + lam_hi)
        try:
            x, a = self.newton(lam, 0.5 * (x_lo + x_hi))
        except ValueError:
            raise _PathStop("path_stop_singular_jacobian")
        return (lam, x, a) + self.gap(lam, x, a)


def lars_run(obs, sigma, opts=None):
    """The continuation path ((lambda_k, active_k, weights_k))_k; see module
    docstring.  sigma only rescales the kernel (the knots are invariant) but
    fixes the weight normalization of the printed algorithm."""
    two_s2 = 2.0 * sigma * sigma
    if not (sigma > 0 and math.isfinite(two_s2) and two_s2 >= sys.float_info.min):
        raise ValueError("sigma must be positive and finite, with 2 sigma^2 a normal float")
    opts = opts or LarsOptions()

    z_hat, lambda1 = first_knot(obs)
    t1 = z_hat.t
    knots = [LarsKnot(lam=lambda1, active=(t1,), weights=(0j,))]
    path = LarsPath(knots=knots, status="reached_k_max", sigma=sigma, f_c=obs.f_c)
    _, lambda2 = second_knot(obs, z_hat, lambda1)
    if lambda2 < max(opts.lambda_min, 1e-12 * lambda1):
        path.status = "reached_lambda_min"
        return path

    # weights at the second knot: single-point Gram K(t1,t1) = 2 sigma^2.  The
    # first leg, from lambda1 with previous residual value Z(t1), ends there.
    z_t1 = z_eval(obs, t1)
    leg = _Leg(obs, two_s2, [t1], [z_t1], lambda1, opts.lambda_min)
    lam_k, x_k = lambda2, np.array([t1])
    a_k = np.array([z_t1 * (1.0 - lambda2 / lambda1) / two_s2])
    t_new = leg.off_support_max(x_k, a_k)[1]
    while True:
        knots.append(
            LarsKnot(
                lam=lam_k,
                active=tuple(float(v % (2.0 * math.pi)) for v in x_k) + (t_new,),
                weights=tuple(complex(v) for v in a_k) + (0j,),
            )
        )
        if len(knots) == opts.k_max:
            return path
        # residual values at the next leg's active points, all of modulus lam_k
        prev_vals = np.append((lam_k / leg.lam_prev) * leg.prev_vals,
                              z_eval(leg.residual(x_k, a_k), t_new))
        leg = _Leg(obs, two_s2, np.append(x_k, t_new), prev_vals, lam_k, opts.lambda_min)
        try:
            lam_k, x_k, a_k, t_new = leg.run()
        except _PathStop as stop:
            path.status = stop.status
            return path


def lars_residual(obs, path, k, t):
    """The residual Z_k(t) = Z(t) - sum_i a_i K(t_i, t) after knot k (1-based)."""
    if not 1 <= k <= len(path.knots):
        raise IndexError("knot index %d out of range (path has %d)" % (k, len(path.knots)))
    knot = path.knots[k - 1]
    res = _residual(obs, 2.0 * path.sigma * path.sigma, np.array(knot.active),
                    np.array(knot.weights, dtype=complex))
    return z_eval(res, t)


def export_csv(path):
    """CSV rows (k, lambda, t_i, re(a_i), im(a_i)): one row per active point
    and knot, 17 significant digits."""
    lines = ["k,lambda,t_i,re_a_i,im_a_i"]
    for k, knot in enumerate(path.knots, start=1):
        for loc, a_i in zip(knot.active, knot.weights):
            lines.append(
                "%d,%s,%s,%s,%s"
                % (
                    k,
                    format(knot.lam, ".17g"),
                    format(loc, ".17g"),
                    format(a_i.real, ".17g"),
                    format(a_i.imag, ".17g"),
                )
            )
    return "\n".join(lines) + "\n"
