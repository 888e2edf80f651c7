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

tracked by a predictor-corrector scheme on the analytic path tangent.  At a
solved point the Jacobian dh/dx (_Leg.system) also gives the tangent:
dx/dlambda = -(dh/dx)^{-1} dh/dlambda and da/dlambda = da/dlambda|_x +
(da/dx) dx/dlambda, from the same solve as the Newton step.  The residual
then moves at dZ^(lambda)/dlambda = -s sum_i (da_i Gamma(t - x_i) -
a_i Gamma'(t - x_i) dx_i) (s = 2 sigma^2), so each off-support peak t_j of
|Z^(lambda)| has the gap rate Re(conj(Z^(lambda)) dZ^(lambda)/dlambda) /
|Z^(lambda)| - 1 (the t-term drops out at a peak), and the tangent predicts
where each peak's gap reaches 0.  A march step lowers lambda 10% past the
earliest such crossing of any peak, by at most 10% of lambda, and re-solves
h = 0 by Newton from x + (dx/dlambda) dlambda, halving the decrement when
Newton fails.  The Jacobian needs Z and the Gram tables G_m = [Gamma^(m)(x_i
- x_j)] up to second order at the active points, read from one e^{ikx}
table, and M is factored once per call (eigh), which gives every M^{-1}
product and the condition guard.  The next knot is the largest lambda at
which the off-support maximum of |Z^(lambda)| reaches lambda.  The residual
Z^(lambda) is itself the Z of the Fourier data y_res = y - (2 sigma^2 /
sqrt N) sum_i a_i e^{-ik x_i} (_residual), so that maximum comes from the
one route to the peaks of |Z| that the first knot also takes: knots.z_peaks
sweeps y_res on the 64N-point event grid and polishes every local maximum
outside the merge discs.  Every step ends with that sweep, whose peaks size
the next step.  Once a step's sweep reads a gap >= 0, it brackets the knot,
and one loop (_Leg.locate) narrows the bracket to a width of 1e-9 lambda:
by Newton in lambda on the gap of the one candidate that crosses (the
argmax at the lo end, a peak re-polished at each lambda or a disc-boundary
point), with the derivative the tangent gives, confirmed by one sweep at
the final upper end (a failed confirmation restarts it from the argmax
there); the bracket is halved on the global gap only where the candidate
is lost or Newton fails.
"""

import math
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .knots import _newton_peaks, _z_block, first_knot, second_knot, z_peaks
from .model import Observation, wrap_delta, z_eval

_MERGE_RADIUS = 1e-3
_COND_LIMIT = 1e14
_EDGE_SIGNS = np.array([-1.0, 1.0])
_STEP_PAST = 0.1  # a march step goes 10% past the predicted crossing
_STEP_MIN = 1e-9  # and lowers lambda by at least the knot search's width
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


class _State(NamedTuple):
    """A solved point of a leg: h(lam, x) = 0, the weights a and the path
    tangent dx = dx/dlambda, da = da/dlambda there."""

    lam: float
    x: np.ndarray
    a: np.ndarray
    dx: np.ndarray
    da: np.ndarray


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
        """(h, dh/dx, a, dh/dlambda, da/dx, da/dlambda) of the stationarity
        system at (lambda, x); the lambda-derivatives are taken at fixed x.

        With s = 2 sigma^2, G_m = [Gamma^(m)(x_i - x_j)], c p the scaled
        previous residual values (c = lambda / lambda_prev) and W the
        residual, a = M^{-1}(Z(x) - c p) and W'(x) = Z'(x) - s G_1 a;
        differentiating M a = Z(x) - c p gives

            da/dx       = M^{-1} (diag(W') + s G_1 diag(a)),
            da/dlambda  = -M^{-1} p / lambda_prev,
            dW'/dx      = diag(Z''(x) - s G_2 a) + s G_2 diag(a) - s G_1 da/dx,

        and h = 2 Re(conj(c p) W'), since W(x_j) = c p_j for every x, so
        dh/dlambda = 2 Re(conj(p / lambda_prev) W') - 2 Re(conj(c p) s G_1 da/dlambda).
        Z and the G_m come from one table E = [e^{ik x_i}]: (Z, Z', Z'') is E
        times the block y (ik)^(0, 1, 2) / sqrt N, and
        G_m = Re(E diag((ik)^m / N) E^H).  M is factored once, M = V diag(w) V^T
        (eigh), which gives every M^{-1} product and the condition guard:
        raises _PathStop when M is not finite or w_min _COND_LIMIT < w_max.
        """
        e = np.exp(1j * np.outer(x, self.k))
        g0, g1, g2 = np.real((e * self.gamma_block[:, None, :]) @ e.conj().T)
        s = self.two_s2
        try:
            w, v = np.linalg.eigh(s * g0)
        except np.linalg.LinAlgError:
            raise _PathStop("path_stop_singular_gram")
        if not w[0] * _COND_LIMIT >= w[-1]:  # also where M is not finite: nan eigenvalues
            raise _PathStop("path_stop_singular_gram")
        m_inv = (v / w) @ v.T
        dcp = self.prev_vals / self.lam_prev
        cp = lam * dcp
        z0, z1, z2 = (e @ self.z_block).T
        a = m_inv @ (z0 - cp)
        da_dlam = -(m_inv @ dcp)
        w1 = z1 - s * (g1 @ a)
        da_dx = m_inv * w1 + s * (m_inv @ g1) * a
        dw1 = np.diag(z2 - s * (g2 @ a)) + s * g2 * a - s * (g1 @ da_dx)
        h = 2.0 * np.real(np.conj(cp) * w1)
        dh_dlam = 2.0 * np.real(np.conj(dcp) * w1 - np.conj(cp) * (s * (g1 @ da_dlam)))
        return h, 2.0 * np.real(np.conj(cp)[:, None] * dw1), a, dh_dlam, da_dx, da_dlam

    def newton(self, lam, x0):
        """Solve h(lambda, .) = 0 from x0, or raise ValueError.

        Each step solves the Jacobian for the Newton step delta and for the
        path tangent dx/dlambda = -(dh/dx)^{-1} dh/dlambda together.  At the
        first x whose step is below _NEWTON_TOL the _State holds x + delta and
        a + (da/dx) delta, both exact to O(delta^2), and the tangent there,
        da/dlambda = (da/dlambda at fixed x) + (da/dx) dx/dlambda, to O(delta).
        """
        x = np.array(x0, dtype=float)
        for _ in range(30):
            h, jac, a, dh_dlam, da_dx, da_dlam = self.system(lam, x)
            try:
                delta, dx = np.linalg.solve(jac, -np.array([h, dh_dlam]).T).T
            except np.linalg.LinAlgError:
                raise ValueError("singular Jacobian")
            if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 0.1:
                raise ValueError("Newton step diverged")
            if np.max(np.abs(delta)) < _NEWTON_TOL:
                return _State(lam, x + delta, a + da_dx @ delta, dx, da_dlam + da_dx @ dx)
            x = x + delta
        raise ValueError("Newton did not converge")

    def residual(self, x, a):
        """The Observation whose Z is the residual Z^(lambda) of weights a at x."""
        return _residual(self.obs, self.two_s2, x, a)

    @staticmethod
    def off_discs(t, x):
        """Which points of t lie outside the open merge discs around x."""
        return np.min(np.abs(wrap_delta(t[:, None] - x[None, :])), axis=1) >= _MERGE_RADIUS

    def off_support_max(self, x, a):
        """(value, location, peaks) of the maximum of |Z^(lambda)| outside the
        open merge discs around the active points; peaks = (t, |Z^(lambda)(t)|)
        holds the peaks of |Z^(lambda)| outside them.

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
        the knot, and the peaks are what the march predicts from.
        """
        res = self.residual(x, a)
        t_peak, peak_vals, _ = z_peaks(res, _EVENT_GRID_FACTOR * self.obs.n_freq,
                                       keep=lambda t: self.off_discs(t, x), margin=_MERGE_RADIUS)
        kept = self.off_discs(t_peak, x)
        edges = np.concatenate([x - _MERGE_RADIUS, x + _MERGE_RADIUS])
        cand = np.concatenate([t_peak[kept], edges])
        cand_vals = np.concatenate([peak_vals[kept], np.abs(z_eval(res, edges))])
        best = int(np.argmax(cand_vals))
        return (float(cand_vals[best]), float(cand[best] % (2.0 * math.pi)),
                (t_peak[kept], peak_vals[kept]))

    def gap(self, state):
        """(off-support gap, its argmax, peak locations) of off_support_max at
        a solved state."""
        val, loc, (t_peaks, _) = self.off_support_max(state.x, state.a)
        return val - state.lam, loc, t_peaks

    def gap_rates(self, state, t, speed=0.0):
        """(|Z^(lambda)(t)| - lambda, its lambda-derivative) at every point of t
        at a solved state, for points that move at dt/dlambda = speed.

        The residual's Fourier data y_res (_residual) move along the path by
        dy = -(s / sqrt N) sum_i (da_i - i k a_i dx_i) e^{-ik x_i}, that is
        dZ^(lambda)/dlambda = -s sum_i (da_i Gamma(t - x_i) - a_i Gamma'(t - x_i) dx_i)
        at fixed t, and the rate is Re(conj(Z) (dZ/dlambda + Z' speed)) / |Z| - 1.
        At a peak of |Z^(lambda)| the t-term drops out, so peaks take speed 0.
        Z, Z' and dZ/dlambda are the rows y_res, ik y_res and dy times e^{ikt}.
        """
        y = self.residual(state.x, state.a).y
        e = np.exp(-1j * np.outer(self.k, state.x))
        sqrt_n = math.sqrt(self.obs.n_freq)
        dy = -self.two_s2 * (e @ state.da - 1j * self.k * (e @ (state.a * state.dx))) / sqrt_n
        rows = np.array([y, 1j * self.k * y, dy]) / sqrt_n
        z, z1, dz = (np.exp(1j * np.multiply.outer(t, self.k))[..., None, :] * rows).sum(axis=-1).T
        mod = np.abs(z)
        return mod - state.lam, np.real(np.conj(z) * (dz + z1 * speed)) / mod - 1.0

    def step(self, state, t_peaks):
        """The next march decrement of lambda from a solved state whose
        off-support peaks t_peaks all read below lambda: _STEP_PAST past the
        earliest crossing of lambda that the tangent predicts for any of them
        (a peak whose gap g < 0 rises as lambda falls, at a rate < 0, crosses
        after a decrement g / rate; gap_rates), at least _STEP_MIN and at most
        _STEP_CAP of lambda.
        """
        gap, rate = self.gap_rates(state, t_peaks)
        rising = (gap < 0.0) & (rate < 0.0)
        ahead = np.min(gap[rising] / rate[rising], initial=math.inf)
        return state.lam * min(max((1.0 + _STEP_PAST) * ahead / state.lam, _STEP_MIN), _STEP_CAP)

    def candidate_gap(self, state, cand):
        """(|Z^(lambda)(t_c)| - lambda, its lambda-derivative, cand) for the
        crossing candidate cand = (t_c, edge) at a solved state, or None where
        it is lost.

        A peak (edge None) is re-polished from its last location t_c by
        Newton; it is lost when the polish fails, moves by more than
        track_radius or lands inside a merge disc.  A disc-boundary point
        (edge (i, +-1)) is x_i +- _MERGE_RADIUS and moves with x_i.  The
        derivative is that of gap_rates.
        """
        t, edge = cand
        speed = 0.0
        if edge is None:
            res = self.residual(state.x, state.a)
            t_new, ok = _newton_peaks(res.rows([0]), np.array([t]), self.track_radius)
            t = float(t_new[0] % (2.0 * math.pi))
            if not ok[0] or not self.off_discs(np.array([t]), state.x)[0]:
                return None
        else:
            i, sign = edge
            t = float((state.x[i] + sign * _MERGE_RADIUS) % (2.0 * math.pi))
            speed = state.dx[i]
        gap, rate = self.gap_rates(state, np.array([t]), speed)
        return float(gap[0]), float(rate[0]), (t, edge)

    def run(self, t_peaks):
        """Track the leg until the next knot; returns (state, t_new, peaks)
        as locate does, or raises _PathStop.

        t_peaks are the off-support peaks of the last sweep at the knot the
        leg starts from; those inside the new merge disc are dropped.  Each
        step lowers lambda by the predicted decrement (step) and starts
        Newton from the tangent, x + (dx/dlambda) (lambda_lo - lambda_hi);
        a Newton failure halves the decrement.  Each step ends with a full
        sweep, whose peaks size the next step, and the first that reads a gap
        >= 0 brackets the knot (locate)."""
        try:
            hi = self.newton(self.lam_prev, self.x)
        except ValueError:
            raise _PathStop("path_stop_singular_jacobian")
        step = self.step(hi, t_peaks[self.off_discs(t_peaks, hi.x)])
        while True:
            lam_lo = hi.lam - step
            if lam_lo < self.lambda_min:
                if hi.lam > self.lambda_min:
                    lam_lo = self.lambda_min
                else:
                    raise _PathStop("reached_lambda_min")
            try:
                lo = self.newton(lam_lo, hi.x + hi.dx * (lam_lo - hi.lam))
            except ValueError:
                step *= 0.5
                if step < 1e-6 * hi.lam:
                    raise _PathStop("path_stop_singular_jacobian")
                continue
            gap, t_lo, t_peaks = self.gap(lo)
            if gap >= 0.0:
                return self.locate(lo, t_lo, hi, t_peaks)
            hi = lo
            if hi.lam <= self.lambda_min:
                raise _PathStop("reached_lambda_min")
            step = self.step(hi, t_peaks)

    def locate(self, lo, t_lo, hi, t_peaks):
        """The knot in [lam_lo, lam_hi): returns (state, t_new, peaks), the
        solved state at the knot, the entering point and the off-support
        peaks of the search's last sweep.

        lo is a solved state whose off-support gap is >= 0 with argmax t_lo
        (and peaks t_peaks), hi one whose gap is < 0.  The global gap has a
        kink at the knot (above it a flat disc-boundary value can lead), so
        the search runs on the smooth gap of the one candidate that crosses,
        the argmax at lo (candidate_gap), by Newton in lambda with the
        derivative the path tangent gives: each point is the root that the
        last point's gap and derivative predict, moved 0.45 of the width
        1e-9 lambda across it, so that the point after the one that lands
        next to the root closes the bracket to that width from the other
        side.  A prediction outside the bracket, one that moves more than
        half as far as the point before did (so the search shrinks at least
        as fast as bisection), or a derivative of the wrong sign takes the
        bracket midpoint instead; 30 points at most.  Newton for x(lambda)
        starts from the tangent at the last point, and the candidate's polish
        from its last location.  One full off_support_max at the final hi end
        must confirm a gap below _GAP_ROUNDING lambda there (an end on the
        root reads +-1e-16 lambda by either route).  A failed confirmation
        makes that end lo, with its argmax as the new candidate, and sends hi
        back to the lowest confirmed end.

        A Newton failure, a lost candidate (_track: also one that reads below
        -_GAP_ROUNDING lambda at a lo end, at odds with its sweep) or the
        30th point sends hi back to the lowest confirmed end, and from there
        the bracket is only halved on the global gap (_midpoint), each
        midpoint confirmed by its sweep.  A Newton failure while halving
        stops the path.
        """
        confirmed = hi  # the lowest hi end with a gap known < 0
        last, tracked = lo, self._track(lo, t_lo)  # the last point the candidate was read at
        moved = math.inf  # how far the last point moved from the one before
        budget = 30  # points left; 0 once the search only halves
        while True:
            tol = 1e-9 * hi.lam
            if not budget or tracked is None:
                if hi.lam - lo.lam < tol:
                    return lo, t_lo, t_peaks
                mid, g, t, t_peaks = self._midpoint(lo, hi)
                if g >= 0.0:
                    lo, t_lo = mid, t
                else:
                    hi = confirmed = mid
                continue
            if hi.lam - lo.lam < tol:
                gap_hi, t_hi, peaks = self.gap(hi)
                if gap_hi < _GAP_ROUNDING * hi.lam:
                    return lo, t_lo, peaks
                lo, t_lo, t_peaks, hi = hi, t_hi, peaks, confirmed
                last, tracked, moved = lo, self._track(lo, t_lo), math.inf
                continue
            g, rate, cand = tracked
            lam = 0.5 * (lo.lam + hi.lam)
            root = last.lam - g / rate + math.copysign(0.45 * tol, g) if rate < 0.0 else lam
            if lo.lam < root < hi.lam and abs(root - last.lam) <= 0.5 * moved:
                lam = min(max(root, lo.lam + 0.45 * tol), hi.lam - 0.45 * tol)
            moved = abs(lam - last.lam)
            budget -= 1
            try:
                state = self.newton(lam, last.x + last.dx * (lam - last.lam))
            except ValueError:
                tracked = None
            else:
                tracked = self.candidate_gap(state, cand)
            if tracked is None or not budget:
                hi = confirmed
            elif tracked[0] >= 0.0:
                last, lo, t_lo = state, state, tracked[2][0]
            else:
                last, hi = state, state

    def _track(self, state, t):
        """candidate_gap at a lo end for its off-support argmax t, or None
        where the candidate is lost or reads below -_GAP_ROUNDING lambda
        there, at odds with the sweep's gap >= 0."""
        tracked = self.candidate_gap(state, self._crossing_candidate(state.x, t))
        if tracked is None or tracked[0] < -_GAP_ROUNDING * state.lam:
            return None
        return tracked

    @staticmethod
    def _crossing_candidate(x, t):
        """The candidate (t, edge) of candidate_gap for an off-support argmax
        t at active points x: edge (i, +-1) when t is a disc-boundary point."""
        on_edge = np.abs(wrap_delta(t - (x[:, None] + _EDGE_SIGNS * _MERGE_RADIUS))) < 1e-12
        if not on_edge.any():
            return t, None
        i, j = np.argwhere(on_edge)[0]
        return t, (int(i), float(_EDGE_SIGNS[j]))

    def _midpoint(self, lo, hi):
        """(state, gap, argmax, peak locations) at the midpoint of a bracket,
        Newton starting from the tangent at its lo end; raises _PathStop when
        Newton fails."""
        lam = 0.5 * (lo.lam + hi.lam)
        try:
            state = self.newton(lam, lo.x + lo.dx * (lam - lo.lam))
        except ValueError:
            raise _PathStop("path_stop_singular_jacobian")
        return (state,) + self.gap(state)


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
    _, t_new, (t_peaks, _) = leg.off_support_max(x_k, a_k)
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
            (lam_k, x_k, a_k, _, _), t_new, t_peaks = leg.run(t_peaks)
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
