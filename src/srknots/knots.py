"""Grid-less computation of the first two knots of the correlation field.

The first knot is the global maximizer of X on the 2-torus, found as the
maximizer of |Z| on the circle (theta aligns with the phase of Z).  The
second knot is lambda1 + max g where

    g(y) = (X(y) - lambda1) / (1 - rho(y - z_hat)),

the amount by which the regressed field X^{z_hat} falls short of lambda1.
Write y - z_hat = (dt, dtheta) and let w be the Fourier data rotated so that
Z(t_hat) is real (_aligned_coeffs).  Then X(y) = Re(e^{-i dtheta} a(dt)) with
a(dt) = sum_k w_k e^{ik dt} / sqrt N, and rho = Gamma(dt) cos(dtheta), so at
fixed dt the maximum of g over dtheta is the root of a quadratic
(_theta_profile).  second_knot therefore searches dt alone.  As dt -> 0 the
profile tends to the top eigenvalue of Lt^{-1/2} R Lt^{-1/2} minus lambda1
(_profile_limit), the value of g along its best direction out of z_hat.

Every coarse sweep is one zero-padded FFT (_uniform_sums).  The maxima of
|Z| have one route, z_peaks: that sweep, Newton on every grid-local maximum
at once (_newton_peaks), and Newton kept inside a bracket
(numerics.maximize_bracketed) for the starts where plain Newton fails.
first_knot reads the global maximum from it, and the LARS continuation the
peaks of each residual outside its merge discs.  The maxima of the profile
take the same bracketed Newton polish, on its analytic m' and m''.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProcess, NotAMaximum, row_errors
from .model import TorusPoint, _aligned_coeffs, wrap_angle, wrap_delta, z_eval
from .numerics import maximize_bracketed

# The first knot's coarse |Z| sweep takes this many points per frequency.
FIRST_KNOT_GRID_FACTOR = 32


@dataclass(frozen=True)
class KnotCertificate:
    """The knots and local geometry of one observation.

    R = X''(z_hat) + Lambda-tilde * lambda1 = [[-alpha2, alpha3], [alpha3, 0]]
    is the Hessian remainder at the first knot; its theta-theta entry vanishes
    identically because X_thth = -X.
    """

    z_hat: TorusPoint
    lambda1: float
    y_hat: TorusPoint
    lambda2: float
    R: np.ndarray
    alpha2: float
    alpha3: float
    grad_norm_at_zhat: float


def _uniform_sums(coef, n_points):
    """sum_k coef_k e^{i k t_j} at t_j = 2 pi j / n_points for k = -f_c..f_c
    along the last axis of coef: one unnormalized inverse FFT of a zero
    buffer holding coef_k at index k mod n_points, so no phase factor."""
    n = coef.shape[-1]
    buf = np.zeros(coef.shape[:-1] + (n_points,), dtype=complex)
    buf[..., np.arange(-(n // 2), n // 2 + 1) % n_points] = coef
    return np.fft.ifft(buf, norm="forward")


def _local_max_mask_1d(vals):
    """Grid-local maxima of each periodic sequence along the last axis: the
    right end of each plateau; -inf entries are never one, and a sequence
    whose finite entries are flat to 1e-12 of their largest magnitude (a
    constant, up to the rounding of its sweep) has none."""
    padded = np.concatenate([vals[..., -1:], vals, vals[..., :1]], axis=-1)
    finite = np.isfinite(vals)
    mask = finite & (vals >= padded[..., :-2]) & (vals > padded[..., 2:])
    top = np.max(vals, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    bottom = np.min(vals, axis=-1, keepdims=True, where=finite, initial=np.inf)
    return mask & (top - bottom > 1e-12 * np.maximum(np.abs(top), np.abs(bottom)))


def _z_block(obs):
    """(k, the (..., N, 3) block y * (ik)^(0, 1, 2) / sqrt N)."""
    k = np.arange(-obs.f_c, obs.f_c + 1)
    return k, obs.y[..., None] * (1j * k[:, None]) ** np.arange(3) / math.sqrt(obs.n_freq)


def _modulus_sq(k, block, t):
    """|Z|^2 and its first two t-derivatives at all of t, from Z, Z' and Z''
    as the exp(i k t) row at each point times the block (_z_block); a block
    with a row per point broadcasts along the last axis of t."""
    z = (np.exp(1j * t[..., None] * k)[..., None] * block).sum(axis=-2)
    z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
    return (np.abs(z0) ** 2, 2.0 * (z0.conj() * z1).real,
            2.0 * (np.abs(z1) ** 2 + (z0.conj() * z2).real))


def _newton_peaks(obs, t0, radius):
    """Newton on d|Z|^2/dt = 0 from every start in t0 at once; obs is a
    stack with one row per start.

    Each iteration takes f = |Z|^2, f' and f'' at all points (_modulus_sq)
    and steps by f'/f''.  A point stops once its step is below 1e-14; at
    most 8 steps are taken.  Returns (t, ok): ok is False where f'' >= 0 was
    met, where t is not finite, or where t ended more than `radius` from its
    start.
    """
    k, block = _z_block(obs)
    t = np.array(t0, dtype=float)
    ok = np.ones(t.size, dtype=bool)
    active = ok.copy()
    for _ in range(8):
        _, f1, f2 = _modulus_sq(k, block[active], t[active])
        concave = f2 < 0.0
        step = np.divide(f1, f2, out=np.zeros_like(f1), where=concave)
        t[active] -= step
        ok[active] &= concave
        active[active] = concave & (np.abs(step) >= 1e-14)
        if not active.any():
            break
    ok &= np.isfinite(t) & (np.abs(t - t0) <= radius)
    return t, ok


def z_peaks(obs, n_points, keep=None, margin=0.0):
    """Every local maximum of |Z| of each row: returns (t, |Z(t)|, row).

    |Z| is swept on n_points grid points t_j = h j (h = 2 pi / n_points) by
    one zero-padded FFT of the stack (_uniform_sums).  The grid-local maxima
    among the points where keep(t_j) holds (all of them when keep is None)
    are polished together by Newton on d|Z|^2/dt = 0 (_newton_peaks), which
    may move each up to h + margin from its start.  Newton reaches the
    rounding floor of the gradient in two or three steps; a search on values
    alone would stall at sqrt(eps).  The starts on which Newton meets
    f'' >= 0, ends non-finite or moves too far go together to Newton kept
    inside the bracket (t_j - h, t_j, t_j + h) on |Z|^2
    (numerics.maximize_bracketed), which may end at a bracket end where |Z|
    rises out of it.  Every peak is polished on its own row of the data, so
    its value does not depend on the other rows of the stack.
    """
    h = 2.0 * math.pi / n_points
    t_grid = h * np.arange(n_points)
    swept = np.abs(_uniform_sums(np.atleast_2d(obs.y), n_points)) / math.sqrt(obs.n_freq)
    masked = swept if keep is None else np.where(keep(t_grid), swept, -np.inf)
    rows, cols = np.nonzero(_local_max_mask_1d(masked))
    t0 = t_grid[cols]
    starts = obs.rows(rows)  # a stack: one row per start
    t_star, ok = _newton_peaks(starts, t0, h + margin)

    refused = ~ok
    if refused.any():
        k, block = _z_block(starts.rows(refused))
        t_star[refused] = maximize_bracketed(lambda t: _modulus_sq(k, block, t),
                                             t0[refused] - h, t0[refused], t0[refused] + h)[0]
    return t_star, np.abs(z_eval(starts, t_star)), rows


_DEGENERATE = "|Z| is constant to within 1e-12: no isolated maximizer exists"


def _winners(rows, vals, t, n_rows, scale=None):
    """The winner of each row among the candidates (rows, vals, t), the rule
    of both knots: the largest value first, then the smallest t among the
    values within 1e-9 scale of it (scale per row; the largest value itself
    when None), then the earlier candidate.  Returns per row (the largest
    value, the winner's t, the winner's index): -inf, inf and -1 on a row
    with no such candidate."""
    best = np.full(n_rows, -np.inf)
    np.maximum.at(best, rows, vals)
    scale = best if scale is None else scale
    tied = vals >= best[rows] - 1e-9 * scale[rows]
    t_win = np.full(n_rows, np.inf)
    np.fmin.at(t_win, rows[tied], t[tied])
    at_min = np.flatnonzero(tied & (t == t_win[rows]))
    win = np.full(n_rows, rows.size)
    np.minimum.at(win, rows[at_min], at_min)
    return best, t_win, np.where(win < rows.size, win, -1)


def _first_knots(obs):
    """(t_hat, theta_hat, lambda1, degenerate) of each row of the stack obs;
    see first_knot.  A degenerate row holds the values at t_hat = 0, which
    mean nothing."""
    n_rows = np.atleast_2d(obs.y).shape[0]
    t_star, vals, rows = z_peaks(obs, FIRST_KNOT_GRID_FACTOR * obs.n_freq)
    best, t_hat, _ = _winners(rows, vals, t_star % (2.0 * math.pi), n_rows)
    degenerate = np.isinf(best)
    t_hat[degenerate] = 0.0
    z_at = z_eval(obs, t_hat)
    return t_hat, np.arctan2(z_at.imag, z_at.real) % (2.0 * math.pi), np.abs(z_at), degenerate


def first_knot(obs):
    """Locate the global maximizer of X: t_hat maximizes |Z|, theta_hat = arg Z(t_hat).

    Every local maximum of |Z| comes from z_peaks on a sweep of
    FIRST_KNOT_GRID_FACTOR * N points, which brackets each in (t0 - h, t0 + h).
    The largest polished value wins, and ties within 1e-9 of it (relative)
    go to the smallest t (_winners).  A sweep without a grid-local maximum (|Z|
    constant to 1e-12 of its largest value, _local_max_mask_1d) raises
    DegenerateProcess.  It is the stacked route (_first_knots) on a stack
    of one.
    """
    t_hat, theta_hat, lambda1, degenerate = _first_knots(obs)
    if degenerate[0]:
        raise DegenerateProcess(_DEGENERATE)
    return TorusPoint.make(t_hat[0], theta_hat[0]), float(lambda1[0])


def _larger_root(u, q, e, f):
    """Larger root of v m^2 + 2 u m + q = 0 (u > 0, q >= 0) whose
    discriminant u^2 - v q equals e^2 + f^2, as -q / (u + hypot(e, f)),
    and the square root hypot(e, f) of the discriminant.

    Neither step cancels, not even at a double root (a noiseless spike)."""
    root = np.hypot(e, f)
    return -q / (u + root), root


def _profile_at(lambda1, sums):
    """The theta-profile (_theta_profile) from its sums: (m, the maximizing
    dtheta) from the rows lambda1 - a1, 1 - c and a2, and (m, m', m'',
    dtheta) when sums also holds the rows a1', c', a2', a1'', c'', a2''."""
    d1, one_minus_c, a2, *slopes = sums
    a1 = lambda1 - d1
    c = 1.0 - one_minus_c
    m, root = _larger_root(d1 + a1 * one_minus_c, d1 * (lambda1 + a1) - a2 * a2,
                           lambda1 * one_minus_c - d1, a2 * np.sqrt(one_minus_c * (1.0 + c)))
    p = a1 + m * c                                            # Re(b)
    if not slopes:
        return m, np.arctan2(a2, p)
    a1_1, c_1, a2_1, a1_2, c_2, a2_2 = slopes
    inv_root = 1.0 / np.where(root > 0.0, root, np.inf)
    slope = a1_1 + c_1 * m
    m1 = (p * slope + a2 * a2_1) * inv_root
    p1 = slope + c * m1
    curv = (p1 * p1 + a2_1 * a2_1 - m1 * m1 + p * (a1_2 + c_2 * m + 2.0 * c_1 * m1)
            + a2 * a2_2)
    return m, m1, curv * inv_root, np.arctan2(a2, p)


def _theta_profile(w, lambda1):
    """The profile m(dt) = max over dtheta of g at fixed dt != 0, as a function
    profile(dt) -> (m, m', m'', the maximizing dtheta) of an array dt.  With
    w of shape (B, N) and lambda1 of shape (B,), one profile per row, and
    the last axis of dt runs over the rows.

    With a = a1 + i a2 = sum_k w_k e^{ik dt} / sqrt N and c = Gamma(dt), m is
    the larger root of

        (1 - c^2) m^2 + 2 (lambda1 - a1 c) m + (lambda1^2 - |a|^2) = 0,

    whose discriminant is (lambda1 (1 - c) - (lambda1 - a1))^2 + a2^2 (1 - c^2);
    it is attained at dtheta = arg b with b = a + m c (_profile_at).  The
    coefficients vanish like dt^2, so they are assembled from
    sin^2(k dt / 2) sums, which carry no cancellation: lambda1 - a1, 1 - c
    (the sinc identity), and lambda1^2 - |a|^2 = (lambda1 - a1)(lambda1 + a1) - a2^2.

    The quadratic reads (lambda1 + m)^2 = |b|^2, so implicit differentiation
    gives r m' = Re(conj(b) (a' + c' m)) and
    r m'' = |b'|^2 - m'^2 + Re(conj(b) (a'' + c'' m + 2 c' m')), where
    b' = a' + c' m + c m' and r = lambda1 + m - c Re(b) is the square root of
    the discriminant (so r m' is -(v' m^2 + 2 u' m + q') / 2 for the
    quadratic v m^2 + 2 u m + q above).  Where r = 0 (the flat profile of a
    noiseless spike) m' and m'' read 0.

    Every sum is one row of products, summed: each of a1, a2, c and their
    first two derivatives is sum (C_k cos k dt + S_k sin k dt) = sum C_k -
    2 sum C_k sin^2(k dt / 2) + sum S_k sin k dt, with C, S read off
    (1, ik, -k^2) w_k / sqrt N and (1, ik, -k^2) / N.  The constant sums of
    a1 and c are lambda1 (up to the first knot's rounding) and 1, so those
    two rows give lambda1 - a1 and 1 - c without their constants.
    """
    n = w.shape[-1]
    k = np.arange(-(n // 2), n // 2 + 1)
    ik_pow = np.array([np.ones(n), 1j * k, -k * k])
    a_pow = ik_pow * (w[..., None, :] / math.sqrt(n))           # a, a', a''
    c_pow = np.broadcast_to(ik_pow / n, a_pow.shape)            # c, c', c''
    # rows a1, c, a2, then their first and then their second derivatives
    rows = a_pow.shape[:-2] + (9, n)
    cos_part = np.stack([a_pow.real, c_pow.real, a_pow.imag], axis=-2).reshape(rows)
    sin_part = np.stack([-a_pow.imag, -c_pow.imag, a_pow.real], axis=-2).reshape(rows)
    basis = np.concatenate([-2.0 * cos_part, sin_part], axis=-1)
    const = cos_part.sum(axis=-1)
    basis[..., :2, :] *= -1.0
    const[..., :2] = 0.0

    def profile(dt):
        kdt = dt[..., None] * k
        trig = np.concatenate([np.sin(0.5 * kdt) ** 2, np.sin(kdt)], axis=-1)
        sums = (trig[..., None, :] * basis).sum(axis=-1) + const
        return _profile_at(lambda1, np.moveaxis(sums, -1, 0))

    return profile


def _local_moments(w):
    """(x0, beta, alpha3) = sum (1, k^2, k) Re(w_k) / sqrt N for the aligned
    coefficients w (_aligned_coeffs), along the last axis; see
    hessian_and_alphas."""
    k = np.arange(w.shape[-1]) - w.shape[-1] // 2
    sqrt_n = math.sqrt(w.shape[-1])
    re = w.real
    return re.sum(axis=-1) / sqrt_n, (re * (k * k)).sum(axis=-1) / sqrt_n, (re * k).sum(axis=-1) / sqrt_n


def _profile_limit(w, lambda1):
    """The dt -> 0 limit of the profile: the top eigenvalue of
    Lt^{-1/2} R Lt^{-1/2} minus lambda1, for each row of w.

    It is the larger root of the dt^2 coefficients of the profile quadratic,
    alpha1 m^2 + (beta + alpha1 lambda1) m + (lambda1 beta - alpha3^2) = 0 with
    beta = alpha2 + alpha1 lambda1 = -X_tt(z_hat), which is the characteristic
    equation of that matrix shifted by lambda1.
    """
    f_c = w.shape[-1] // 2
    alpha1 = f_c * (f_c + 1) / 3.0
    _, beta, alpha3 = _local_moments(w)
    return _larger_root(0.5 * (beta + alpha1 * lambda1), lambda1 * beta - alpha3 * alpha3,
                        0.5 * (alpha1 * lambda1 - beta), alpha3 * math.sqrt(alpha1))[0]


def _second_knots(w, t_hat, theta_hat, lambda1):
    """(t, theta, lambda2) of the second knot of each row of a stack whose
    first knots are (t_hat, theta_hat) and lambda1, from its aligned
    coefficients w (_aligned_coeffs); see second_knot."""
    n_rows, n = w.shape
    n_grid, half = 16 * n, 8 * n
    h = 2.0 * math.pi / n_grid
    # a at dt = h, 2h, ..., (half - 1) h, then -half h, ..., -h on each row, and Gamma
    sums = _uniform_sums(np.concatenate([w / math.sqrt(n), np.full((1, n), 1.0 / n)]), n_grid)
    a_dt, c_dt = sums[:-1, 1:], sums[-1, 1:]
    l1 = lambda1[:, None]
    swept = _profile_at(l1, (l1 - a_dt.real, 1.0 - c_dt.real, a_dt.imag))[0]
    limit = _profile_limit(w, lambda1)
    prof = np.concatenate([swept[:, half - 1:], limit[:, None], swept[:, :half - 1]], axis=1)

    is_max = _local_max_mask_1d(prof)
    is_max[np.arange(n_rows), np.argmax(prof, axis=1)] = True  # a flat profile has no strict maximum
    near_top = is_max & (prof >= prof.max(axis=1, keepdims=True) - 1e-2 * l1)
    order = np.argsort(np.where(near_top, -prof, np.inf), axis=1, kind="stable")[:, :6]
    rows, slot = np.nonzero(np.take_along_axis(near_top, order, axis=1))
    idx = order[rows, slot]

    gap = 1e-3 * h
    mid = h * (idx - half)  # h times whole offsets: the neighbours of dt = 0 read exactly -h, h
    before, at, after = prof[rows, idx - 1], prof[rows, idx], prof[rows, (idx + 1) % n_grid]
    bend = before - 2.0 * at + after
    start = mid + 0.5 * h * np.divide(before - after, bend, out=np.zeros_like(bend),
                                      where=bend < 0.0)
    split = np.abs(mid) <= h
    a = np.concatenate([mid - h, np.full(np.count_nonzero(split), gap)])
    c = np.concatenate([np.where(split, -gap, mid + h), mid[split] + h])
    start = np.concatenate([start, start[split]])
    owner = np.concatenate([rows, rows[split]])
    keep = c > a
    a, c, start, owner = a[keep], c[keep], start[keep], owner[keep]
    b = np.where((a < start) & (start < c), start, 0.5 * (a + c))
    profile = _theta_profile(w[owner], lambda1[owner])
    x, m, _, _, dth = maximize_bracketed(profile, a, b, c)

    # the limit stands in, at dt = 0, for each row with a bracket around 0
    has_split = np.zeros(n_rows, dtype=bool)
    has_split[rows[split]] = True
    every = np.arange(n_rows)
    cand_row = np.concatenate([owner, every])
    dts = np.concatenate([wrap_delta(x), np.zeros(n_rows)])
    dths = np.concatenate([dth, np.zeros(n_rows)])
    vals = np.concatenate([m, np.where(has_split, limit, -np.inf)])
    g_best, _, win = _winners(cand_row, vals, (dts + t_hat[cand_row]) % (2.0 * math.pi), n_rows,
                              lambda1)

    lambda2 = lambda1 + np.minimum(np.maximum(g_best, -lambda1), 0.0)
    return wrap_angle(t_hat + dts[win]), wrap_angle(theta_hat + dths[win]), lambda2


def second_knot(obs, z_hat, lambda1):
    """The second knot: lambda2 = lambda1 + max_y g(y), y_hat the maximizer.

    The maximum over dtheta is closed-form (_theta_profile), so only dt is
    searched: the profile on a uniform 16N-point dt grid brackets the local
    maxima.  One zero-padded FFT (_uniform_sums) sweeps a(dt) and Gamma(dt)
    there; the grid point dt = 0, where the profile reads 0/0, holds the
    limit value (_profile_limit).  The grid-local maxima within 1e-2 lambda1
    of the best (at most six) are polished together by Newton on the
    profile's analytic m' and m'', kept inside each bracket
    (numerics.maximize_bracketed), each from the vertex of the parabola
    through its three grid values.  The profile is smooth through dt = 0,
    but there its coefficients shrink to the rounding level of the first
    knot's stationarity, so a bracket that holds 0 splits into (lo, -gap)
    and (gap, hi) around it, with gap = 1e-3 of a grid step h, each started
    from its midpoint where the vertex falls outside it, and the limit
    stands in as one more candidate, attained at y_hat = z_hat.  Ties within
    1e-9 lambda1 go to the smallest t (_winners, the first knot's rule).
    The result is clamped to [0, lambda1]: g <= 0 always, and the
    theta-circle guarantees max g >= -lambda1, so any excursion is
    floating-point noise.  It is the stacked route (_second_knots) on a
    stack of one, all of whose brackets take one maximize_bracketed call.
    """
    t_hat, theta_hat = np.array([z_hat.t]), np.array([z_hat.theta])
    t, theta, lambda2 = _second_knots(_aligned_coeffs(obs, (t_hat, theta_hat)), t_hat, theta_hat,
                                      np.array([float(lambda1)]))
    return TorusPoint.make(t[0], theta[0]), float(lambda2[0])


def _local_geometry(w, lambda1, alpha1):
    """(alpha2, alpha3, |grad X(z_hat)|, errors) of each row of a stack at
    its first knot, from its aligned coefficients w (_aligned_coeffs);
    errors holds per row the NotAMaximum that hessian_and_alphas raises, or
    None."""
    k = np.arange(w.shape[-1]) - w.shape[-1] // 2
    x0, beta, alpha3 = _local_moments(w)
    sqrt_n = math.sqrt(w.shape[-1])
    alpha2 = (w.real * (k**2 - alpha1)).sum(axis=-1) / sqrt_n
    # grad X(z_hat) = (X_t, X_theta) = (-sum k Im w_k, sum Im w_k) / sqrt N
    grad_norm = np.hypot((w.imag * k).sum(axis=-1), w.imag.sum(axis=-1)) / sqrt_n
    mismatch = max(1.0, alpha1) * np.abs(x0 - lambda1)
    errors = row_errors(~((x0 > 0.0) & (beta * x0 > alpha3 * alpha3)), lambda i: NotAMaximum(
        "-X''(z_hat) = [[%g, %g], [%g, %g]] is not positive definite; "
        "z_hat is not a strict maximum" % (beta[i], -alpha3[i], -alpha3[i], x0[i])))
    errors = row_errors(mismatch > 1e-9 * lambda1, lambda i: NotAMaximum(
        "alpha formulas disagree with the analytic Hessian by %g" % (mismatch[i],)), errors)
    return alpha2, alpha3, grad_norm, errors


def _remainder(alpha2, alpha3):
    """R = [[-alpha2, alpha3], [alpha3, 0]] for each pair."""
    return np.stack([np.stack([-alpha2, alpha3], axis=-1),
                     np.stack([alpha3, np.zeros_like(alpha3)], axis=-1)], axis=-2)


def hessian_and_alphas(obs, z_hat, lambda1):
    """alpha2, alpha3 and the remainder R = X''(z_hat) + Lambda-tilde*lambda1.

    With w_k = y_k e^{i(k t_hat - theta_hat)} (_aligned_coeffs),

        alpha2 = (1/sqrt N) sum (k^2 - alpha1) Re(w_k),
        alpha3 = (1/sqrt N) sum k Re(w_k),       R = [[-alpha2, alpha3], [alpha3, 0]].

    The Hessian is read off the same coefficients: with x0 = X(z_hat) =
    sum Re(w_k) / sqrt N and beta = -X_tt(z_hat) = sum k^2 Re(w_k) / sqrt N,
    -X''(z_hat) = [[beta, -alpha3], [-alpha3, x0]].  So R equals
    X''(z_hat) + Lambda-tilde*lambda1 up to max(1, alpha1) |x0 - lambda1|,
    which must not exceed 1e-9 lambda1 (z_hat and lambda1 belong together),
    and -X''(z_hat) is positive definite iff x0 > 0 and beta x0 > alpha3^2.
    Either failure raises NotAMaximum.  It is the stacked route
    (_local_geometry) on a stack of one.
    """
    w = _aligned_coeffs(obs, (np.array([z_hat.t]), np.array([z_hat.theta])))
    alpha2, alpha3, _, errors = _local_geometry(w, np.array([lambda1]), obs.context().alpha1)
    if errors[0] is not None:
        raise errors[0]
    return _remainder(alpha2, alpha3)[0], float(alpha2[0]), float(alpha3[0])


def compute_certificates(obs):
    """The certificate of each row of the stack obs, and per row the
    SrknotsError that stopped it (None where none did).

    The certificate holds one array per field over all rows (z_hat and
    y_hat as TorusPoints of arrays, R as an (R, 2, 2) array); a row that
    failed reads nan.  The first knots of the stack come first; the local
    geometry and the second knots are taken on the rows that have one, from
    one pass of their aligned coefficients (_aligned_coeffs).
    Every quantity of a row is computed from that row alone, so it does not
    depend on the stack it came in.
    """
    t_hat, theta_hat, lambda1, degenerate = _first_knots(obs)
    errors = row_errors(degenerate, lambda i: DegenerateProcess(_DEGENERATE))
    fields = np.full((6, len(errors)), np.nan)  # alpha2, alpha3, grad, t_y, theta_y, lambda2
    live = np.flatnonzero(~degenerate)
    if live.size:
        w = _aligned_coeffs(obs.rows(live), (t_hat[live], theta_hat[live]))
        alpha2, alpha3, grad_norm, geometry = _local_geometry(w, lambda1[live],
                                                              obs.context().alpha1)
        fields[:3, live] = alpha2, alpha3, grad_norm
        for i, err in zip(live, geometry):
            errors[i] = err
        good = np.array([err is None for err in geometry])
        live = live[good]
        if live.size:
            fields[3:, live] = _second_knots(w[good], t_hat[live], theta_hat[live], lambda1[live])
    bad = np.array([err is not None for err in errors])
    t_hat, theta_hat, lambda1 = (np.where(bad, np.nan, v) for v in (t_hat, theta_hat, lambda1))
    alpha2, alpha3, grad_norm, t_y, theta_y, lambda2 = fields
    cert = KnotCertificate(
        z_hat=TorusPoint(t_hat, theta_hat),
        lambda1=lambda1,
        y_hat=TorusPoint(t_y, theta_y),
        lambda2=lambda2,
        R=_remainder(alpha2, alpha3),
        alpha2=alpha2,
        alpha3=alpha3,
        grad_norm_at_zhat=grad_norm,
    )
    return cert, errors


def compute_certificate(obs):
    """Full knot computation: first knot, second knot, Hessian remainder;
    the stacked route (compute_certificates) on a stack of one, which raises
    the error that stopped it."""
    cert, errors = compute_certificates(obs)
    if errors[0] is not None:
        raise errors[0]
    return KnotCertificate(
        z_hat=TorusPoint.make(cert.z_hat.t[0], cert.z_hat.theta[0]),
        lambda1=float(cert.lambda1[0]),
        y_hat=TorusPoint.make(cert.y_hat.t[0], cert.y_hat.theta[0]),
        lambda2=float(cert.lambda2[0]),
        R=cert.R[0],
        alpha2=float(cert.alpha2[0]),
        alpha3=float(cert.alpha3[0]),
        grad_norm_at_zhat=float(cert.grad_norm_at_zhat[0]),
    )
