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

from .errors import DegenerateProcess, NotAMaximum
from .model import TorusPoint, _aligned_coeffs, wrap_delta, z_eval
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
    """Grid-local maxima of a periodic sequence: the right end of each
    plateau; -inf entries are never one, and a sequence whose finite entries
    are flat to 1e-12 of their largest magnitude (a constant, up to the
    rounding of its sweep) has none."""
    padded = np.concatenate([vals[-1:], vals, vals[:1]])
    finite = np.isfinite(vals)
    mask = finite & (vals >= padded[:-2]) & (vals > padded[2:])
    if mask.any():
        top, bottom = vals[mask].max(), vals[finite].min()
        mask &= top - bottom > 1e-12 * max(abs(top), abs(bottom))
    return mask


def _z_block(obs):
    """(k, the (N, 3) block y * (ik)^(0, 1, 2) / sqrt N)."""
    k = np.arange(-obs.f_c, obs.f_c + 1)
    return k, obs.y[:, None] * (1j * k[:, None]) ** np.arange(3) / math.sqrt(obs.n_freq)


def _modulus_sq(k, block, t):
    """|Z|^2 and its first two t-derivatives at all of t, from Z, Z' and Z''
    as one exp(i k t) matrix times the block (_z_block)."""
    z0, z1, z2 = (np.exp(1j * np.outer(t, k)) @ block).T
    return (np.abs(z0) ** 2, 2.0 * (z0.conj() * z1).real,
            2.0 * (np.abs(z1) ** 2 + (z0.conj() * z2).real))


def _newton_peaks(obs, t0, radius):
    """Newton on d|Z|^2/dt = 0 from every start in t0 at once.

    Each iteration takes f = |Z|^2, f' and f'' at all points from one
    product (_modulus_sq) and steps by f'/f''.  A point stops once its step
    is below 1e-14; at most 8 steps are taken.  Returns (t, ok): ok is False where
    f'' >= 0 was met, where t is not finite, or where t ended more than
    `radius` from its start.
    """
    k, block = _z_block(obs)
    t = np.array(t0, dtype=float)
    ok = np.ones(t.size, dtype=bool)
    active = ok.copy()
    for _ in range(8):
        _, f1, f2 = _modulus_sq(k, block, t[active])
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
    """Every local maximum of |Z|: returns (t, |Z(t)|).

    |Z| is swept on n_points grid points t_j = h j (h = 2 pi / n_points) by
    one zero-padded FFT (_uniform_sums).  The grid-local maxima among the
    points where keep(t_j) holds (all of them when keep is None) are polished
    together by Newton on d|Z|^2/dt = 0 (_newton_peaks), which may move each
    up to h + margin from its start.  Newton reaches the rounding floor of
    the gradient in two or three steps; a search on values alone would stall
    at sqrt(eps).  The starts on which Newton meets f'' >= 0, ends non-finite
    or moves too far go together to Newton kept inside the bracket
    (t_j - h, t_j, t_j + h) on |Z|^2 (numerics.maximize_bracketed), which
    may end at a bracket end where |Z| rises out of it.
    """
    h = 2.0 * math.pi / n_points
    t_grid = h * np.arange(n_points)
    swept = np.abs(_uniform_sums(obs.y, n_points)) / math.sqrt(obs.n_freq)
    masked = swept if keep is None else np.where(keep(t_grid), swept, -np.inf)
    t0 = t_grid[_local_max_mask_1d(masked)]
    t_star, ok = _newton_peaks(obs, t0, h + margin)

    refused = ~ok
    if refused.any():
        k, block = _z_block(obs)
        t_star[refused] = maximize_bracketed(lambda t: _modulus_sq(k, block, t),
                                             t0[refused] - h, t0[refused], t0[refused] + h)[0]
    return t_star, np.abs(z_eval(obs, t_star))


def first_knot(obs):
    """Locate the global maximizer of X: t_hat maximizes |Z|, theta_hat = arg Z(t_hat).

    Every local maximum of |Z| comes from z_peaks on a sweep of
    FIRST_KNOT_GRID_FACTOR * N points, which brackets each in (t0 - h, t0 + h).
    The largest polished value wins, and ties within 1e-9 of it (relative)
    go to the smallest t.  A sweep without a grid-local maximum (|Z|
    constant to 1e-12 of its largest value, _local_max_mask_1d) raises
    DegenerateProcess.
    """
    t_star, vals = z_peaks(obs, FIRST_KNOT_GRID_FACTOR * obs.n_freq)
    if t_star.size == 0:
        raise DegenerateProcess(
            "|Z| is constant to within 1e-12: no isolated maximizer exists"
        )
    best = vals.max()
    tied = vals >= best - 1e-9 * best
    t_hat = float(np.min(t_star[tied] % (2.0 * math.pi)))
    z_at = z_eval(obs, t_hat)
    lambda1 = abs(z_at)
    theta_hat = math.atan2(z_at.imag, z_at.real)
    return TorusPoint.make(t_hat, theta_hat), float(lambda1)


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
    profile(dt) -> (m, m', m'', the maximizing dtheta) of a 1-D array dt.

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

    Every sum is one product: each of a1, a2, c and their first two
    derivatives is sum (C_k cos k dt + S_k sin k dt) = sum C_k -
    2 sum C_k sin^2(k dt / 2) + sum S_k sin k dt, with C, S read off
    (1, ik, -k^2) w_k / sqrt N and (1, ik, -k^2) / N.  The constant sums of
    a1 and c are lambda1 (up to the first knot's rounding) and 1, so those
    two rows give lambda1 - a1 and 1 - c without their constants.
    """
    n = w.size
    k = np.arange(-(n // 2), n // 2 + 1)
    ik_pow = np.array([np.ones(n), 1j * k, -k * k])
    a_pow, c_pow = ik_pow * (w / math.sqrt(n)), ik_pow / n  # a, a', a'' and c, c', c''
    # rows a1, c, a2, then their first and then their second derivatives
    cos_part = np.stack([a_pow.real, c_pow.real, a_pow.imag], axis=1).reshape(9, n)
    sin_part = np.stack([-a_pow.imag, -c_pow.imag, a_pow.real], axis=1).reshape(9, n)
    basis = np.concatenate([-2.0 * cos_part, sin_part], axis=1).T
    const = cos_part.sum(axis=1)
    basis[:, :2] *= -1.0
    const[:2] = 0.0

    def profile(dt):
        kdt = np.multiply.outer(dt, k)
        trig = np.concatenate([np.sin(0.5 * kdt) ** 2, np.sin(kdt)], axis=1)
        return _profile_at(lambda1, (trig @ basis + const).T)

    return profile


def _local_moments(w):
    """(x0, beta, alpha3) = sum (1, k^2, k) Re(w_k) / sqrt N for the aligned
    coefficients w (_aligned_coeffs); see hessian_and_alphas."""
    k = np.arange(w.size) - w.size // 2
    sqrt_n = math.sqrt(w.size)
    return (float(w.real.sum()) / sqrt_n, float((k * k) @ w.real) / sqrt_n,
            float(k @ w.real) / sqrt_n)


def _profile_limit(w, lambda1):
    """The dt -> 0 limit of the profile: the top eigenvalue of
    Lt^{-1/2} R Lt^{-1/2} minus lambda1.

    It is the larger root of the dt^2 coefficients of the profile quadratic,
    alpha1 m^2 + (beta + alpha1 lambda1) m + (lambda1 beta - alpha3^2) = 0 with
    beta = alpha2 + alpha1 lambda1 = -X_tt(z_hat), which is the characteristic
    equation of that matrix shifted by lambda1.
    """
    f_c = w.size // 2
    alpha1 = f_c * (f_c + 1) / 3.0
    _, beta, alpha3 = _local_moments(w)
    return float(_larger_root(0.5 * (beta + alpha1 * lambda1), lambda1 * beta - alpha3 * alpha3,
                              0.5 * (alpha1 * lambda1 - beta), alpha3 * math.sqrt(alpha1))[0])


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
    1e-9 lambda1 go to the smallest t.  The result is clamped to
    [0, lambda1]: g <= 0 always, and the theta-circle guarantees
    max g >= -lambda1, so any excursion is floating-point noise.
    """
    w = _aligned_coeffs(obs, z_hat)
    n, n_grid, half = obs.n_freq, 16 * obs.n_freq, 8 * obs.n_freq
    h = 2.0 * math.pi / n_grid
    # a and Gamma at dt = h, 2h, ..., (half - 1) h, then -half h, ..., -h
    a_dt, c_dt = _uniform_sums(np.stack([w / math.sqrt(n), np.full(n, 1.0 / n)]), n_grid)[:, 1:]
    swept = _profile_at(lambda1, (lambda1 - a_dt.real, 1.0 - c_dt.real, a_dt.imag))[0]
    limit = _profile_limit(w, lambda1)
    prof = np.concatenate([swept[half - 1:], [limit], swept[:half - 1]])  # at h (j - half)

    is_max = _local_max_mask_1d(prof)
    is_max[int(np.argmax(prof))] = True  # a flat profile (noiseless spike) has no strict maximum
    idx = np.nonzero(is_max & (prof >= prof.max() - 1e-2 * lambda1))[0]
    idx = idx[np.argsort(-prof[idx])[:6]]

    gap = 1e-3 * h
    mid = h * (idx - half)  # h times whole offsets: the neighbours of dt = 0 read exactly -h, h
    before, at, after = prof[idx - 1], prof[idx], prof[(idx + 1) % n_grid]
    bend = before - 2.0 * at + after
    start = mid + 0.5 * h * np.divide(before - after, bend, out=np.zeros_like(bend),
                                      where=bend < 0.0)
    split = np.abs(mid) <= h
    a = np.concatenate([mid - h, np.full(np.count_nonzero(split), gap)])
    c = np.concatenate([np.where(split, -gap, mid + h), mid[split] + h])
    start = np.concatenate([start, start[split]])
    keep = c > a
    a, c, start = a[keep], c[keep], start[keep]
    b = np.where((a < start) & (start < c), start, 0.5 * (a + c))
    profile = _theta_profile(w, lambda1)
    x, m, _, _, dth = maximize_bracketed(profile, a, b, c)
    dts, dths = np.append(wrap_delta(x), 0.0), np.append(dth, 0.0)
    vals = np.append(m, limit if split.any() else -np.inf)
    g_best = vals.max()
    tied = np.nonzero(vals >= g_best - 1e-9 * lambda1)[0]
    win = tied[np.argmin((dts[tied] + z_hat.t) % (2.0 * math.pi))]
    dt_star, dth_star = float(dts[win]), float(dths[win])

    g_final = min(max(g_best, -lambda1), 0.0)
    lambda2 = lambda1 + g_final
    y_hat = TorusPoint.make(z_hat.t + dt_star, z_hat.theta + dth_star)
    return y_hat, float(lambda2)


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
    Either failure raises NotAMaximum.
    """
    ctx = obs.context()
    k = np.arange(-obs.f_c, obs.f_c + 1)
    w = _aligned_coeffs(obs, z_hat)
    x0, beta, alpha3 = _local_moments(w)
    alpha2 = float((k**2 - ctx.alpha1) @ w.real / math.sqrt(obs.n_freq))
    big_r = np.array([[-alpha2, alpha3], [alpha3, 0.0]])
    if not (x0 > 0.0 and beta * x0 > alpha3 * alpha3):
        raise NotAMaximum(
            "-X''(z_hat) = [[%g, %g], [%g, %g]] is not positive definite; "
            "z_hat is not a strict maximum" % (beta, -alpha3, -alpha3, x0)
        )
    mismatch = max(1.0, ctx.alpha1) * abs(x0 - lambda1)
    if mismatch > 1e-9 * lambda1:
        raise NotAMaximum(
            "alpha formulas disagree with the analytic Hessian by %g" % (mismatch,)
        )
    return big_r, alpha2, alpha3


def compute_certificate(obs):
    """Full knot computation: first knot, second knot, Hessian remainder."""
    z_hat, lambda1 = first_knot(obs)
    y_hat, lambda2 = second_knot(obs, z_hat, lambda1)
    big_r, alpha2, alpha3 = hessian_and_alphas(obs, z_hat, lambda1)
    # grad X(z_hat) = (X_t, X_theta) = (-sum k Im w_k, sum Im w_k) / sqrt N
    w = _aligned_coeffs(obs, z_hat)
    k = np.arange(-obs.f_c, obs.f_c + 1)
    grad_norm = math.hypot(k @ w.imag, w.imag.sum()) / math.sqrt(obs.n_freq)
    return KnotCertificate(
        z_hat=z_hat,
        lambda1=lambda1,
        y_hat=y_hat,
        lambda2=lambda2,
        R=big_r,
        alpha2=alpha2,
        alpha3=alpha3,
        grad_norm_at_zhat=grad_norm,
    )
