"""First/second knots, regressed fields, and the Hessian remainder."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    NearSingular,
    brent_maximize,
    correlation,
    dense_uniform_sums,
    first_knots_every_start,
    g_ratio,
    regressed_value,
    torus_delta,
    x_eval,
    x_grad,
    x_hess,
)

from srknots import knots
from srknots.errors import DegenerateProcess, NotAMaximum
from srknots.knots import (
    FIRST_KNOT_GRID_FACTOR,
    KnotCertificate,
    _local_max_mask_1d,
    _newton_peaks,
    _profile_limit,
    _theta_profile,
    _uniform_sums,
    compute_certificate,
    compute_certificates,
    first_knot,
    hessian_and_alphas,
    second_knot,
)
from srknots.mc import evaluate_statistics
from srknots.model import (
    AtomicMeasure,
    Observation,
    _aligned_coeffs,
    synthesize,
    wrap_delta,
    z_eval,
)
from srknots.numerics import RngStream

TWO_PI = 2.0 * math.pi

# Pinned values for the observation drawn from stream (42, 0) at f_c = 3,
# sigma = 1 (the same instance the brute-force grid oracles are run on).
SEED42_LAMBDA1 = 2.086491434899153
SEED42_T_HAT = 3.6886588524899
SEED42_THETA_HAT = 2.900292084049
SEED42_LAMBDA2 = 1.7499340769574
SEED42_ALPHA2 = -2.593583982036
SEED42_ALPHA3 = 1.2152256501711


def _noisy_obs(seed, f_c=3):
    return synthesize(AtomicMeasure.empty(), f_c, 1.0, RngStream(seed, 0))


def test_first_knot_noiseless_atom():
    obs = synthesize(AtomicMeasure.from_atoms([(1.2, 2.5)]), 3, 0.0, RngStream(0))
    z_hat, lambda1 = first_knot(obs)
    assert z_hat.t == pytest.approx(1.2, abs=1e-9)
    assert min(z_hat.theta, TWO_PI - z_hat.theta) == pytest.approx(0.0, abs=1e-9)
    assert lambda1 == pytest.approx(2.5, rel=1e-12)


def test_first_knot_noiseless_atom_with_phase():
    phase = 0.9
    weight = 1.8 * complex(math.cos(phase), math.sin(phase))
    obs = synthesize(AtomicMeasure.from_atoms([(4.0, weight)]), 3, 0.0, RngStream(0))
    z_hat, lambda1 = first_knot(obs)
    assert z_hat.t == pytest.approx(4.0, abs=1e-9)
    assert z_hat.theta == pytest.approx(phase, abs=1e-9)
    assert lambda1 == pytest.approx(1.8, rel=1e-12)


def test_first_knot_pinned_instance(obs_seed42):
    z_hat, lambda1 = first_knot(obs_seed42)
    assert lambda1 == pytest.approx(SEED42_LAMBDA1, abs=1e-9)
    assert z_hat.t == pytest.approx(SEED42_T_HAT, abs=1e-6)
    assert z_hat.theta == pytest.approx(SEED42_THETA_HAT, abs=1e-6)


def test_first_knot_dominates_grid(obs_seed42):
    z_hat, lambda1 = first_knot(obs_seed42)
    t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert np.max(np.abs(z_eval(obs_seed42, t))) <= lambda1 + 1e-12
    assert abs(z_eval(obs_seed42, z_hat.t)) == pytest.approx(lambda1, rel=1e-15)


def test_first_knot_stationarity_loop():
    for seed in range(10):
        obs = _noisy_obs(900 + seed)
        z_hat, lambda1 = first_knot(obs)
        assert np.linalg.norm(x_grad(obs, z_hat)) < 1e-8 * max(lambda1, 1.0)
        assert np.all(np.linalg.eigvalsh(x_hess(obs, z_hat)) < 0)


def test_first_knot_degenerate(monkeypatch):
    # a constant |Z| has no grid-local maximum, so nothing is polished
    monkeypatch.setattr(knots, "maximize_bracketed", None)
    y = np.zeros(7, dtype=complex)
    with pytest.raises(DegenerateProcess):
        first_knot(Observation(f_c=3, y=y, sigma=1.0))
    y[3] = 2.0  # k = 0 only: |Z| is constant
    with pytest.raises(DegenerateProcess):
        first_knot(Observation(f_c=3, y=y, sigma=1.0))


@pytest.mark.parametrize("f_c, k", [(3, -1), (3, 3), (7, 4), (30, -20)])
def test_first_knot_single_frequency_is_degenerate(monkeypatch, f_c, k):
    # |Z| = |y_k| is constant, but its swept values differ by rounding: a
    # sweep flat to 1e-12 has no grid-local maximum, so nothing is polished
    monkeypatch.setattr(knots, "maximize_bracketed", None)
    y = np.zeros(2 * f_c + 1, dtype=complex)
    y[k + f_c] = 1.3 - 0.4j
    with pytest.raises(DegenerateProcess):
        first_knot(Observation(f_c=f_c, y=y, sigma=1.0))


def _spiky_obs(f_c, seed, weight, pair):
    """A noisy draw at f_c with one spike of the given weight, or with a pair
    of spikes (weight, 0.9 weight) a quarter of 2*pi/f_c apart."""
    atoms = [(1.1, weight)]
    if pair:
        atoms.append((1.1 + 0.25 * TWO_PI / f_c, 0.9 * weight * 1j))
    measure = AtomicMeasure.from_atoms(atoms) if weight else AtomicMeasure.empty()
    return synthesize(measure, f_c, 1.0, RngStream(seed, f_c))


def _circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@pytest.mark.parametrize("f_c", [1, 2, 15, 40])
def test_first_knot_matches_zero_padded_fft(f_c):
    # |Z|^2 is a trig polynomial of degree 2 f_c, so by Bernstein's inequality
    # its maximum exceeds the maximum over a grid of step h by at most
    # (1/2) (f_c h)^2 lambda1^2; the grid argmax lies within h of t_hat
    for seed, weight, pair in ((1, 0.0, False), (2, 50.0, False), (3, 1e3, False),
                               (4, 10.0, True), (5, 1e3, True)):
        obs = _spiky_obs(f_c, seed, weight, pair)
        z_hat, lambda1 = first_knot(obs)
        m = 4096 * obs.n_freq
        padded = np.zeros(m, dtype=complex)
        padded[np.arange(-f_c, f_c + 1) % m] = obs.y
        f_fft = np.abs(np.fft.ifft(padded) * m / math.sqrt(obs.n_freq)) ** 2
        h = TWO_PI / m
        gap = 1.0 - f_fft.max() / lambda1**2
        assert -1e-12 <= gap <= 0.5 * (f_c * h) ** 2
        assert _circular_distance(z_hat.t, h * int(np.argmax(f_fft))) <= h


@pytest.mark.parametrize("f_c", [1, 2, 3, 7, 30, 120])
def test_uniform_sums_match_dense_product(f_c):
    # the zero-padded FFT against the exp(i k t) matrix, at each grid size a
    # sweep takes, on one row and on a stack of rows of different scales
    n = 2 * f_c + 1
    rng = np.random.default_rng(f_c)
    coef = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * [[1.0], [1e3]]
    for n_points in (16 * n, 32 * n, 64 * n):
        for rows in (coef[0], coef):
            err = np.abs(_uniform_sums(rows, n_points) - dense_uniform_sums(rows, n_points))
            assert np.all(err <= 1e-13 * np.abs(rows).sum(axis=-1, keepdims=True))


def test_certificate_matches_dense_sweeps(monkeypatch):
    # the sweeps only bracket: with the dense product in place of the FFT,
    # lambda1 and t_hat are the same and the second knot moves by rounding
    cases = [(f_c, seed, weight, pair) for f_c in (3, 7, 15, 30)
             for seed, weight, pair in ((1, 0.0, False), (2, 0.0, False), (3, 50.0, False),
                                        (4, 1e5, False), (5, 1e3, True), (6, 1e5, True))]
    cases += [(120, 1, 0.0, False), (120, 4, 1e5, False), (120, 5, 1e3, True)]
    observations = [_spiky_obs(*case) for case in cases]
    by_fft = [compute_certificate(obs) for obs in observations]
    calls = []

    def dense(coef, n_points):
        calls.append(n_points)
        return dense_uniform_sums(coef, n_points)

    monkeypatch.setattr(knots, "_uniform_sums", dense)
    for case, obs, ref in zip(cases, observations, by_fft):
        cert = compute_certificate(obs)
        assert (cert.lambda1, cert.z_hat.t) == (ref.lambda1, ref.z_hat.t), case
        assert abs(cert.lambda2 - ref.lambda2) <= 1e-12 * ref.lambda1, case
        assert _circular_distance(cert.y_hat.t, ref.y_hat.t) <= 1e-7, case
        assert _circular_distance(cert.y_hat.theta, ref.y_hat.theta) <= 1e-7, case
    assert len(calls) == 2 * len(cases)  # the |Z| sweep and the profile's


def test_local_max_mask_1d():
    # the right end of each plateau, against the rule written with two
    # rolls; a sequence whose finite entries are flat to 1e-12 has none,
    # though rounding leaves the rolled rule some
    def rolled(v):
        return np.isfinite(v) & (v >= np.roll(v, 1)) & (v > np.roll(v, -1))

    rng = np.random.default_rng(3)
    random = rng.standard_normal(240)
    plateau = np.repeat(rng.integers(0, 5, 30).astype(float), 8)
    masked = np.where(rng.random(240) < 0.3, -np.inf, random)
    for v in (random, plateau, masked, np.roll(plateau, 3)):
        assert np.array_equal(_local_max_mask_1d(v), rolled(v))
    assert _local_max_mask_1d(np.array([5.0, 1.0, 1.0, 5.0])).tolist() == [True, False, False, False]
    flat = 3.0 + 1e-13 * rng.standard_normal(240)
    assert rolled(flat).any()
    for v in (flat, -flat, np.zeros(240), np.where(np.isinf(masked), -np.inf, flat)):
        assert not _local_max_mask_1d(v).any()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    f_c=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    weight=st.sampled_from([0.0, 5.0, 50.0, 1e3]),
    pair=st.booleans(),
    shift=st.floats(0.0, TWO_PI),
    phase=st.floats(0.0, TWO_PI),
)
def test_first_knot_translation_and_phase(f_c, seed, weight, pair, shift, phase):
    # y_k -> y_k e^{-iks} e^{i phi} makes Z(t) -> e^{i phi} Z(t - s): t_hat moves
    # by s, theta_hat by phi, and lambda1 stays
    obs = _spiky_obs(f_c, seed, weight, pair)
    k = np.arange(-f_c, f_c + 1)
    moved = Observation(f_c=f_c, y=obs.y * np.exp(1j * (phase - k * shift)), sigma=obs.sigma)
    z_hat, lambda1 = first_knot(obs)
    z_moved, lambda1_moved = first_knot(moved)
    assert lambda1_moved == pytest.approx(lambda1, rel=1e-12)
    assert _circular_distance(z_moved.t, z_hat.t + shift) < 1e-9
    assert _circular_distance(z_moved.theta, z_hat.theta + phase) < 1e-9


def _prune_stack(f_c):
    """One stack at f_c: null, high-SNR, near-collinear-pair, tied,
    noiseless, tiny-sigma and constant rows."""
    sep = 0.05 * TWO_PI / f_c
    rows = [_spiky_obs(f_c, seed, weight, pair)
            for seed, weight, pair in ((1, 0.0, False), (2, 0.0, False), (3, 0.0, False),
                                       (4, 50.0, False), (5, 1e5, False), (6, 1e3, True))]
    rows += [synthesize(AtomicMeasure.from_atoms(atoms), f_c, sigma, RngStream(seed, f_c))
             for atoms, sigma, seed in (([(2.0, 30.0), (2.0 + sep, 30.0)], 1.0, 7),
                                        ([(1.0, 2.0), (4.0, 2.0)], 0.0, 0),
                                        ([(1.2, 2.5)], 0.0, 0),
                                        ([(0.7, 1.0)], 1e-6, 8))]
    return Observation(f_c, np.stack([obs.y for obs in rows] + [np.zeros(2 * f_c + 1)]), 1.0)


@pytest.mark.parametrize("f_c", [1, 2, 3, 7, 15, 30, 60, 120])
def test_first_knot_prune_keeps_every_certificate(monkeypatch, f_c):
    # The Bernstein margin drops only starts that cannot hold lambda1: the
    # certificates match the route that polishes every grid-local maximum
    # bit for bit, errors included, and every dropped start polishes below
    # its row's lambda1 by more than the 1e-9 tie window
    obs = _prune_stack(f_c)
    n_points = FIRST_KNOT_GRID_FACTOR * obs.n_freq
    swept, rows, cols = knots._sweep_starts(obs, n_points)
    dropped = ~knots._can_hold_max(swept, rows, cols, f_c)
    _, vals, peak_rows = knots.z_peaks(obs, n_points)
    lambda1 = first_knots_every_start(obs)[2]
    assert np.array_equal(peak_rows, rows) and dropped.any()
    assert np.all(vals[dropped] < (1.0 - 1e-9) * lambda1[rows[dropped]])

    cert, errors = compute_certificates(obs)
    monkeypatch.setattr(knots, "_first_knots", first_knots_every_start)
    ref, ref_errors = compute_certificates(obs)

    def fields(c):
        return (c.z_hat.t, c.z_hat.theta, c.lambda1, c.y_hat.t, c.y_hat.theta, c.lambda2, c.R,
                c.alpha2, c.alpha3, c.grad_norm_at_zhat)

    for got, want in zip(fields(cert), fields(ref)):
        assert got.tobytes() == want.tobytes()
    assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for e in ref_errors]
    assert isinstance(errors[-1], DegenerateProcess)


def test_newton_peaks_rejects_a_convex_start():
    # from a minimum of |Z|^2 the Newton step would climb towards no maximum
    obs = _noisy_obs(77, f_c=7)
    t = np.linspace(0.0, TWO_PI, FIRST_KNOT_GRID_FACTOR * obs.n_freq, endpoint=False)
    f = np.abs(z_eval(obs, t)) ** 2
    starts = np.array([t[np.argmin(f)], t[np.argmax(f)]])
    _, ok = _newton_peaks(obs.rows([0, 0]), starts, t[1])
    assert ok.tolist() == [False, True]
    # a step out of the bracket is refused too
    _, ok = _newton_peaks(obs.rows([0]), starts[1:], 1e-12)
    assert ok.tolist() == [False]


def test_first_knot_tie_goes_to_smallest_t():
    # two equal noiseless spikes: |Z| is symmetric about their midpoint, so
    # its two maxima tie, and the one near the smaller location wins
    obs = synthesize(AtomicMeasure.from_atoms([(1.0, 2.0), (4.0, 2.0)]), 7, 0.0, RngStream(0))
    z_hat, _ = first_knot(obs)
    assert z_hat.t == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("newton", [True, False])
def test_first_knot_brent_fallback(monkeypatch, newton):
    # Refuse the sweep's Newton polish, so every grid candidate goes to the
    # bracketed maximizer.  With its Newton steps it reaches the Newton
    # answer to rounding; with them refused too it bisects on values, and
    # its value is second-order close to the Brent oracle's on the same
    # brackets while its location is good to about sqrt(eps).  Two equal
    # noiseless spikes tie, so both their starts are polished
    obs = synthesize(AtomicMeasure.from_atoms([(1.0, 2.0), (4.0, 2.0)]), 15, 0.0, RngStream(0))
    z_ref, lambda1_ref = first_knot(obs)
    real_newton, real_bracketed = knots._newton_peaks, knots.maximize_bracketed
    starts, brackets = [], []

    def refuse(obs_, t0, radius):
        t, ok = real_newton(obs_, t0, radius)
        starts.append(t0.size)
        return t, np.zeros_like(ok)

    def bracketed(fun, a, b, c):
        brackets.extend(zip(a, c))
        if newton:
            return real_bracketed(fun, a, b, c)

        def bisect_only(t):
            f, f1, _ = fun(t)
            return f, f1, np.ones_like(f)

        return real_bracketed(bisect_only, a, b, c)

    monkeypatch.setattr(knots, "_newton_peaks", refuse)
    monkeypatch.setattr(knots, "maximize_bracketed", bracketed)
    z_hat, lambda1 = first_knot(obs)
    assert len(brackets) == starts[0] >= 2 and len(starts) == 1
    all_brent = max(abs(z_eval(obs, brent_maximize(
        lambda t: abs(z_eval(obs, t)) ** 2, b, tol=1e-10)[0])) for b in brackets)
    if newton:
        assert lambda1 == pytest.approx(lambda1_ref, rel=1e-14)
        assert _circular_distance(z_hat.t, z_ref.t) < 1e-14
        assert lambda1 == pytest.approx(all_brent, rel=1e-12)
    else:
        assert lambda1 == pytest.approx(all_brent, rel=1e-14)
        assert _circular_distance(z_hat.t, z_ref.t) < 1e-7


def test_second_knot_splits_the_bracket_next_to_zero():
    # replication 690 of criterion 1's f_c = 7 run: the profile's best grid
    # point is dt = -h, so its bracket holds dt = 0 and must split there.  A
    # grid whose neighbours of 0 read h (1 + eps) missed the split, and the
    # polish then ran into dt = 0 and returned lambda2 = lambda1
    obs = synthesize(AtomicMeasure.empty(), 7, 1.0, RngStream(2113, 690).generator())
    z_hat, lambda1 = first_knot(obs)
    profile = _theta_profile(_aligned_coeffs(obs, z_hat), lambda1)
    h = TWO_PI / (16 * obs.n_freq)
    offsets = np.arange(-8 * obs.n_freq, 8 * obs.n_freq)
    offsets = offsets[offsets != 0]
    assert offsets[np.argmax(profile(h * offsets)[0])] == -1
    fine = np.linspace(-math.pi, math.pi, 20001)
    best = profile(fine[np.abs(fine) > 1e-6])[0].max()
    _, lambda2 = second_knot(obs, z_hat, lambda1)
    assert best - 1e-12 * lambda1 <= lambda2 - lambda1 <= best + 1e-5 * lambda1


def test_second_knot_noiseless_atom():
    # the profile is flat at -lambda1, where its slope reads 0/0: the
    # polish must not warn or return NaN
    obs = synthesize(AtomicMeasure.from_atoms([(2.0, 1.5)]), 3, 0.0, RngStream(0))
    z_hat, lambda1 = first_knot(obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_hat, lambda2 = second_knot(obs, z_hat, lambda1)
    assert lambda2 == pytest.approx(0.0, abs=1e-9)
    assert math.isfinite(y_hat.t) and math.isfinite(y_hat.theta)


def test_second_knot_pinned_instance(obs_seed42):
    z_hat, lambda1 = first_knot(obs_seed42)
    y_hat, lambda2 = second_knot(obs_seed42, z_hat, lambda1)
    assert lambda2 == pytest.approx(SEED42_LAMBDA2, abs=1e-6)
    assert y_hat.t == pytest.approx(0.9620256706765, abs=1e-5)


def test_second_knot_coarse_grid_oracle(obs_seed42):
    # the regressed field on a moderate grid never beats lambda2, and comes
    # close (the acceptance gate runs the fine-grid version of this oracle)
    z_hat, lambda1 = first_knot(obs_seed42)
    _, lambda2 = second_knot(obs_seed42, z_hat, lambda1)
    t = np.linspace(0.0, TWO_PI, 600, endpoint=False)
    th = np.linspace(0.0, TWO_PI, 600, endpoint=False)
    zv = z_eval(obs_seed42, t)
    x = np.real(np.outer(zv, np.exp(-1j * th)))
    from srknots.model import kernel_gamma, wrap_delta

    rho = np.outer(
        kernel_gamma(obs_seed42.f_c, wrap_delta(t - z_hat.t)),
        np.cos(th - z_hat.theta),
    )
    dt = wrap_delta(t - z_hat.t)
    dth = wrap_delta(th - z_hat.theta)
    rr = np.hypot(dt[:, None], dth[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        reg = lambda1 + (x - lambda1) / (1.0 - rho)
    reg[rr < 1e-3] = -np.inf
    grid_max = float(np.max(reg))
    assert grid_max <= lambda2 + 1e-9
    assert lambda2 - grid_max < 5e-3


def test_second_knot_bounds_loop():
    for seed in range(15):
        obs = _noisy_obs(700 + seed)
        z_hat, lambda1 = first_knot(obs)
        _, lambda2 = second_knot(obs, z_hat, lambda1)
        assert 0.0 < lambda2 < lambda1


def test_second_knot_scale_invariance():
    # (y, sigma) -> (c y, c sigma) scales both knots by c and leaves every
    # p-value as it was: the certificate's floors are relative to lambda1
    names = ["rice", "t_rice", "spacing", "grid", "t_grid", "grid_spacing_8"]
    for seed in (1, 2, 4, 55):
        obs = _noisy_obs(seed)
        z_hat, lambda1 = first_knot(obs)
        _, lambda2 = second_knot(obs, z_hat, lambda1)
        ref = evaluate_statistics(obs, names, obs.sigma, RngStream(seed, 1).generator())
        for c in (1e-9, 1e-6, 3.7, 1e3, 1e9):
            scaled = Observation(f_c=obs.f_c, y=c * obs.y, sigma=c * obs.sigma)
            z_hat_c, lambda1_c = first_knot(scaled)
            _, lambda2_c = second_knot(scaled, z_hat_c, lambda1_c)
            assert lambda1_c == pytest.approx(c * lambda1, rel=1e-12)
            assert z_hat_c.t == pytest.approx(z_hat.t, abs=1e-9)
            assert lambda2_c == pytest.approx(c * lambda2, abs=1e-9 * c)
            out = evaluate_statistics(scaled, names, scaled.sigma,
                                      RngStream(seed, 1).generator())
            for name in names:
                assert out[name].value == pytest.approx(ref[name].value, abs=1e-12), (c, name)


def _profile_instances():
    """(obs, z_hat, lambda1, w): null draws at f_c = 3 and 7, and weight-50
    spikes at f_c = 15."""
    out = []
    for f_c, seed, measure in (
        (3, 42, AtomicMeasure.empty()),
        (7, 2113, AtomicMeasure.empty()),
        (15, 5, AtomicMeasure.from_atoms([(1.3, 50.0)])),
        (15, 6, AtomicMeasure.from_atoms([(4.9, 50.0j)])),
    ):
        obs = synthesize(measure, f_c, 1.0, RngStream(seed, 0))
        z_hat, lambda1 = first_knot(obs)
        out.append((obs, z_hat, lambda1, _aligned_coeffs(obs, z_hat)))
    return out


def test_theta_profile_matches_g_ratio_oracle():
    # at fixed dt the closed-form max over dtheta is the max of the Taylor /
    # direct ratio over a 4096-point dtheta grid, up to the grid's error
    rng = np.random.default_rng(12)
    dth = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    step = dth[1] - dth[0]
    for obs, z_hat, lambda1, w in _profile_instances():
        dts = rng.uniform(0.05, math.pi, 6) * rng.choice([-1.0, 1.0], 6)
        m, _, _, dth_star = _theta_profile(w, lambda1)(dts)
        for dt, m_dt, arg in zip(dts, m, dth_star):
            g = g_ratio(obs, z_hat, lambda1, w, np.full(dth.size, dt), dth)
            j = int(np.argmax(g))
            scale = max(1.0, lambda1)
            assert g[j] - 1e-12 * scale <= m_dt <= g[j] + 1e-6 * scale
            assert abs(wrap_delta(arg - dth[j])) <= step
            # the closed-form angle attains the closed-form value
            at_arg = g_ratio(obs, z_hat, lambda1, w, np.array([dt]), np.array([arg]))[0]
            assert at_arg == pytest.approx(m_dt, abs=1e-12 * scale)


def test_theta_profile_tends_to_eigenvalue_limit():
    # as dt -> 0 the profile tends to the top eigenvalue of
    # Lt^{-1/2} R Lt^{-1/2} minus lambda1; its first-order term is odd in dt
    for obs, z_hat, lambda1, w in _profile_instances():
        big_r, _, _ = hessian_and_alphas(obs, z_hat, lambda1)
        scale = np.diag(1.0 / np.sqrt(np.diag(obs.context().lambda_tilde())))
        limit = float(np.linalg.eigvalsh(scale @ big_r @ scale)[-1]) - lambda1
        assert _profile_limit(w, lambda1) == pytest.approx(
            limit, abs=1e-12 * max(1.0, lambda1))
        profile = _theta_profile(w, lambda1)
        near = profile(np.array([1e-4, -1e-4]))[0]
        far = profile(np.array([1e-3, -1e-3]))[0]
        assert np.all(np.abs(near - limit) < 0.2 * np.abs(far - limit))
        assert abs(0.5 * (near[0] + near[1]) - limit) < 1e-6 * max(1.0, lambda1)


def test_theta_profile_derivatives_match_differences():
    # m' and m'' by implicit differentiation against central differences of
    # m, whose step error (h^2 m^(3) / 6) and rounding error are far smaller
    rng = np.random.default_rng(21)
    for obs, z_hat, lambda1, w in _profile_instances():
        profile = _theta_profile(w, lambda1)
        dts = rng.uniform(0.05, math.pi, 6) * rng.choice([-1.0, 1.0], 6)
        m, m1, m2, _ = profile(dts)
        step = 1e-4
        up = profile(dts + step)[0]
        down = profile(dts - step)[0]
        scale = max(1.0, lambda1) * obs.f_c**2
        assert np.max(np.abs(m1 - (up - down) / (2.0 * step))) < 1e-6 * scale
        assert np.max(np.abs(m2 - (up - 2.0 * m + down) / step**2)) < 1e-6 * scale * obs.f_c


def _spy_brackets(monkeypatch):
    """Record (profile, a, c, polished values) of each second_knot polish."""
    real = knots.maximize_bracketed
    seen = []

    def spy(fun, a, b, c):
        out = real(fun, a, b, c)
        seen.append((fun, a, c, out[1]))
        return out

    monkeypatch.setattr(knots, "maximize_bracketed", spy)
    return seen


def test_second_knot_matches_brent_on_its_brackets(monkeypatch):
    # On every bracket second_knot polishes, its value is never short of
    # bounded Brent search on the profile over the same interval by more than
    # 1e-12 lambda1, and so neither is lambda2: null draws at f_c 3 to 30,
    # and one or two spikes up to weight 1e5, where the profile next to
    # dt = 0 reads its slope with few correct digits
    seen = _spy_brackets(monkeypatch)
    observations = [_noisy_obs(1500 + seed, f_c=f_c) for f_c in (3, 7, 15, 30)
                    for seed in range(6)]
    observations += [_spiky_obs(f_c, seed, weight, pair) for f_c in (3, 7)
                     for seed in range(2) for weight in (10.0, 1e3, 1e5)
                     for pair in (False, True)]
    n_split = 0
    for obs in observations:
        z_hat, lambda1 = first_knot(obs)
        seen.clear()
        _, lambda2 = second_knot(obs, z_hat, lambda1)
        (fun, a, c, m), = seen
        brent = np.array([brent_maximize(lambda dt: float(fun(np.array([dt]))[0][0]),
                                         (lo, hi), tol=1e-10)[1] for lo, hi in zip(a, c)])
        assert np.all(m >= brent - 1e-12 * lambda1)
        assert lambda2 >= min(lambda1 + brent.max(), lambda1) - 1e-12 * lambda1
        n_split += np.count_nonzero(np.abs(np.concatenate([a, c])) < 1e-2 / obs.n_freq)
    assert n_split >= 4


def test_second_knot_y_hat_attains_lambda2():
    # the reported maximizer carries the reported value: the regressed field
    # at y_hat equals lambda2 wherever y_hat is away from z_hat
    observations = [_noisy_obs(300 + seed, f_c=(3, 7, 11)[seed % 3]) for seed in range(8)]
    observations += [obs for obs, _, _, _ in _profile_instances()]
    checked = 0
    for obs in observations:
        z_hat, lambda1 = first_knot(obs)
        y_hat, lambda2 = second_knot(obs, z_hat, lambda1)
        if 1.0 - correlation(obs.context(), torus_delta(y_hat, z_hat)) < 0.05:
            continue
        assert regressed_value(obs, z_hat, y_hat) == pytest.approx(lambda2, abs=1e-9)
        checked += 1
    assert checked >= 10


def test_regressed_value_theta_circle(obs_seed42):
    # X^{z_hat} vanishes on the theta-circle through z_hat
    z_hat, _ = first_knot(obs_seed42)
    for delta in (0.3, 1.0, 2.8):
        y = (z_hat.t, z_hat.theta + delta)
        assert abs(regressed_value(obs_seed42, z_hat, y)) < 1e-9


def test_regressed_modes_agree_at_critical_point(obs_seed42):
    # where X'(z) = 0 the gradient correction vanishes
    z_hat, _ = first_knot(obs_seed42)
    rng = np.random.default_rng(8)
    for _ in range(6):
        y = tuple(rng.uniform(0.5, 5.5, size=2))
        a = regressed_value(obs_seed42, z_hat, y, mode="on_value")
        b = regressed_value(obs_seed42, z_hat, y, mode="on_value_and_grad")
        assert a == pytest.approx(b, abs=1e-9)


def test_regressed_value_radial_limit(obs_seed42):
    # X^{|z}(z + u lam) -> lam' R lam / lam' Lt lam, error O(u);
    # Richardson across u = 1e-3, 1e-4 cancels the linear term
    cert = compute_certificate(obs_seed42)
    ctx = obs_seed42.context()
    lt = ctx.lambda_tilde()
    z_hat = cert.z_hat
    rng = np.random.default_rng(3)
    for _ in range(4):
        ang = rng.uniform(0.0, TWO_PI)
        lam = np.array([math.cos(ang), math.sin(ang)])
        limit = float(lam @ cert.R @ lam) / float(lam @ lt @ lam)
        v3 = regressed_value(
            obs_seed42, z_hat,
            (z_hat.t + 1e-3 * lam[0], z_hat.theta + 1e-3 * lam[1]),
            mode="on_value_and_grad",
        )
        v4 = regressed_value(
            obs_seed42, z_hat,
            (z_hat.t + 1e-4 * lam[0], z_hat.theta + 1e-4 * lam[1]),
            mode="on_value_and_grad",
        )
        assert abs(v4 - limit) < abs(v3 - limit)
        assert (10.0 * v4 - v3) / 9.0 == pytest.approx(limit, abs=1e-5)


def test_g_ratio_matches_hessian_quotient(obs_seed42):
    # (X(y) - lambda1)/(1 - rho) at radius 1e-3 ~ lam' X''(z_hat) lam / lam' Lt lam
    z_hat, lambda1 = first_knot(obs_seed42)
    ctx = obs_seed42.context()
    lt = ctx.lambda_tilde()
    hess = x_hess(obs_seed42, z_hat)
    rng = np.random.default_rng(4)
    for _ in range(6):
        ang = rng.uniform(0.0, TWO_PI)
        lam = np.array([math.cos(ang), math.sin(ang)])
        quotient = float(lam @ hess @ lam) / float(lam @ lt @ lam)
        y = (z_hat.t + 1e-3 * lam[0], z_hat.theta + 1e-3 * lam[1])
        g = regressed_value(obs_seed42, z_hat, y) - lambda1
        assert g == pytest.approx(quotient, abs=1e-3)


def test_g_ratio_branch_agreement(obs_seed42):
    # the Taylor-remainder branch equals the direct quotient at the switch radius
    z_hat, lambda1 = first_knot(obs_seed42)
    ctx = obs_seed42.context()
    w = _aligned_coeffs(obs_seed42, z_hat)
    rng = np.random.default_rng(6)
    for _ in range(6):
        ang = rng.uniform(0.0, TWO_PI)
        dt, dth = 0.5 * math.cos(ang), 0.5 * math.sin(ang)
        near = float(
            g_ratio(obs_seed42, z_hat, lambda1, w, np.array([dt]), np.array([dth]))[0]
        )
        y = (z_hat.t + dt, z_hat.theta + dth)
        rho = correlation(ctx, torus_delta(y, (z_hat.t, z_hat.theta)))
        direct = (x_eval(obs_seed42, y) - lambda1) / (1.0 - rho)
        assert near == pytest.approx(direct, abs=1e-9)


def test_regressed_value_near_singular(obs_seed42):
    z_hat, _ = first_knot(obs_seed42)
    with pytest.raises(NearSingular):
        regressed_value(obs_seed42, z_hat, (z_hat.t, z_hat.theta))
    with pytest.raises(ValueError):
        regressed_value(obs_seed42, z_hat, (1.0, 1.0), mode="bogus")


def test_hessian_and_alphas_noiseless():
    obs = synthesize(AtomicMeasure.from_atoms([(0.7, 2.0)]), 3, 0.0, RngStream(0))
    z_hat, lambda1 = first_knot(obs)
    big_r, alpha2, alpha3 = hessian_and_alphas(obs, z_hat, lambda1)
    assert abs(alpha2) < 1e-9
    assert abs(alpha3) < 1e-9
    assert np.max(np.abs(big_r)) < 1e-9


def test_hessian_and_alphas_pinned(obs_seed42):
    z_hat, lambda1 = first_knot(obs_seed42)
    big_r, alpha2, alpha3 = hessian_and_alphas(obs_seed42, z_hat, lambda1)
    assert alpha2 == pytest.approx(SEED42_ALPHA2, abs=1e-6)
    assert alpha3 == pytest.approx(SEED42_ALPHA3, abs=1e-6)
    assert big_r[1, 1] == 0.0
    assert big_r[0, 1] == big_r[1, 0]


def test_hessian_identity_loop():
    # R = X''(z_hat) + Lambda-tilde * lambda1, theta-theta entry exactly zero
    for f_c in (1, 3, 7, 15, 30):
        for seed in range(8):
            obs = _noisy_obs(1200 + seed, f_c=f_c)
            ctx = obs.context()
            z_hat, lambda1 = first_knot(obs)
            big_r, _, _ = hessian_and_alphas(obs, z_hat, lambda1)
            check = x_hess(obs, z_hat) + ctx.lambda_tilde() * lambda1
            assert np.max(np.abs(big_r - check)) < 1e-9
            assert big_r[1, 1] == 0.0


def test_hessian_rejects_non_maximum(obs_seed42):
    from srknots.model import TorusPoint

    _, lambda1 = first_knot(obs_seed42)
    with pytest.raises(NotAMaximum):
        hessian_and_alphas(obs_seed42, TorusPoint.make(0.123, 4.0), lambda1)


@pytest.mark.parametrize("f_c", [400, 700, 1000])
def test_certificates_at_large_f_c_pass_the_hessian_check(f_c):
    # The check compares two roundings of |Z(t_hat)|, and their gap grows
    # with N; a bound relative to lambda1 alone rejected about 3% to 34% of
    # null rows from f_c = 400 on.
    rng = np.random.default_rng(np.random.SeedSequence([2027, f_c]))
    n = 2 * f_c + 1
    obs = Observation(f_c=f_c, y=rng.standard_normal((32, n)) + 1j * rng.standard_normal((32, n)),
                      sigma=1.0)
    cert, errors = compute_certificates(obs)
    assert errors == [None] * 32
    assert np.all(np.isfinite(cert.lambda2)) and np.all(cert.lambda2 <= cert.lambda1)


@pytest.mark.parametrize("f_c", [3, 1000])
def test_hessian_rejects_a_first_knot_value_off_by_1e6(f_c):
    # z_hat and lambda1 that do not belong together: lambda1 off by 1e-6
    # (relative) is far beyond the rounding of x0 - lambda1 at any f_c.
    obs = _noisy_obs(5, f_c=f_c)
    z_hat, lambda1 = first_knot(obs)
    hessian_and_alphas(obs, z_hat, lambda1)
    with pytest.raises(NotAMaximum, match="beyond their rounding"):
        hessian_and_alphas(obs, z_hat, lambda1 * (1.0 + 1e-6))


def test_hessian_rejects_aligned_minimum_of_modulus():
    # at a local minimizer t of |Z| with theta = arg Z(t) and lambda = |Z(t)|
    # the consistency check passes, but det(-X'') = -|Z| |Z|'' < 0
    from srknots.model import TorusPoint

    obs = _noisy_obs(77, f_c=7)
    t = np.linspace(0.0, TWO_PI, 32 * obs.n_freq, endpoint=False)
    mod = np.abs(z_eval(obs, t))
    j = int(np.nonzero((mod < np.roll(mod, 1)) & (mod <= np.roll(mod, -1)))[0][0])
    h = t[1] - t[0]
    t_min, _ = brent_maximize(lambda u: -abs(z_eval(obs, u)), (t[j] - h, t[j] + h), tol=1e-12)
    z_min = z_eval(obs, t_min)
    z_pt = TorusPoint.make(t_min, math.atan2(z_min.imag, z_min.real))
    assert x_hess(obs, z_pt)[1, 1] == pytest.approx(-abs(z_min), abs=1e-12)
    assert np.linalg.det(x_hess(obs, z_pt)) < 0
    with pytest.raises(NotAMaximum, match="not positive definite"):
        hessian_and_alphas(obs, z_pt, abs(z_min))


def test_compute_certificate_fields(obs_seed42):
    cert = compute_certificate(obs_seed42)
    assert isinstance(cert, KnotCertificate)
    assert 0.0 <= cert.lambda2 <= cert.lambda1
    assert cert.grad_norm_at_zhat < 1e-8 * cert.lambda1
    assert cert.R.shape == (2, 2)
    assert cert.R[0, 0] == -cert.alpha2
    assert cert.R[0, 1] == cert.alpha3
    # -X''(z_hat) = Lt*lambda1 - R positive definite
    neg_hess = cert.lambda1 * obs_seed42.context().lambda_tilde() - cert.R
    assert np.all(np.linalg.eigvalsh(neg_hess) > 0)
