"""Continuation path: knot invariants, homogeneity, exports."""

import math

import numpy as np
import pytest
from oracles import lars_residual_kernel_sum, lars_system, z_deriv

from srknots import knots, lars
from srknots.knots import first_knot, second_knot
from srknots.lars import LarsOptions, export_csv, lars_residual, lars_run
from srknots.model import AtomicMeasure, Observation, kernel_gamma, synthesize, wrap_delta, z_eval
from srknots.numerics import RngStream

TWO_PI = 2.0 * math.pi


def _noisy_obs(seed, f_c=3):
    return synthesize(AtomicMeasure.empty(), f_c, 1.0, RngStream(seed, 0))


def _gaussian_obs(seed, index, f_c=3):
    """y = N(0,1) + i N(0,1) in each coefficient, from SeedSequence([seed, index])."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    n = 2 * f_c + 1
    return Observation(f_c=f_c, y=rng.standard_normal(n) + 1j * rng.standard_normal(n), sigma=1.0)


# Null f_c = 3 paths on which a grid peak straddling two samples once read
# below a disc-edge sample and was skipped, so the entering point of a later
# knot missed |residual| = lambda_k by 4.7e-7 and 1.2e-7.
_EXHIBITS = ((109, 20), (5220, 0))


def _path_invariants(obs, path, tol=1e-7):
    """Residual modulus lambda on the active set, dominated elsewhere,
    strictly decreasing knots."""
    lams = [knot.lam for knot in path.knots]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    t_dense = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    for k, knot in enumerate(path.knots, start=1):
        res_active = lars_residual(obs, path, k, np.array(knot.active))
        assert np.max(np.abs(np.abs(res_active) - knot.lam)) < tol
        res_dense = np.abs(lars_residual(obs, path, k, t_dense))
        assert np.max(res_dense) <= knot.lam + tol


def test_options_validation():
    with pytest.raises(ValueError):
        LarsOptions(k_max=1)
    with pytest.raises(ValueError):
        LarsOptions(lambda_min=0.0)
    with pytest.raises(ValueError):
        lars_run(_noisy_obs(0), 0.0)


def test_path_invariants_noise_only():
    for seed in (42, 7, 101, 555):
        obs = _noisy_obs(seed)
        path = lars_run(obs, 1.0, LarsOptions(k_max=4))
        assert path.status == "reached_k_max"
        assert len(path.knots) == 4
        _path_invariants(obs, path)


@pytest.mark.parametrize("seed, index", _EXHIBITS)
def test_entering_point_on_exhibit_paths(seed, index):
    obs = _gaussian_obs(seed, index)
    path = lars_run(obs, 1.0, LarsOptions(k_max=4))
    assert path.status == "reached_k_max"
    _path_invariants(obs, path)


def test_system_matches_the_kernel_derivative_oracle(monkeypatch):
    # Every Newton system solved along the exhibit paths, against G_m and Z
    # up to second order from term-wise derivatives (oracles.lars_system).
    states = []
    real = lars._Leg.system

    def spy(leg, lam, x):
        states.append((leg, lam, np.array(x)))
        return real(leg, lam, x)

    monkeypatch.setattr(lars._Leg, "system", spy)
    for seed, index in _EXHIBITS:
        lars_run(_gaussian_obs(seed, index), 1.0, LarsOptions(k_max=4))
    assert len(states) > 50
    for leg, lam, x in states:
        (h, jac, a, dh, da_dx, da_dlam) = real(leg, lam, x)
        (h_o, jac_o, a_o, dh_o, da_dx_o, da_dlam_o) = lars_system(leg, lam, x)
        # h vanishes on the path; its scale is that of the terms 2 Re(conj(c p) Z')
        # it sums, with |c p_j| = lambda, and that of dh/dlambda the same over lambda
        z_scale = 2.0 * np.max(np.abs(z_deriv(leg.obs, x)))
        assert np.max(np.abs(h - h_o)) <= 1e-12 * lam * z_scale
        assert np.max(np.abs(dh - dh_o)) <= 1e-12 * max(z_scale, np.max(np.abs(dh_o)))
        for v, v_o in ((jac, jac_o), (a, a_o), (da_dx, da_dx_o), (da_dlam, da_dlam_o)):
            assert np.max(np.abs(v - v_o)) <= 1e-12 * np.max(np.abs(v_o))


def _leg_at_knot(obs, path, j):
    """The leg that starts at knot j (j active points) of a computed path."""
    knot = path.knots[j - 1]
    active = np.array(knot.active)
    prev_vals = lars_residual(obs, path, j, active)
    return lars._Leg(obs, 2.0 * path.sigma * path.sigma, active, prev_vals, knot.lam,
                     LarsOptions().lambda_min)


def test_analytic_jacobian_matches_central_difference():
    obs = _noisy_obs(42)
    path = lars_run(obs, 1.0, LarsOptions(k_max=5))
    assert len(path.knots) == 5
    fd = 1e-6
    for j in (2, 3, 4):
        leg = _leg_at_knot(obs, path, j)
        lam = 0.995 * leg.lam_prev
        x_sol = leg.newton(lam, leg.x).x
        for x in (x_sol, x_sol + 0.01 * np.cos(np.arange(j))):
            jac = leg.system(lam, x)[1]
            num = np.empty_like(jac)
            for i in range(j):
                step = np.zeros(j)
                step[i] = fd
                num[:, i] = (leg.system(lam, x + step)[0] - leg.system(lam, x - step)[0]) / (2 * fd)
            assert np.max(np.abs(jac - num)) <= 1e-6 * np.max(np.abs(jac))


def _polished(leg, lam, x0):
    """(x, a) solved at lam, with two Newton steps past the one at which
    _Leg.newton stops, so that x sits at the rounding floor."""
    x = leg.newton(lam, x0).x
    for _ in range(2):
        h, jac = leg.system(lam, x)[:2]
        x = x - np.linalg.solve(jac, h)
    return x, leg.system(lam, x)[2]


def test_tangent_matches_central_differences():
    # dx/dlambda, da/dlambda and the gap rates of the off-support peaks at
    # the middle of every leg of null f_c = 3 and f_c = 7 paths, against
    # central differences of states re-solved at lambda +- 1e-5 lambda (each
    # peak re-polished there from its location).
    cases = [(_gaussian_obs(0, j), 4) for j in range(10)]
    cases += [(_gaussian_obs(0, j, f_c=7), 5) for j in range(5)]
    n_legs = n_peaks = 0
    for obs, k_max in cases:
        path = lars_run(obs, 1.0, LarsOptions(k_max=k_max))
        assert path.status == "reached_k_max"
        for j in range(2, k_max):
            leg = _leg_at_knot(obs, path, j)
            start = leg.newton(leg.lam_prev, leg.x)
            lam = 0.5 * (path.knots[j - 1].lam + path.knots[j].lam)
            state = leg.newton(lam, start.x + start.dx * (lam - start.lam))
            d = 1e-5 * lam
            (x_up, a_up), (x_dn, a_dn) = (_polished(leg, lam + sign * d, state.x)
                                          for sign in (1.0, -1.0))
            fd_x, fd_a = (x_up - x_dn) / (2.0 * d), (a_up - a_dn) / (2.0 * d)
            assert np.max(np.abs(state.dx - fd_x)) <= 1e-6 * np.max(np.abs(state.dx))
            assert np.max(np.abs(state.da - fd_a)) <= 1e-6 * np.max(np.abs(state.da))

            t_peaks = leg.off_support_max(state.x, state.a)[2][0]
            _, rate = leg.gap_rates(state, t_peaks)
            gaps = []
            for sign, x, a in ((1.0, x_up, a_up), (-1.0, x_dn, a_dn)):
                res = leg.residual(x, a)
                t, ok = knots._newton_peaks(res.rows(np.zeros(t_peaks.size, dtype=int)), t_peaks,
                                            leg.track_radius)
                assert ok.all()
                gaps.append(np.abs(z_eval(res, t)) - (lam + sign * d))
            assert np.max(np.abs(rate - (gaps[0] - gaps[1]) / (2.0 * d)), initial=0.0) <= 1e-6
            n_legs += 1
            n_peaks += t_peaks.size
    assert n_legs >= 20 and n_peaks >= 20


def test_singular_gram_stops_the_path(monkeypatch):
    # The eigh guard against the condition of M = 2 sigma^2 [Gamma(x_i - x_j)]
    # at the first leg's start, taken by np.linalg.cond: a limit below it
    # stops the path there, and the normal limit does not stop it.
    obs = _noisy_obs(42)
    path = lars_run(obs, 1.0, LarsOptions(k_max=4))
    assert path.status == "reached_k_max"
    x = np.array(path.knots[1].active)
    cond = np.linalg.cond(kernel_gamma(obs.f_c, np.subtract.outer(x, x).ravel()).reshape(2, 2))
    monkeypatch.setattr(lars, "_COND_LIMIT", 0.5 * cond)
    stopped = lars_run(obs, 1.0, LarsOptions(k_max=4))
    assert stopped.status == "path_stop_singular_gram"
    assert stopped.knots == path.knots[:2]


def test_off_support_max_dominates_a_fine_grid(monkeypatch):
    # Every event probe along a path against an independent residual
    # (kernel sum) on 2^16 points, masked outside the merge discs: the full
    # off_support_max sweeps with the peaks they report, and the candidate
    # gaps the knot search reads.  About 9 sweeps and 8 candidate gaps a
    # path: four paths are spied so that more than 60 probes are checked.
    calls, tracked = [], []
    n_checked = 0
    real = lars._Leg.off_support_max
    real_candidate = lars._Leg.candidate_gap

    def spy(leg, x, a):
        out = real(leg, x, a)
        calls.append((leg.two_s2, np.array(x), np.array(a), out))
        return out

    def spy_candidate(leg, state, cand):
        out = real_candidate(leg, state, cand)
        if out is not None:
            tracked.append((leg.two_s2, state.x, state.a, out[0] + state.lam, out[2][0]))
        return out

    monkeypatch.setattr(lars._Leg, "off_support_max", spy)
    monkeypatch.setattr(lars._Leg, "candidate_gap", spy_candidate)
    t = np.linspace(0.0, TWO_PI, 2 ** 16, endpoint=False)
    for seed, index in _EXHIBITS + ((0, 0), (0, 1)):
        obs = _gaussian_obs(seed, index)
        calls.clear()
        tracked.clear()
        lars_run(obs, 1.0, LarsOptions(k_max=4))
        assert tracked
        n_checked += len(calls) + len(tracked)
        z_t = z_eval(obs, t)

        def fit(u, two_s2, x, a):
            gam = kernel_gamma(obs.f_c, np.subtract.outer(u, x).ravel())
            return two_s2 * (gam.reshape(u.size, x.size) @ a)

        for two_s2, x, a, (val, loc, (t_peaks, peak_vals)) in calls:
            peak = np.max(peak_vals, initial=-np.inf)
            dist = np.min(np.abs(wrap_delta(np.subtract.outer(t, x))), axis=1)
            vals = np.abs(z_t - fit(t, two_s2, x, a))
            masked = np.where(dist >= lars._MERGE_RADIUS, vals, -np.inf)
            assert val >= np.max(masked) - 1e-12
            # grid peaks whose two neighbours are outside the discs too
            is_peak = (masked >= np.roll(masked, 1)) & (masked >= np.roll(masked, -1))
            is_peak &= np.isfinite(np.roll(masked, 1)) & np.isfinite(np.roll(masked, -1))
            assert np.max(masked[is_peak], initial=-np.inf) - 1e-12 <= peak <= val
            assert np.max(np.abs(np.abs(z_eval(obs, t_peaks) - fit(t_peaks, two_s2, x, a))
                                 - peak_vals), initial=0.0) < 1e-12
            assert abs(abs(z_eval(obs, loc) - fit(np.array([loc]), two_s2, x, a)[0]) - val) < 1e-12
            assert np.min(np.abs(wrap_delta(loc - x))) >= lars._MERGE_RADIUS - 1e-12
        for two_s2, x, a, val, loc in tracked:
            assert abs(abs(z_eval(obs, loc) - fit(np.array([loc]), two_s2, x, a)[0]) - val) < 1e-12
            assert np.min(np.abs(wrap_delta(loc - x))) >= lars._MERGE_RADIUS - 1e-12
    assert n_checked > 60


def test_off_support_max_brent_fallback(monkeypatch):
    # With the sweep's Newton polish refused, every grid start goes to the
    # bracketed maximizer (knots.z_peaks), which must find the same maximum.
    obs = _gaussian_obs(*_EXHIBITS[0])
    leg = _leg_at_knot(obs, lars_run(obs, 1.0, LarsOptions(k_max=4)), 3)
    state = leg.newton(0.995 * leg.lam_prev, leg.x)
    x, a = state.x, state.a
    real_peaks = lars.z_peaks
    peaks = []

    def spy(*args, **kwargs):
        out = real_peaks(*args, **kwargs)
        peaks.append(out[0])
        return out

    monkeypatch.setattr(lars, "z_peaks", spy)
    ref_val, ref_loc, (ref_t, ref_peaks) = leg.off_support_max(x, a)
    real_newton, real_bracketed = knots._newton_peaks, knots.maximize_bracketed
    starts, brackets = [], []

    def refuse_sweep(res, t0, radius):
        t, ok = real_newton(res, t0, radius)
        starts.append(t0.size)
        return t, np.zeros_like(ok)

    def bracketed(fun, lo, mid, hi):
        brackets.extend(zip(lo, hi))
        return real_bracketed(fun, lo, mid, hi)

    monkeypatch.setattr(knots, "_newton_peaks", refuse_sweep)
    monkeypatch.setattr(knots, "maximize_bracketed", bracketed)
    val, loc, (t_peaks, peak_vals) = leg.off_support_max(x, a)
    assert len(brackets) == starts[0] >= 2 and len(starts) == 1
    assert val == pytest.approx(ref_val, rel=1e-12)
    assert peak_vals == pytest.approx(ref_peaks, rel=1e-12)
    assert np.max(np.abs(wrap_delta(t_peaks - ref_t))) < 1e-14
    assert abs(wrap_delta(loc - ref_loc)) < 1e-14
    # every peak, inside the merge discs too, as Newton alone places it
    assert np.max(np.abs(wrap_delta(peaks[1] - peaks[0]))) < 1e-14


def _agreement_obs():
    return (
        [_gaussian_obs(seed, index) for seed, index in _EXHIBITS]
        + [_gaussian_obs(0, j) for j in range(10)]
        + [_noisy_obs(seed) for seed in (42, 7, 101, 555)]
    )


def _spy_event_search(monkeypatch):
    """Per call of _Leg.locate, the number of full off_support_max probes,
    of candidate_gap evaluations and of midpoint solves (halvings of the
    bracket on the global gap, each with one probe) it makes, the order of
    its Newton solves ("h" for a halving, "n" for a Newton point on the
    tangent) and the width of its initial bracket relative to its hi end."""
    probes, evals, halvings, solves, widths = [], [], [], [], []
    real_locate = lars._Leg.locate
    real_probe = lars._Leg.off_support_max
    real_candidate = lars._Leg.candidate_gap
    real_midpoint = lars._Leg._midpoint
    real_newton = lars._Leg.newton
    inside, halving = [False], [False]

    def locate(leg, lo, t_lo, hi, t_peaks):
        probes.append(0)
        evals.append(0)
        halvings.append(0)
        solves.append("")
        widths.append((hi.lam - lo.lam) / hi.lam)
        inside[0] = True
        try:
            return real_locate(leg, lo, t_lo, hi, t_peaks)
        finally:
            inside[0] = False

    def probe(leg, x, a):
        if inside[0]:
            probes[-1] += 1
        return real_probe(leg, x, a)

    def candidate(leg, state, cand):
        evals[-1] += 1
        return real_candidate(leg, state, cand)

    def midpoint(leg, *bracket):
        halvings[-1] += 1
        solves[-1] += "h"
        halving[0] = True
        try:
            return real_midpoint(leg, *bracket)
        finally:
            halving[0] = False

    def newton(leg, lam, x0):
        if inside[0] and not halving[0]:
            solves[-1] += "n"
        return real_newton(leg, lam, x0)

    monkeypatch.setattr(lars._Leg, "locate", locate)
    monkeypatch.setattr(lars._Leg, "off_support_max", probe)
    monkeypatch.setattr(lars._Leg, "candidate_gap", candidate)
    monkeypatch.setattr(lars._Leg, "_midpoint", midpoint)
    monkeypatch.setattr(lars._Leg, "newton", newton)
    return probes, evals, halvings, solves, widths


def _assert_same_knots(paths, reference, rel=2e-9, loc=1e-7):
    for path, ref in zip(paths, reference):
        assert path.status == ref.status
        assert len(path.knots) == len(ref.knots)
        for knot, ref_knot in zip(path.knots, ref.knots):
            assert abs(knot.lam - ref_knot.lam) <= rel * ref_knot.lam
            shift = wrap_delta(np.array(knot.active) - np.array(ref_knot.active))
            assert np.max(np.abs(shift)) <= loc


def test_event_search_matches_bisection(monkeypatch):
    # The Newton search on the crossing candidate against plain bisection
    # on the global gap, forced by losing the candidate at once.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    probes, evals, halvings, _, widths = _spy_event_search(monkeypatch)
    fast = [lars_run(obs, 1.0, opts) for obs in observations]
    # One probe per knot confirms the search, which reads its candidate at
    # the lo end and at a few Newton points; no search halves.
    assert len(probes) == 32
    assert probes == [1] * 32 and halvings == [0] * 32
    assert max(evals) <= 10

    probes.clear()
    halvings.clear()
    widths.clear()
    monkeypatch.setattr(lars._Leg, "candidate_gap", lambda leg, state, cand: None)
    slow = [lars_run(obs, 1.0, opts) for obs in observations]
    assert probes == halvings
    assert all(_bisections(w) <= n <= _bisections(w) + 1 for n, w in zip(probes, widths))
    _assert_same_knots(fast, slow)


def _bisections(width):
    """Halvings that take a bracket of relative width `width` below 1e-9."""
    return math.ceil(math.log2(width / 1e-9))


@pytest.mark.parametrize("route", ["refused_polish", "failed_confirmation"])
def test_event_search_falls_back_to_bisection(monkeypatch, route):
    observations = [_gaussian_obs(seed, index) for seed, index in _EXHIBITS] + [_noisy_obs(42)]
    probes, _, halvings, _, widths = _spy_event_search(monkeypatch)
    if route == "refused_polish":
        # Every Newton polish refused: the candidate is lost at the lo end,
        # and off_support_max polishes its peaks by Brent search alone.
        real_newton = knots._newton_peaks

        def refuse(res, t0, radius):
            t, ok = real_newton(res, t0, radius)
            return t, np.zeros_like(ok)

        monkeypatch.setattr(lars, "_newton_peaks", refuse)
        monkeypatch.setattr(knots, "_newton_peaks", refuse)
    else:
        # A candidate gap read 1e-4 low crosses zero below the knot, where
        # the global gap is still >= 0: the confirmation must catch it.
        spied = lars._Leg.candidate_gap

        def low(leg, state, cand):
            out = spied(leg, state, cand)
            return None if out is None else (out[0] - 1e-4, out[1], out[2])

        monkeypatch.setattr(lars._Leg, "candidate_gap", low)
    for obs in observations:
        path = lars_run(obs, 1.0, LarsOptions(k_max=4))
        assert path.status == "reached_k_max"
        _path_invariants(obs, path)
    # One bisection probe per halving of the march's last step, w of lambda:
    # ceil(log2(w / 1e-9)), 24 after a 1% step and 27 after a 10% one.  A
    # failed confirmation costs one more probe, and the halving then starts
    # from the false root, inside the step, so it may take fewer.
    assert len(probes) == 6
    for h, w in zip(halvings, widths):
        assert 20 <= h <= _bisections(w) + 1
        assert route == "failed_confirmation" or _bisections(w) <= h
    assert probes == [h + (route == "failed_confirmation") for h in halvings]


def test_event_search_converges_on_a_curved_gap(monkeypatch):
    # A sign-preserving concave transform of the candidate gap, its
    # derivative carried by the chain rule, keeps every knot but flattens
    # the gap on the lo side, where the search starts: Newton from there
    # overshoots the bracket, so bisection steps of the candidate gap lead
    # until Newton takes over.  At most one search loses its candidate at
    # such a step and halves the global gap instead.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    reference = [lars_run(obs, 1.0, opts) for obs in observations]
    probes, evals, halvings, _, _ = _spy_event_search(monkeypatch)
    spied = lars._Leg.candidate_gap

    def curved(leg, state, cand):
        out = spied(leg, state, cand)
        if out is None:
            return None
        gap, rate, cand = out
        return -math.expm1(-300.0 * gap) / 300.0, math.exp(-300.0 * gap) * rate, cand

    monkeypatch.setattr(lars._Leg, "candidate_gap", curved)
    paths = [lars_run(obs, 1.0, opts) for obs in observations]
    assert all(n == (h if h else 1) for n, h in zip(probes, halvings))
    assert sum(h > 0 for h in halvings) <= 1
    assert sum(evals) <= 12 * len(evals)
    _assert_same_knots(paths, reference)


def test_event_search_runs_from_a_birth_inside_the_bracket(monkeypatch):
    # On (5220, 0) the peak that enters at the fourth knot is born inside
    # the bracket of the last march step: the argmax at the lo end does not
    # exist at the hi end.  The Newton search needs it only at the lo end
    # and at points between it and the knot, so it runs without a halving.
    obs = _gaussian_obs(5220, 0)
    opts = LarsOptions(k_max=4)
    real_candidate = lars._Leg.candidate_gap
    probes, _, halvings, solves, _ = _spy_event_search(monkeypatch)
    ends = []
    real_locate = lars._Leg.locate

    def locate(leg, lo, t_lo, hi, t_peaks):
        ends.append(real_candidate(leg, hi, leg._crossing_candidate(lo.x, t_lo)))
        return real_locate(leg, lo, t_lo, hi, t_peaks)

    monkeypatch.setattr(lars._Leg, "locate", locate)
    fast = lars_run(obs, 1.0, opts)
    assert ends[0] is not None and ends[1] is None
    assert probes == [1, 1] and halvings == [0, 0]
    assert "h" not in solves[1]

    fast_probes = list(probes)
    probes.clear()
    monkeypatch.setattr(lars._Leg, "candidate_gap", lambda leg, state, cand: None)
    slow = lars_run(obs, 1.0, opts)
    assert len(probes) == 2
    assert fast_probes[1] < probes[1]
    _assert_same_knots([fast], [slow])


def test_fine_march_finds_the_same_knots(monkeypatch):
    # The march with steps of at most 0.1% of lambda, a hundredth of the
    # cap of the predicted steps, as an oracle for knots skipped by a long
    # step: a peak that crosses lambda and falls back within one step.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    predicted = [lars_run(obs, 1.0, opts) for obs in observations]
    monkeypatch.setattr(lars, "_STEP_CAP", 1e-3)
    fine = [lars_run(obs, 1.0, opts) for obs in observations]
    _assert_same_knots(predicted, fine)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e200, 1e-200, -1.0])
def test_sigma_must_be_finite_with_a_normal_kernel_scale(sigma):
    # 2 sigma^2 overflows at 1e200 and underflows to 0 at 1e-200
    with pytest.raises(ValueError):
        lars_run(_noisy_obs(0), sigma)


def test_first_two_knots_match_knot_module():
    obs = _noisy_obs(42)
    path = lars_run(obs, 1.0, LarsOptions(k_max=3))
    z_hat, lambda1 = first_knot(obs)
    _, lambda2 = second_knot(obs, z_hat, lambda1)
    assert path.knots[0].lam == pytest.approx(lambda1, abs=1e-8)
    assert path.knots[0].active[0] == pytest.approx(z_hat.t, abs=1e-8)
    assert path.knots[1].lam == pytest.approx(lambda2, abs=1e-8)


def test_noiseless_single_atom():
    x0, a0 = 1.2, 2.5
    obs = synthesize(AtomicMeasure.from_atoms([(x0, a0)]), 3, 0.0, RngStream(0))
    path = lars_run(obs, 1.0)
    assert path.status == "reached_lambda_min"
    assert len(path.knots) == 1
    assert path.knots[0].lam == pytest.approx(a0, abs=1e-9)
    assert path.knots[0].active[0] == pytest.approx(x0, abs=1e-9)


def test_homogeneity():
    # (y, sigma) -> (c y, c sigma) scales every knot by c and every weight
    # by 1/c: the knot search's widths are relative to lambda
    obs = _noisy_obs(9)
    base = lars_run(obs, 1.0, LarsOptions(k_max=4))
    assert base.status == "reached_k_max"
    for c in (1e-6, 3.7, 1e3):
        scaled = Observation(f_c=obs.f_c, y=c * obs.y, sigma=c)
        big = lars_run(scaled, c, LarsOptions(k_max=4, lambda_min=c * 1e-3))
        assert big.status == base.status
        assert len(base.knots) == len(big.knots)
        for kb, kc in zip(base.knots, big.knots):
            assert kc.lam == pytest.approx(c * kb.lam, rel=1e-8)
            for tb, tc in zip(kb.active, kc.active):
                assert tc == pytest.approx(tb, abs=1e-8)
            for ab, ac in zip(kb.weights, kc.weights):
                assert abs(c * ac - ab) < 1e-8 * max(1.0, abs(ab))


def test_residual_matches_kernel_sum():
    # the residual's Fourier data against one kernel term per active point,
    # at every knot of the agreement paths, on and off the active set
    t = np.linspace(0.0, TWO_PI, 997, endpoint=False)
    for obs in _agreement_obs():
        path = lars_run(obs, 1.0, LarsOptions(k_max=4))
        scale = 1e-12 * max(1.0, path.knots[0].lam)
        for k, knot in enumerate(path.knots, start=1):
            u = np.concatenate([t, knot.active])
            ref = lars_residual_kernel_sum(obs, path, k, u)
            assert np.max(np.abs(lars_residual(obs, path, k, u) - ref)) < scale


def test_residual_bounds_and_errors():
    obs = _noisy_obs(42)
    path = lars_run(obs, 1.0, LarsOptions(k_max=3))
    t = np.linspace(0.0, TWO_PI, 101)
    # knot 1 carries zero weights, so the residual is Z itself
    from srknots.model import z_eval

    assert np.allclose(lars_residual(obs, path, 1, t), z_eval(obs, t), atol=1e-14)
    assert isinstance(lars_residual(obs, path, 2, 0.3), complex)
    with pytest.raises(IndexError):
        lars_residual(obs, path, 0, 0.3)
    with pytest.raises(IndexError):
        lars_residual(obs, path, len(path.knots) + 1, 0.3)


def test_export_csv_round_trip():
    obs = _noisy_obs(42)
    path = lars_run(obs, 1.0, LarsOptions(k_max=3))
    text = export_csv(path)
    lines = text.strip().split("\n")
    assert lines[0] == "k,lambda,t_i,re_a_i,im_a_i"
    n_rows = sum(len(knot.active) for knot in path.knots)
    assert len(lines) == 1 + n_rows
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == path.knots[0].lam
    assert float(row[2]) == path.knots[0].active[0]
    # the entering point always carries weight zero
    last = lines[-1].split(",")
    assert float(last[3]) == 0.0 and float(last[4]) == 0.0
