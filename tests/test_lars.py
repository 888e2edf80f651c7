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
        (h, jac, a), (h_o, jac_o, a_o) = real(leg, lam, x), lars_system(leg, lam, x)
        # h vanishes on the path; its scale is that of the terms 2 Re(conj(c p) Z')
        # it sums, with |c p_j| = lambda
        assert np.max(np.abs(h - h_o)) <= 1e-12 * 2.0 * lam * np.max(np.abs(z_deriv(leg.obs, x)))
        assert np.max(np.abs(jac - jac_o)) <= 1e-12 * np.max(np.abs(jac_o))
        assert np.max(np.abs(a - a_o)) <= 1e-12 * np.max(np.abs(a_o))


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
        x_sol, _ = leg.newton(lam, leg.x)
        for x in (x_sol, x_sol + 0.01 * np.cos(np.arange(j))):
            _, jac, _ = leg.system(lam, x)
            num = np.empty_like(jac)
            for i in range(j):
                step = np.zeros(j)
                step[i] = fd
                num[:, i] = (leg.system(lam, x + step)[0] - leg.system(lam, x - step)[0]) / (2 * fd)
            assert np.max(np.abs(jac - num)) <= 1e-6 * np.max(np.abs(jac))


def test_off_support_max_dominates_a_fine_grid(monkeypatch):
    # Every event probe along a path against an independent residual
    # (kernel sum) on 2^16 points, masked outside the merge discs: the full
    # off_support_max sweeps with the largest peak they report, and the
    # candidate gaps the knot search reads.  20 to 32 probes a path: four
    # paths are spied so that more than 60 probes are checked.
    calls, tracked = [], []
    n_checked = 0
    real = lars._Leg.off_support_max
    real_candidate = lars._Leg.candidate_gap

    def spy(leg, x, a):
        out = real(leg, x, a)
        calls.append((leg.two_s2, np.array(x), np.array(a), out))
        return out

    def spy_candidate(leg, lam, x, a, cand):
        out = real_candidate(leg, lam, x, a, cand)
        if out is not None:
            tracked.append((leg.two_s2, np.array(x), np.array(a), out[0] + lam, out[1][0]))
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

        for two_s2, x, a, (val, loc, peak) in calls:
            dist = np.min(np.abs(wrap_delta(np.subtract.outer(t, x))), axis=1)
            vals = np.abs(z_t - fit(t, two_s2, x, a))
            masked = np.where(dist >= lars._MERGE_RADIUS, vals, -np.inf)
            assert val >= np.max(masked) - 1e-12
            # grid peaks whose two neighbours are outside the discs too
            is_peak = (masked >= np.roll(masked, 1)) & (masked >= np.roll(masked, -1))
            is_peak &= np.isfinite(np.roll(masked, 1)) & np.isfinite(np.roll(masked, -1))
            assert np.max(masked[is_peak], initial=-np.inf) - 1e-12 <= peak <= val
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
    x, a = leg.newton(0.995 * leg.lam_prev, leg.x)
    real_peaks = lars.z_peaks
    peaks = []

    def spy(*args, **kwargs):
        out = real_peaks(*args, **kwargs)
        peaks.append(out[0])
        return out

    monkeypatch.setattr(lars, "z_peaks", spy)
    ref_val, ref_loc, ref_peak = leg.off_support_max(x, a)
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
    val, loc, peak = leg.off_support_max(x, a)
    assert len(brackets) == starts[0] >= 2 and len(starts) == 1
    assert val == pytest.approx(ref_val, rel=1e-12)
    assert peak == pytest.approx(ref_peak, rel=1e-12)
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
    bracket on the global gap, each with one probe) it makes, and the order
    of its Newton solves: "h" for a halving, "f" for a false-position step."""
    probes, evals, halvings, solves = [], [], [], []
    real_locate = lars._Leg.locate
    real_probe = lars._Leg.off_support_max
    real_candidate = lars._Leg.candidate_gap
    real_midpoint = lars._Leg._midpoint
    real_newton = lars._Leg.newton
    inside, halving = [False], [False]

    def locate(leg, lo, hi):
        probes.append(0)
        evals.append(0)
        halvings.append(0)
        solves.append("")
        inside[0] = True
        try:
            return real_locate(leg, lo, hi)
        finally:
            inside[0] = False

    def probe(leg, x, a):
        if inside[0]:
            probes[-1] += 1
        return real_probe(leg, x, a)

    def candidate(leg, lam, x, a, cand):
        evals[-1] += 1
        return real_candidate(leg, lam, x, a, cand)

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
            solves[-1] += "f"
        return real_newton(leg, lam, x0)

    monkeypatch.setattr(lars._Leg, "locate", locate)
    monkeypatch.setattr(lars._Leg, "off_support_max", probe)
    monkeypatch.setattr(lars._Leg, "candidate_gap", candidate)
    monkeypatch.setattr(lars._Leg, "_midpoint", midpoint)
    monkeypatch.setattr(lars._Leg, "newton", newton)
    return probes, evals, halvings, solves


def _assert_same_knots(paths, reference, rel=2e-9, loc=1e-7):
    for path, ref in zip(paths, reference):
        assert path.status == ref.status
        assert len(path.knots) == len(ref.knots)
        for knot, ref_knot in zip(path.knots, ref.knots):
            assert abs(knot.lam - ref_knot.lam) <= rel * ref_knot.lam
            shift = wrap_delta(np.array(knot.active) - np.array(ref_knot.active))
            assert np.max(np.abs(shift)) <= loc


def test_event_search_matches_bisection(monkeypatch):
    # The false-position search on the crossing candidate against plain
    # bisection on the global gap, forced by losing the candidate at once.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    probes, _, halvings, _ = _spy_event_search(monkeypatch)
    fast = [lars_run(obs, 1.0, opts) for obs in observations]
    # One probe per knot confirms the search.  Where the entering peak is
    # born inside the bracket, as on (5220, 0), a few halvings of the global
    # gap, one probe each, precede false position; no search falls back.
    assert len(probes) == 32
    assert all(n == 1 + h for n, h in zip(probes, halvings))
    resumed = max(halvings)

    probes.clear()
    halvings.clear()
    monkeypatch.setattr(lars._Leg, "candidate_gap", lambda leg, lam, x, a, cand: None)
    slow = [lars_run(obs, 1.0, opts) for obs in observations]
    assert probes == halvings
    assert min(probes) >= 20 > resumed
    _assert_same_knots(fast, slow)


@pytest.mark.parametrize("route", ["refused_polish", "failed_confirmation"])
def test_event_search_falls_back_to_bisection(monkeypatch, route):
    observations = [_gaussian_obs(seed, index) for seed, index in _EXHIBITS] + [_noisy_obs(42)]
    probes, _, _, _ = _spy_event_search(monkeypatch)
    if route == "refused_polish":
        # Every Newton polish refused: the candidate is lost at the hi end,
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

        def low(leg, lam, x, a, cand):
            out = spied(leg, lam, x, a, cand)
            return None if out is None else (out[0] - 1e-4, out[1])

        monkeypatch.setattr(lars._Leg, "candidate_gap", low)
    for obs in observations:
        path = lars_run(obs, 1.0, LarsOptions(k_max=4))
        assert path.status == "reached_k_max"
        _path_invariants(obs, path)
    # about log2(w / 1e-9) bisection probes per knot on a bracket of w
    # lambda: 24 after a 1% march step, 27 after a 10% one
    assert len(probes) == 6
    assert all(18 <= n <= 30 for n in probes)


def test_event_search_converges_on_a_curved_gap(monkeypatch):
    # A sign-preserving concave transform of the candidate gap keeps every
    # knot but flattens the gap on the lo side: plain false position then
    # creeps from that end, and only the Illinois halving of the retained
    # end's value gets the search to the bisection width in a few steps.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    reference = [lars_run(obs, 1.0, opts) for obs in observations]
    probes, evals, halvings, _ = _spy_event_search(monkeypatch)
    spied = lars._Leg.candidate_gap

    def curved(leg, lam, x, a, cand):
        out = spied(leg, lam, x, a, cand)
        return None if out is None else (-math.expm1(-300.0 * out[0]) / 300.0, out[1])

    monkeypatch.setattr(lars._Leg, "candidate_gap", curved)
    paths = [lars_run(obs, 1.0, opts) for obs in observations]
    assert all(n == 1 + h for n, h in zip(probes, halvings))
    assert sum(evals) <= 12 * len(evals)
    _assert_same_knots(paths, reference)


def test_event_search_resumes_false_position_after_a_birth(monkeypatch):
    # On (5220, 0) the peak that enters at the fourth knot is born inside
    # the bracket of the last march step: the argmax at the lo end does not
    # exist at the hi end.  A few halvings of the global gap find a hi end
    # where it does, and false position goes on from there, within the one
    # locate call of the knot, with no halving after its first step.
    obs = _gaussian_obs(5220, 0)
    opts = LarsOptions(k_max=4)
    probes, _, halvings, solves = _spy_event_search(monkeypatch)
    fast = lars_run(obs, 1.0, opts)
    assert len(probes) == 2
    assert halvings[0] == 0 < halvings[1]
    assert "f" in solves[1] and "fh" not in solves[1]
    assert probes[1] == halvings[1] + 1

    fast_probes = list(probes)
    probes.clear()
    monkeypatch.setattr(lars._Leg, "candidate_gap", lambda leg, lam, x, a, cand: None)
    slow = lars_run(obs, 1.0, opts)
    assert len(probes) == 2
    assert fast_probes[1] < probes[1]
    _assert_same_knots([fast], [slow])


def test_fine_march_finds_the_same_knots(monkeypatch):
    # The march with steps fixed at 0.1% of lambda, ten times below the
    # floor of the predicted steps, as an oracle for knots skipped by a
    # long step: a peak that crosses lambda and falls back within one step.
    observations = _agreement_obs()
    opts = LarsOptions(k_max=4)
    predicted = [lars_run(obs, 1.0, opts) for obs in observations]
    monkeypatch.setattr(lars, "_STEP_FLOOR", 1e-3)
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
