"""Special functions, the bracketed maximizer and RNG streams, and the
quadrature oracle the Kac-Rice closed forms are checked against."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import (
    QuadratureSpec,
    gamma_ratio_unknown_variance,
    integrate_upper,
    normal_pdf,
    normal_sf,
    rng_normal,
    rng_uniform,
    student_log_sf_odd,
)
from scipy.special import erfcx, log_ndtr, ndtr
from scipy.stats import t as student_t

from srknots.numerics import (
    RngStream,
    log_normal_sf,
    log_student_sf,
    maximize_bracketed,
    mills_ratio,
    sf_ratio,
    student_pdf,
    student_sf,
)


def test_normal_pdf_basics():
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert normal_pdf(3.0) == pytest.approx(math.exp(-4.5) / math.sqrt(2.0 * math.pi), rel=1e-14)
    x = np.linspace(-6, 6, 41)
    assert np.all(normal_pdf(x) > 0)


def test_normal_sf_monotone_and_values():
    assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-16)
    x = np.linspace(-8, 8, 200)
    sf = normal_sf(x)
    assert np.all(np.diff(sf) < 0)
    # deep tail keeps relative accuracy (erfc route, no 1 - Phi cancellation)
    assert normal_sf(10.0) == pytest.approx(7.61985302416053e-24, rel=1e-12)


def test_sf_ratio_beyond_the_underflow_of_the_tails():
    # both tails underflow as plain floats (normal_sf(40) is 0), the ratio does not
    assert normal_sf(40.0) == 0.0
    value = sf_ratio(45.0, 40.0)
    assert isinstance(value, float) and math.isfinite(value) and 0.0 < value <= 1.0
    x1 = np.linspace(-2.0, 10.0, 97)
    x2 = x1 - np.linspace(0.0, 3.0, 97)
    assert sf_ratio(x1, x2) == pytest.approx(normal_sf(x1) / normal_sf(x2), rel=1e-12)
    # Student tails: Fbar_nu(t) = C t^-nu (1 + O(nu / t^2)), so doubling t
    # divides it by 2^nu, to about nu / t^2 = 5e-6 relative here
    assert student_sf(1e4, 481) == 0.0
    assert sf_ratio(2e4, 1e4, 481) == pytest.approx(2.0 ** -481, rel=1e-4)
    assert sf_ratio(x1, x2, 13) == pytest.approx(student_sf(x1, 13) / student_sf(x2, 13),
                                                 rel=1e-12)


def test_student_sf_monotone_and_symmetry():
    for dof in (5, 11, 13):
        x = np.linspace(-10, 10, 101)
        sf = student_sf(x, dof)
        assert np.all(np.diff(sf) < 0)
        assert student_sf(0.0, dof) == pytest.approx(0.5, abs=1e-15)
        assert student_sf(-2.0, dof) == pytest.approx(1.0 - student_sf(2.0, dof), abs=1e-14)


_TINY = np.finfo(float).tiny


def test_gaussian_tails_match_scipy():
    # normal_sf, log_normal_sf and sf_ratio against scipy.special on
    # x in [-40, 1e4].  Where scipy's ndtr flushes a subnormal tail to 0,
    # normal_sf returns that subnormal.
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.geomspace(40.0, 1e4, 2000)])
    ref = ndtr(-x)
    sf = normal_sf(x)
    normal = ref >= _TINY
    assert np.all(np.abs(sf - ref)[normal] <= 1e-12 * ref[normal])
    assert np.all(sf[~normal] < _TINY)
    log_ref = log_ndtr(-x)
    assert np.all(np.abs(log_normal_sf(x) - log_ref) <= 1e-12 * np.abs(log_ref) + 1e-300)
    # a ratio read from two logs carries their absolute error, which grows
    # like x^2 eps: 1e-14 (1 + x1^2) relative
    for shift in (0.1, 1.0, 3.0):
        x2 = x - shift
        ratio_ref = np.exp(log_ndtr(-x) - log_ndtr(-x2))
        kept = ratio_ref >= _TINY
        err = np.abs(sf_ratio(x, x2) - ratio_ref)[kept] / ratio_ref[kept]
        assert np.all(err <= 1e-14 * (1.0 + x[kept] ** 2))
    assert math.isinf(log_normal_sf(math.inf)) and log_normal_sf(-math.inf) == 0.0


def test_mills_ratio_matches_scipy():
    # M(x) = sqrt(pi / 2) erfcx(x / sqrt 2), through erfc up to x = 30 and
    # Laplace's continued fraction past it: 1e-12 relative
    x = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(40.0, 1e4, 400)])
    ref = math.sqrt(0.5 * math.pi) * erfcx(x / math.sqrt(2.0))
    assert np.all(np.abs(mills_ratio(x) - ref) <= 1e-12 * ref)


def test_student_functions_match_scipy():
    # odd dof from 5 to 481 on t in [-1e4, 1e4]: sf and pdf within
    # 1e-12 max(1, dof / 40) relative, where scipy's value is a normal
    # double; where scipy flushes a subnormal sf to 0, ours is below the
    # smallest normal double too.  The log of the tail is within the same
    # bound times max(1, |log sf|) of scipy's logsf wherever that is
    # finite, and past scipy's underflow within 1e-14 relative of the
    # odd-dof series (oracles.student_log_sf_odd), which is itself checked
    # against scipy on the tail t >= 40.
    t = np.concatenate([np.linspace(-40.0, 40.0, 1601), np.geomspace(40.0, 1e4, 200),
                        -np.geomspace(40.0, 1e4, 200)])
    tail = t >= 40.0
    underflows = 0
    for dof in range(5, 482, 2):
        bound = 1e-12 * max(1.0, dof / 40.0)
        ref = student_t.sf(t, dof)
        sf = student_sf(t, dof)
        normal = ref >= _TINY
        assert np.all(np.abs(sf - ref)[normal] <= bound * ref[normal]), dof
        assert np.all(sf[~normal] < _TINY), dof
        pdf_ref = student_t.pdf(t, dof)
        kept = pdf_ref >= _TINY
        assert np.all(np.abs(student_pdf(t, dof) - pdf_ref)[kept] <= bound * pdf_ref[kept]), dof
        log_ref = student_t.logsf(t, dof)
        log_sf = log_student_sf(t, dof)
        finite = np.isfinite(log_ref)
        assert np.all(np.abs(log_sf - log_ref)[finite]
                      <= bound * np.maximum(1.0, np.abs(log_ref[finite]))), dof
        series = student_log_sf_odd(t[tail], dof)
        both = finite[tail]
        assert np.all(np.abs(series - log_ref[tail])[both] <= 1e-14 * np.abs(series[both])), dof
        assert np.all(np.abs(log_sf[tail] - series)[~both] <= 1e-14 * np.abs(series[~both])), dof
        underflows += np.count_nonzero(~finite)
    assert underflows > 10000  # scipy's underflow is reached, so the series check runs
    # several dofs in one call, scalars in and out
    two = student_sf(np.array([[2.0], [2.0]]), np.array([[5], [29]]))
    assert two[:, 0] == pytest.approx([student_sf(2.0, 5), student_sf(2.0, 29)], rel=1e-15)
    assert isinstance(student_sf(2.0, 5), float)
    assert student_sf(math.inf, 7) == 0.0 and student_sf(-math.inf, 7) == 1.0


def test_student_pdf_normalization():
    for dof in (5, 13):
        total = integrate_upper(lambda t: student_pdf(t, dof), 0.0, 1.0,
                                QuadratureSpec(tail_cut=600.0))
        assert total == pytest.approx(0.5, abs=1e-10)


def test_student_dof_validation():
    with pytest.raises(ValueError):
        student_pdf(0.0, 0)
    with pytest.raises(ValueError):
        student_sf(0.0, -2)


def test_gamma_ratio_is_one():
    # the Gamma-recurrence constant; evaluated, not assumed
    for m in (8, 14, 30, 62):
        assert abs(gamma_ratio_unknown_variance(m) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        gamma_ratio_unknown_variance(3)


def test_gaussian_tail_identities():
    # int_L phi = sf(L); int_L t phi = pdf(L); int_L t^2 phi = L pdf(L) + sf(L)
    for lower in (0.0, 0.5, 1.0, 2.0, 4.0):
        i0 = integrate_upper(lambda u: normal_pdf(u), lower, 1.0)
        i1 = integrate_upper(lambda u: u * normal_pdf(u), lower, 1.0)
        i2 = integrate_upper(lambda u: u * u * normal_pdf(u), lower, 1.0)
        assert i0 == pytest.approx(normal_sf(lower), abs=1e-10)
        assert i1 == pytest.approx(normal_pdf(lower), abs=1e-10)
        assert i2 == pytest.approx(lower * normal_pdf(lower) + normal_sf(lower), abs=1e-10)


def test_student_tail_identities():
    # with c = sqrt((m-1)/(m-3)) and kappa = 1/c:
    #   int_L f_{m-1}(tc) dt     = kappa * Fbar_{m-1}(Lc)
    #   int_L t f_{m-1}(tc) dt   = kappa * f_{m-3}(L)
    #   int_L t^2 f_{m-1}(tc) dt = kappa * (L f_{m-3}(L) + Fbar_{m-3}(L))
    spec = QuadratureSpec(node_count=64, tail_cut=600.0)
    for m in (8, 14, 30):
        c = math.sqrt((m - 1.0) / (m - 3.0))
        kappa = 1.0 / c
        for lower in (0.0, 0.5, 2.0):
            i0 = integrate_upper(lambda t: student_pdf(t * c, m - 1), lower, 1.0, spec)
            i1 = integrate_upper(lambda t: t * student_pdf(t * c, m - 1), lower, 1.0, spec)
            i2 = integrate_upper(lambda t: t * t * student_pdf(t * c, m - 1), lower, 1.0, spec)
            assert i0 == pytest.approx(kappa * student_sf(lower * c, m - 1), abs=1e-8)
            assert i1 == pytest.approx(kappa * student_pdf(lower, m - 3), abs=1e-8)
            assert i2 == pytest.approx(
                kappa * (lower * student_pdf(lower, m - 3) + student_sf(lower, m - 3)),
                abs=1e-8,
            )


def test_integrate_upper_far_tail_vanishes():
    val = integrate_upper(lambda u: u * u * normal_pdf(u), 40.0, 1.0)
    assert abs(val) < 1e-15


def test_integrate_upper_validation():
    with pytest.raises(ValueError):
        integrate_upper(lambda u: normal_pdf(u), 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_upper(lambda u: np.full_like(u, np.nan), 0.0, 1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=4)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_cut=-1.0)


def _with_derivatives(f, f1, f2):
    return lambda x: (f(x), f1(x), f2(x))


def test_maximize_bracketed_quadratic():
    fun = _with_derivatives(lambda x: -((x - 1.0) ** 2), lambda x: -2.0 * (x - 1.0),
                            lambda x: np.full_like(x, -2.0))
    argmax, val = maximize_bracketed(fun, 0.0, 0.3, 2.0)[:2]
    assert argmax[0] == pytest.approx(1.0, abs=1e-12)
    assert val[0] == pytest.approx(0.0, abs=1e-14)


def test_maximize_bracketed_cosine():
    # a fourth array from fun rides along with its point
    def fun(x):
        return np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)

    argmax, val, slope, curv, sine = maximize_bracketed(fun, -1.0, 0.5, 1.0)
    assert argmax[0] == pytest.approx(0.0, abs=1e-12)
    assert val[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(slope[0]) < 1e-12 and curv[0] == pytest.approx(-1.0, abs=1e-15)
    assert sine[0] == pytest.approx(0.0, abs=1e-12)


def test_maximize_bracketed_x_exp():
    # several brackets at once, each with its own inner point
    fun = _with_derivatives(lambda x: x * np.exp(-x), lambda x: (1.0 - x) * np.exp(-x),
                            lambda x: (x - 2.0) * np.exp(-x))
    argmax, val = maximize_bracketed(fun, [0.0, 0.5, 0.9], [2.5, 0.6, 1.0], [5.0, 3.0, 1.1])[:2]
    assert np.max(np.abs(argmax - 1.0)) < 1e-12
    assert np.all(np.abs(val - math.exp(-1.0)) < 1e-15)


def test_maximize_bracketed_degenerate_bracket():
    fun = _with_derivatives(np.cos, np.sin, np.cos)
    with pytest.raises(ValueError):
        maximize_bracketed(fun, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        maximize_bracketed(fun, [0.0, 0.0], [1.0, 2.0], [2.0, 1.0])


def test_maximize_bracketed_max_at_bracket_end():
    # an end higher than the inner point: the search starts there and stays
    # when f' points out of the bracket; else it finds the maximum inside
    fun = _with_derivatives(np.sin, np.cos, lambda x: -np.sin(x))
    argmax, val = maximize_bracketed(fun, [0.0, 0.5, 1.2], [0.5, 1.0, 1.5], [1.2, 1.6, 1.4e1])[:2]
    assert argmax[0] == 1.2 and val[0] == math.sin(1.2)
    assert argmax[1] == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert argmax[2] == pytest.approx(0.5 * math.pi, abs=1e-12)


def test_maximize_bracketed_min_then_max():
    # f = 3x - x^3 has its minimum at -1 and its maximum at 1.  At the inner
    # point f'' > 0, and the Newton step would land near the minimum, inside
    # the bracket: it must bisect up the slope instead, and never look left
    calls = []

    def fun(x):
        calls.append(x)
        return 3.0 * x - x**3, 3.0 - 3.0 * x * x, -6.0 * x

    argmax, val = maximize_bracketed(fun, -1.2, -0.7, 2.0)[:2]
    assert argmax[0] == pytest.approx(1.0, abs=1e-12)
    assert val[0] == pytest.approx(2.0, abs=1e-15)
    assert calls[0].size == 3 and all(x.size == 1 and x[0] > -0.7 for x in calls[1:])
    assert len(calls) < 12


def test_maximize_bracketed_flat_slope_bisects_the_longer_side():
    # f = x^2 - x^4 at 0: f' = 0 exactly and f'' > 0, so the first step
    # bisects the longer side, here the right one, up to 1 / sqrt(2)
    fun = _with_derivatives(lambda x: x**2 - x**4, lambda x: 2.0 * x - 4.0 * x**3,
                            lambda x: 2.0 - 12.0 * x * x)
    argmax, val = maximize_bracketed(fun, [-1.05, -1.1], 0.0, [1.1, 1.05])[:2]
    assert argmax == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)], abs=1e-12)
    assert val == pytest.approx([0.25, 0.25], abs=1e-15)


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every statistic through run_experiment and a LARS path, run in a fresh
# interpreter, which then must not have loaded any part of scipy: the
# package's special functions are built on math and numpy alone.  (Here the
# test modules have loaded scipy as an oracle.)
_NO_SCIPY = """
import sys
from srknots import (AlternativeSpec, AtomicMeasure, ExperimentConfig, LarsOptions, RngStream,
                     compute_certificate, lars_run, run_experiment, synthesize)
stats = ("rice", "t_rice", "spacing", "grid", "t_grid", "grid_spacing_3", "grid_spacing_10",
         "grid_spacing_32", "grid_spacing_50")
table = run_experiment(ExperimentConfig(f_c=7, reps=3, seed=1, statistics=stats))
assert not table.failures, table.failures
run_experiment(ExperimentConfig(f_c=3, reps=2, seed=1, statistics=("rice",),
                                alternative=AlternativeSpec(1, (60.0,))))
compute_certificate(synthesize(AtomicMeasure.from_atoms([(2.0, 1.5)]), 7, 0.0, RngStream(0)))
null3 = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(5, 0))
path = lars_run(null3, 1.0, LarsOptions(k_max=4))
assert len(path.knots) >= 2, path.status
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, "scipy modules were imported: %s" % loaded
"""


def test_package_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(_REPO, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rng_stream_determinism():
    a = rng_normal(RngStream(7, 3), size=32)
    b = rng_normal(RngStream(7, 3), size=32)
    assert np.array_equal(a, b)
    c = rng_normal(RngStream(7, 4), size=32)
    assert not np.array_equal(a, c)
    d = rng_uniform(RngStream(7, 3), size=32)
    e = rng_uniform(RngStream(7, 3), size=32)
    assert np.array_equal(d, e)


def test_rng_normal_sample_mean():
    draws = rng_normal(RngStream(2024, 0), size=100_000)
    assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)


def test_rng_uniform_ks():
    draws = np.sort(rng_uniform(RngStream(2024, 1), size=100_000))
    n = draws.size
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - draws), np.max(draws - (i - 1) / n))
    assert ks < 1.63 / math.sqrt(n)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
