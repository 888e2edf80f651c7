"""Observation model: Dirichlet kernel, correlation, forward map, Z and X."""

import math

import numpy as np
import pytest
from oracles import (
    correlation,
    correlation_grad,
    correlation_hess,
    dirichlet,
    gamma_deriv,
    torus_delta,
    x_eval,
    x_grad,
    x_hess,
    z_deriv,
)
from scipy.stats import kstest

from srknots.errors import SchemaError
from srknots.model import (
    AtomicMeasure,
    ModelContext,
    Observation,
    TorusPoint,
    circular_distance,
    kernel_gamma,
    load_observation,
    save_observation,
    synthesize,
    wrap_delta,
    z_eval,
)
from srknots.numerics import RngStream

TWO_PI = 2.0 * math.pi


def _noisy_obs(seed, f_c=3, sigma=1.0):
    return synthesize(AtomicMeasure.empty(), f_c, sigma, RngStream(seed, 0))


def test_wrap_helpers():
    assert wrap_delta(3.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-12)
    assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    p = TorusPoint.make(-1.0, 7.0)
    assert 0.0 <= p.t < TWO_PI and 0.0 <= p.theta < TWO_PI
    d = torus_delta((0.1, 0.1), (TWO_PI - 0.1, 0.2))
    assert d[0] == pytest.approx(0.2, abs=1e-12)
    assert d[1] == pytest.approx(-0.1, abs=1e-12)


def test_model_context_constants():
    for f_c in (1, 3, 7):
        ctx = ModelContext(f_c)
        n = 2 * f_c + 1
        assert ctx.n_freq == n
        assert ctx.m == 2 * n
        k = np.arange(-f_c, f_c + 1)
        assert ctx.alpha1 == pytest.approx(np.sum(k**2) / n, rel=1e-15)
        assert np.array_equal(ctx.lambda_tilde(), np.diag([ctx.alpha1, 1.0]))
    with pytest.raises(ValueError):
        ModelContext(0)


def test_atomic_measure_construction():
    m = AtomicMeasure.from_atoms([(1.2, 2.5), (4.0, 1j)])
    assert m.n_atoms == 2
    assert AtomicMeasure.empty().n_atoms == 0
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([(1.0, 1.0), (1.0 + TWO_PI, 2.0)])


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(f_c=3, y=np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        Observation(f_c=1, y=np.zeros(3, dtype=complex), sigma=-1.0)
    # f_c = 0 would write a file that load_observation rejects
    with pytest.raises(ValueError, match="f_c must be >= 1"):
        Observation(f_c=0, y=np.zeros(1, dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observation_rejects_non_finite_input(bad):
    y = np.ones(3, dtype=complex)
    y[0] = bad
    with pytest.raises(ValueError, match="y must be finite"):
        Observation(f_c=1, y=y, sigma=1.0)
    with pytest.raises(ValueError, match="y must be finite"):
        Observation(f_c=1, y=np.array([1.0, complex(1.0, bad), 1.0]), sigma=1.0)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        Observation(f_c=1, y=np.ones(3, dtype=complex), sigma=bad)


@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_load_rejects_non_finite_sigma(tmp_path, token):
    path = tmp_path / "obs.json"
    path.write_text('{"fc": 1, "sigma": %s, "y": [[1, 0], [0, 1], [1, 1]]}' % token)
    with pytest.raises(SchemaError, match="positive finite number"):
        load_observation(path)


@pytest.mark.parametrize("text, match", [
    ('{"fc": true, "sigma": 1.0, "y": [[1, 0], [0, 1], [1, 1]]}', "fc must be an integer"),
    ('{"fc": 1, "sigma": true, "y": [[1, 0], [0, 1], [1, 1]]}', "sigma must be"),
    ('{"fc": 1, "sigma": 1.0, "y": [[1, 0], [true, false], [0, 1]]}', r"y\[1\] must be"),
])
def test_load_rejects_json_booleans(tmp_path, text, match):
    # Python reads JSON true and false as bool, a subclass of int
    path = tmp_path / "obs.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        load_observation(path)


def test_dirichlet_values():
    assert dirichlet(3, 0.0) == pytest.approx(7.0, abs=1e-12)
    assert dirichlet(3, TWO_PI / 7.0) == pytest.approx(0.0, abs=1e-12)
    assert dirichlet(3, math.pi) == pytest.approx(-1.0, abs=1e-12)


def test_dirichlet_near_zero_branch():
    # t small enough to hit the cosine-sum branch; must agree with the limit N
    for t in (1e-9, -1e-9, TWO_PI + 1e-10):
        assert dirichlet(3, t) == pytest.approx(7.0, abs=1e-10)
    # and the two branches agree where they meet
    t = 2.1e-8
    direct = math.sin(3.5 * t) / math.sin(0.5 * t)
    assert dirichlet(3, t) == pytest.approx(direct, rel=1e-9)
    arr = dirichlet(3, np.array([0.0, 1e-9, math.pi]))
    assert arr == pytest.approx([7.0, 7.0, -1.0], abs=1e-9)


def test_kernel_gamma_matches_dirichlet_and_derivatives():
    f_c = 5
    n = 2 * f_c + 1
    t = np.linspace(0.1, TWO_PI - 0.1, 23)
    assert kernel_gamma(f_c, t) == pytest.approx(dirichlet(f_c, t) / n, rel=1e-12)
    h = 1e-5
    g1_fd = (kernel_gamma(f_c, t + h) - kernel_gamma(f_c, t - h)) / (2 * h)
    g2_fd = (kernel_gamma(f_c, t + h) - 2 * kernel_gamma(f_c, t) + kernel_gamma(f_c, t - h)) / h**2
    assert gamma_deriv(f_c, t, 1) == pytest.approx(g1_fd, abs=1e-6)
    assert gamma_deriv(f_c, t, 2) == pytest.approx(g2_fd, abs=1e-4)


def test_kernel_gamma_bounded_below_one():
    # Gamma(0) = 1 and |Gamma| < 1 away from 0
    for f_c in (1, 3, 7):
        assert kernel_gamma(f_c, 0.0) == pytest.approx(1.0, abs=1e-14)
        t = np.linspace(0, TWO_PI, 10_001)[1:-1]
        assert np.all(np.abs(kernel_gamma(f_c, t)) < 1.0)


def test_correlation_at_zero():
    ctx = ModelContext(3)
    assert correlation(ctx, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert correlation_grad(ctx, (0.0, 0.0)) == pytest.approx([0.0, 0.0], abs=1e-15)
    hess = correlation_hess(ctx, (0.0, 0.0))
    assert hess == pytest.approx(-np.diag([ctx.alpha1, 1.0]), abs=1e-12)


def test_correlation_special_points():
    ctx = ModelContext(3)
    assert correlation(ctx, (0.0, math.pi)) == pytest.approx(-1.0, abs=1e-15)
    assert correlation(ctx, (math.pi, 0.0)) == pytest.approx(-1.0 / 7.0, rel=1e-12)


def test_correlation_derivatives_match_finite_differences():
    ctx = ModelContext(4)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(5):
        dz = rng.uniform(0.3, 5.0, size=2)
        grad = correlation_grad(ctx, dz)
        hess = correlation_hess(ctx, dz)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (correlation(ctx, dz + e) - correlation(ctx, dz - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-7)
            fd2 = (
                correlation_grad(ctx, dz + e) - correlation_grad(ctx, dz - e)
            ) / (2 * h)
            assert hess[:, i] == pytest.approx(fd2, abs=1e-6)


def test_one_minus_rho_sinc_identity():
    # 1 - rho(dz) = (r^2 / 2N) sum_k c_k^2 sinc^2(r c_k / 2), c_k = k cos a - sin a
    rng = np.random.default_rng(5)
    for f_c in (1, 3, 7):
        ctx = ModelContext(f_c)
        n = 2 * f_c + 1
        k = np.arange(-f_c, f_c + 1)
        for _ in range(20):
            r = rng.uniform(1e-4, 3.0)
            a = rng.uniform(0.0, TWO_PI)
            ck = k * math.cos(a) - math.sin(a)
            den = np.sum(ck**2 * np.sinc(r * ck / TWO_PI) ** 2) / (2.0 * n)
            lhs = 1.0 - correlation(ctx, (r * math.cos(a), r * math.sin(a)))
            assert abs(den * r * r - lhs) < 1e-12


def test_synthesize_noiseless_forward_map():
    f_c, x, a = 3, 2.2, 1.7
    obs = synthesize(AtomicMeasure.from_atoms([(x, a)]), f_c, 0.0, RngStream(0))
    n = 2 * f_c + 1
    k = np.arange(-f_c, f_c + 1)
    expected = a * np.exp(-1j * k * x) / math.sqrt(n)
    assert obs.y == pytest.approx(expected, abs=1e-15)
    assert obs.sigma is None


def test_synthesize_linearity():
    f_c = 3
    m1 = AtomicMeasure.from_atoms([(1.0, 2.0)])
    m2 = AtomicMeasure.from_atoms([(4.0, 0.5 - 1j)])
    m12 = AtomicMeasure.from_atoms([(1.0, 2.0), (4.0, 0.5 - 1j)])
    y1 = synthesize(m1, f_c, 0.0, RngStream(0)).y
    y2 = synthesize(m2, f_c, 0.0, RngStream(0)).y
    y12 = synthesize(m12, f_c, 0.0, RngStream(0)).y
    assert y12 == pytest.approx(y1 + y2, abs=1e-15)


def test_synthesize_deterministic_and_noise_moments():
    obs1 = _noisy_obs(9)
    obs2 = _noisy_obs(9)
    assert np.array_equal(obs1.y, obs2.y)
    assert obs1.sigma == 1.0
    ys = np.concatenate([_noisy_obs(s, f_c=1).y for s in range(500)])
    assert abs(ys.mean()) < 0.1
    assert np.mean(np.abs(ys) ** 2) == pytest.approx(2.0, abs=0.15)


def test_z_eval_noiseless_atom():
    f_c, x, a = 3, 1.1, 2.0 + 0.5j
    obs = synthesize(AtomicMeasure.from_atoms([(x, a)]), f_c, 0.0, RngStream(0))
    n = 2 * f_c + 1
    assert z_eval(obs, x) == pytest.approx(a, abs=1e-14)
    for t in (0.0, 2.5, 5.0):
        expected = a * dirichlet(f_c, t - x) / n
        assert z_eval(obs, t) == pytest.approx(expected, abs=1e-13)


def test_z_eval_dc_only():
    f_c = 2
    y = np.zeros(5, dtype=complex)
    y[f_c] = 3.0 - 1.0j  # k = 0 slot
    obs = Observation(f_c=f_c, y=y, sigma=1.0)
    c = (3.0 - 1.0j) / math.sqrt(5)
    for t in (0.0, 1.0, 4.0):
        assert z_eval(obs, t) == pytest.approx(c, abs=1e-15)


def test_z_deriv_matches_finite_differences():
    obs = _noisy_obs(3)
    h = 1e-6
    for t in (0.3, 2.0, 5.5):
        fd1 = (z_eval(obs, t + h) - z_eval(obs, t - h)) / (2 * h)
        assert z_deriv(obs, t, 1) == pytest.approx(fd1, abs=1e-6)
        fd2 = (z_deriv(obs, t + h, 1) - z_deriv(obs, t - h, 1)) / (2 * h)
        assert z_deriv(obs, t, 2) == pytest.approx(fd2, abs=1e-5)


def test_z_parseval():
    obs = _noisy_obs(17)
    n_q = 16 * obs.n_freq
    t = np.linspace(0.0, TWO_PI, n_q, endpoint=False)
    integral = np.mean(np.abs(z_eval(obs, t)) ** 2)  # trapezoid on a full period
    assert abs(integral - np.sum(np.abs(obs.y) ** 2) / obs.n_freq) < 1e-10


def test_x_eval_phase_flip_and_envelope():
    obs = _noisy_obs(23)
    rng = np.random.default_rng(1)
    for _ in range(10):
        t, th = rng.uniform(0, TWO_PI, size=2)
        assert x_eval(obs, (t, th + math.pi)) == pytest.approx(-x_eval(obs, (t, th)), abs=1e-13)
        z = z_eval(obs, t)
        th_star = math.atan2(z.imag, z.real)
        assert x_eval(obs, (t, th_star)) == pytest.approx(abs(z), abs=1e-13)
        ths = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert max(x_eval(obs, (t, u)) for u in ths) <= abs(z) + 1e-13


def test_x_derivatives_match_finite_differences():
    obs = _noisy_obs(31)
    h = 1e-5
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.uniform(0, TWO_PI, size=2)
        grad = x_grad(obs, z)
        hess = x_hess(obs, z)
        scale = max(1.0, abs(x_eval(obs, z)))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (x_eval(obs, z + e) - x_eval(obs, z - e)) / (2 * h)
            assert abs(grad[i] - fd) < 1e-6 * scale
            fd2 = (x_grad(obs, z + e) - x_grad(obs, z - e)) / (2 * h)
            assert np.max(np.abs(hess[:, i] - fd2)) < 1e-5 * scale
        assert hess[0, 1] == hess[1, 0]


def test_x_null_marginal_is_standard_normal():
    # X(z)/sigma under the null: 2000 reps against the normal CDF
    z = (1.0, 0.5)
    sigma = 2.0
    vals = np.array([
        x_eval(synthesize(AtomicMeasure.empty(), 3, sigma, RngStream(808, r)), z)
        for r in range(2000)
    ])
    ks = kstest(vals / sigma, "norm").statistic
    assert ks < 0.0364


def test_save_load_round_trip(tmp_path):
    obs = _noisy_obs(77)
    path = tmp_path / "obs.json"
    save_observation(obs, path)
    back = load_observation(path)
    assert back.f_c == obs.f_c
    assert back.sigma == obs.sigma
    assert np.array_equal(back.y, obs.y)


def test_save_load_sigma_null(tmp_path):
    obs = synthesize(AtomicMeasure.from_atoms([(1.0, 1.0)]), 2, None, RngStream(0))
    path = tmp_path / "noiseless.json"
    save_observation(obs, path)
    back = load_observation(path)
    assert back.sigma is None
    assert np.array_equal(back.y, obs.y)


def test_load_rejects_malformed_files(tmp_path):
    cases = {
        "not_json.json": "{{{",
        "not_object.json": "[1, 2]",
        "missing_y.json": '{"fc": 3, "sigma": 1.0}',
        "bad_fc.json": '{"fc": 0, "sigma": 1.0, "y": [[0, 0]]}',
        "bad_sigma.json": '{"fc": 1, "sigma": -2.0, "y": [[0,0],[0,0],[0,0]]}',
        "length_mismatch.json": '{"fc": 3, "sigma": 1.0, "y": [[0, 0], [1, 1]]}',
        "bad_row.json": '{"fc": 1, "sigma": 1.0, "y": [[0,0],[1],[0,0]]}',
        "bad_number.json": '{"fc": 1, "sigma": 1.0, "y": [[0,0],["a",0],[0,0]]}',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_observation(path)
