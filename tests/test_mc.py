"""Monte-Carlo harness: determinism, summaries, CSV/SVG panels."""

import math
import os

import numpy as np
import pytest
from oracles import two_spike_rejection_sample
from scipy.stats import ks_2samp

from srknots import mc
from srknots.knots import compute_certificate
from srknots.mc import (
    AlternativeSpec,
    EcdfTable,
    ExperimentConfig,
    ExperimentTable,
    ecdf_multi,
    emit_csv,
    emit_svg,
    empirical_level,
    ks_uniform,
    reproduce_figure,
    run_experiment,
)
from srknots.model import AtomicMeasure, circular_distance, synthesize
from srknots.numerics import RngStream
from srknots.stats import grid_test_known, lambda2_bar, rice_known, voronoi_sample

TWO_PI = 2.0 * math.pi


def test_alternative_spec_validation():
    with pytest.raises(ValueError):
        AlternativeSpec(n_spikes=3, weights=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        AlternativeSpec(n_spikes=1, weights=())
    for weight in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            AlternativeSpec(n_spikes=1, weights=(weight,))
    assert AlternativeSpec().alt_id == "null"
    assert AlternativeSpec(n_spikes=1, weights=(2.0,)).alt_id == "1spike_2"
    assert AlternativeSpec(n_spikes=2, weights=(1.0, 2.5)).alt_id == "2spike_1_2.5"


def test_two_spike_separation():
    rng = RngStream(5, 0).generator()
    spec = AlternativeSpec(n_spikes=2, weights=(1.0, 1.0))
    for _ in range(200):
        t1, t2 = spec.draw_measure(7, rng).locations
        assert circular_distance(t1, t2) >= TWO_PI / 7
    # at f_c = 2 the separation is pi: antipodal pairs, whose
    # distance can read pi less a rounding error
    for _ in range(50):
        t1, t2 = spec.draw_measure(2, rng).locations
        assert circular_distance(t1, t2) >= math.pi * (1.0 - 1e-15)
    # at f_c = 1 it is 2 pi, which no pair reaches
    with pytest.raises(ValueError, match="f_c >= 2"):
        spec.draw_measure(1, rng)


@pytest.mark.parametrize("sep", [TWO_PI / 7, TWO_PI / 3])
def test_two_spike_law_matches_rejection(sep):
    # two-sample KS against uniform pairs drawn again until they are sep
    # apart, on t1, t2 and their distance, inside the 1% band; sep is the
    # separation 2 pi / f_c of f_c = 7 and f_c = 3
    f_c = round(TWO_PI / sep)
    spec = AlternativeSpec(n_spikes=2, weights=(1.0, 1.0))
    assert spec.separation(f_c) == sep
    n = 3000
    gen = RngStream(43, 0).generator()
    new = np.array([spec.draw_measure(f_c, gen).locations for _ in range(n)])
    ref = np.array([two_spike_rejection_sample(sep, gen) for _ in range(n)])
    band = 1.63 * math.sqrt(2.0 / n)
    for f in (lambda d: d[:, 0], lambda d: d[:, 1],
              lambda d: circular_distance(d[:, 0], d[:, 1])):
        assert ks_2samp(f(new), f(ref)).statistic < band


def test_experiment_config_validation():
    ok = dict(f_c=3, reps=4, seed=0, statistics=("rice",))
    ExperimentConfig(**ok)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "reps": 0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "sigma": 0.0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "statistics": ()})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "statistics": ("rice", "bogus")})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "statistics": ("grid_spacing_x",)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "statistics": ("grid_spacing_1",)})
    # two spikes at the separation 2 pi / f_c need f_c >= 2
    spikes = AlternativeSpec(n_spikes=2, weights=(1.0, 1.0))
    ExperimentConfig(**{**ok, "f_c": 2, "alternative": spikes})
    with pytest.raises(ValueError, match="f_c >= 2"):
        ExperimentConfig(**{**ok, "f_c": 1, "alternative": spikes})


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_experiment_config_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        run_experiment(ExperimentConfig(f_c=3, reps=2, seed=1,
                                        statistics=("rice", "grid_spacing_10"), sigma=sigma))


def test_statistics_record_their_smallest_cutoff():
    # t_rice needs 2N - 3 >= 5 degrees of freedom; t_grid runs at f_c = 1
    assert mc.STATISTICS["t_rice"].min_fc == 2
    assert all(needs.min_fc == 1 for name, needs in mc.STATISTICS.items() if name != "t_rice")
    with pytest.raises(ValueError, match="needs f_c >= 2"):
        ExperimentConfig(f_c=1, reps=2, seed=1, statistics=("t_rice",))
    ExperimentConfig(f_c=2, reps=2, seed=1, statistics=("t_rice",))
    obs = synthesize(AtomicMeasure.empty(), 1, 1.0, RngStream(3, 0))
    with pytest.raises(ValueError, match="needs f_c >= 2"):
        mc.evaluate_statistics(obs, ("t_rice",), None, None)
    table = run_experiment(ExperimentConfig(f_c=1, reps=3, seed=1, statistics=("t_grid",)))
    assert not table.failures
    assert np.all((table.values["t_grid"] >= 0.0) & (table.values["t_grid"] <= 1.0))


def test_run_experiment_deterministic_and_subset_consistent():
    full = ExperimentConfig(
        f_c=3, reps=12, seed=77, statistics=("rice", "spacing", "grid", "t_grid")
    )
    table1 = run_experiment(full)
    table2 = run_experiment(full)
    for name in full.statistics:
        assert np.array_equal(table1.values[name], table2.values[name])
    # recomputing a subset of statistics reproduces the same numbers
    rice_only = ExperimentConfig(f_c=3, reps=12, seed=77, statistics=("rice",))
    assert np.array_equal(run_experiment(rice_only).values["rice"], table1.values["rice"])
    assert table1.n_excluded == 0


def test_rep_is_a_function_of_its_stream():
    # replication r draws everything from RngStream(seed, r) in the fixed
    # order (spike locations, noise, Voronoi uniform), so it can be redone alone
    config = ExperimentConfig(f_c=3, reps=8, seed=31, statistics=("rice", "grid"))
    table = run_experiment(config)
    for rep in (0, 5):
        rng = RngStream(config.seed, rep).generator()
        obs = synthesize(config.alternative.draw_measure(config.f_c, rng),
                         config.f_c, config.sigma, rng)
        ctx = obs.context()
        cert = compute_certificate(obs)
        hess = np.asarray(cert.R) - ctx.lambda_tilde() * cert.lambda1
        l2_bar = lambda2_bar(cert.lambda1, cert.lambda2, hess, voronoi_sample(hess, rng), ctx)
        assert rice_known(cert, config.sigma, ctx).value == table.values["rice"][rep]
        assert grid_test_known(cert.lambda1, l2_bar, config.sigma).value == table.values["grid"][rep]


_ALL_NINE = ("rice", "t_rice", "spacing", "grid", "t_grid", "grid_spacing_3",
             "grid_spacing_10", "grid_spacing_32", "grid_spacing_50")


@pytest.mark.parametrize("f_c, seed, alternative", [
    (7, 701, AlternativeSpec()),
    (15, 1703765494, AlternativeSpec(1, (math.sqrt(31.0),))),
])
def test_block_matches_rep_by_rep(f_c, seed, alternative):
    # reps 0-24 taken as one block by run_experiment and each alone through
    # evaluate_statistics (the block route on a stack of one): every value
    # and every failure the same, bit for bit
    config = ExperimentConfig(f_c=f_c, reps=25, seed=seed, statistics=_ALL_NINE,
                              alternative=alternative)
    assert config.reps <= mc.BLOCK_REPS
    table = run_experiment(config)
    failures = []
    for rep in range(config.reps):
        rng = RngStream(seed, rep).generator()
        obs = synthesize(alternative.draw_measure(f_c, rng), f_c, config.sigma, rng)
        for name, report in mc.evaluate_statistics(obs, _ALL_NINE, config.sigma, rng).items():
            if isinstance(report, str):
                failures.append((rep, name, report))
                assert np.isnan(table.values[name][rep])
            else:
                assert report.value == table.values[name][rep], (rep, name)
    assert sorted(failures) == table.failures


def test_exact_statistics_uniform_null(mc_table):
    config = ExperimentConfig(
        f_c=3, reps=300, seed=2026, statistics=("rice", "spacing", "grid_spacing_10")
    )
    table = mc_table(config)
    assert table.n_excluded == 0
    bound = 1.63 / math.sqrt(config.reps)  # 1% KS band
    assert ks_uniform(table.values["rice"]) < bound
    assert ks_uniform(table.values["grid_spacing_10"]) < bound
    # the spacing statistic over-rejects at small f_c
    assert empirical_level(table.values["spacing"], 0.05) > 0.06


def test_ks_uniform_exact():
    n = 10
    mid = (np.arange(1, n + 1) - 0.5) / n
    assert ks_uniform(mid) == pytest.approx(1.0 / (2 * n), abs=1e-15)
    assert ks_uniform(np.zeros(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ks_uniform(np.array([]))


def test_empirical_level_exact():
    vals = np.array([0.01, 0.04, 0.05, 0.2])
    assert empirical_level(vals, 0.05) == 0.75
    assert empirical_level(vals, 0.001) == 0.0
    with pytest.raises(ValueError):
        empirical_level(np.array([]), 0.05)


def test_ecdf_shape():
    table = ecdf_multi({"s": np.array([0.2, 0.5, 0.9])})
    col = table.columns["s"]
    assert table.grid[0] == 0.0 and table.grid[-1] == 1.0
    assert col[0] == 0.0 and col[-1] == 1.0
    assert np.all(np.diff(col) >= 0.0)
    assert col[256] == pytest.approx(2.0 / 3.0)  # grid midpoint 0.5
    with pytest.raises(ValueError):
        ecdf_multi({"s": np.array([])})


def test_emit_csv_round_trip(tmp_path):
    config = ExperimentConfig(f_c=3, reps=3, seed=11, statistics=("rice", "grid_spacing_10"))
    table = run_experiment(config)
    path = tmp_path / "table.csv"
    emit_csv(table, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rep,statistic,value,fc,alt_id,seed"
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        rep, name, value, fc, alt, seed = line.split(",")
        assert float(value) == table.values[name][int(rep)]  # 17g round-trips
        assert (fc, alt, seed) == ("3", "null", "11")


def test_emit_svg_structure(tmp_path):
    curves = EcdfTable(
        grid=np.linspace(0.0, 1.0, 9),
        columns={"rice": np.linspace(0.0, 1.0, 9), "spacing": np.linspace(0.0, 1.0, 9) ** 2},
    )
    path = tmp_path / "panel.svg"
    emit_svg(curves, str(path), title="panel")
    text = path.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text and 'width="600" height="600"' in text
    assert text.count("<polyline") == 2
    assert "stroke-dasharray" in text  # reference diagonal
    assert ">rice</text>" in text and ">spacing</text>" in text
    assert ">panel</text>" in text
    emit_svg(curves, str(tmp_path / "again.svg"), title="panel")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


def test_n_excluded_counts_reps_once():
    config = ExperimentConfig(f_c=3, reps=4, seed=0, statistics=("rice", "t_rice"))
    table = ExperimentTable(
        config=config,
        values={},
        failures=[(3, "rice", "x"), (3, "t_rice", "x"), (1, "rice", "y")],
    )
    assert table.n_excluded == 2


def test_reproduce_figure_tiny(tmp_path):
    created = reproduce_figure("fig3", seed=1, reps=2, out_dir=str(tmp_path))
    assert len(created) == 6  # three panels, csv + svg each
    for path in created:
        assert os.path.exists(path)
        assert os.path.dirname(path) == str(tmp_path / "fig3")
    with pytest.raises(ValueError):
        reproduce_figure("fig9", seed=1, reps=2, out_dir=str(tmp_path))


def _regressed_field_grid_max(obs, z_hat, lambda1, m_t=512, m_theta=128, min_gap=0.05):
    """max of lambda1 + (X - lambda1) / (1 - rho) over an m_t x m_theta grid of
    the torus where 1 - rho >= min_gap, from the model formulas alone."""
    n = obs.n_freq
    k = np.arange(-obs.f_c, obs.f_c + 1)
    t = TWO_PI * np.arange(m_t) / m_t
    theta = TWO_PI * np.arange(m_theta) / m_theta
    z = np.exp(1j * np.outer(t, k)) @ obs.y / math.sqrt(n)
    x = np.real(np.outer(z, np.exp(-1j * theta)))
    gamma = (1.0 + 2.0 * np.cos(np.outer(t - z_hat.t, k[k > 0])).sum(axis=1)) / n
    rho = np.outer(gamma, np.cos(theta - z_hat.theta))
    away = 1.0 - rho >= min_gap
    return float(np.max(lambda1 + (x[away] - lambda1) / (1.0 - rho[away])))


@pytest.mark.parametrize("reps, seed, weight", [
    (10, 1703765494, math.sqrt(31)),  # rep 3 used to fail
    (30, 5, 50.0),                    # reps 6 and 22 used to fail
])
def test_high_snr_spike_excludes_no_replication(reps, seed, weight):
    # the second knot of a strong spike used to come from a Nelder-Mead
    # simplex that raised Unconverged on some reps, which dropped out of power
    config = ExperimentConfig(f_c=15, reps=reps, seed=seed, statistics=("rice",),
                              alternative=AlternativeSpec(1, (weight,)))
    table = run_experiment(config)
    assert table.n_excluded == 0
    assert np.all(np.isfinite(table.values["rice"]))
    for rep in range(reps):
        rng = RngStream(seed, rep).generator()
        measure = config.alternative.draw_measure(config.f_c, rng)
        obs = synthesize(measure, config.f_c, config.sigma, rng)
        cert = compute_certificate(obs)
        assert cert.lambda2 <= cert.lambda1
        grid_max = _regressed_field_grid_max(obs, cert.z_hat, cert.lambda1)
        assert cert.lambda2 >= grid_max - 1e-9 * max(1.0, cert.lambda1)


@pytest.mark.parametrize("f_c", [15, 30])
def test_exact_statistics_uniform_null_at_large_cutoff(f_c):
    # the acceptance gate stops at f_c = 7; rice, t_rice and grid stay
    # uniform under the null at f_c = 15 and 30, inside the 1% KS band
    config = ExperimentConfig(f_c=f_c, reps=1200, seed=6001,
                              statistics=("rice", "t_rice", "grid"))
    table = run_experiment(config)
    assert table.n_excluded == 0
    bound = 1.63 / math.sqrt(config.reps)
    for name in config.statistics:
        assert ks_uniform(table.values[name]) < bound, name
