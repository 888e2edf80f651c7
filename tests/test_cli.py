"""Command-line interface: JSON payloads, exit codes, promotion rules."""

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from srknots import mc
from srknots.cli import parse_and_dispatch
from srknots.errors import NotAMaximum
from srknots.knots import compute_certificate, first_knot
from srknots.mc import AlternativeSpec, ExperimentConfig, ks_uniform, run_experiment
from srknots.model import Observation, load_observation, save_observation, synthesize
from srknots.numerics import RngStream
from srknots.stats import (
    grid_spacing_test,
    grid_test_known,
    grid_test_unknown,
    lambda2_bar,
    rice_known,
    rice_unknown,
    spacing_statistic,
    voronoi_sample,
)
from srknots.variance import sigma_hat_cond, sigma_hat_grid


def _run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def obs_file(tmp_path, capsys):
    path = str(tmp_path / "obs.json")
    code, out, _ = _run(
        capsys, "simulate", "--fc", "3", "--sigma", "1.0", "--seed", "42",
        "--out", path,
    )
    assert code == 0
    return path


def test_simulate_writes_loadable_observation(tmp_path, capsys):
    path = str(tmp_path / "obs.json")
    code, out, _ = _run(
        capsys, "simulate", "--fc", "3", "--sigma", "0.5", "--seed", "7",
        "--spike", "2.0:1.2:0.3", "--out", path,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"out": path, "fc": 3, "sigma": 0.5, "n_spikes": 1, "seed": 7}
    obs = load_observation(path)
    assert obs.f_c == 3 and obs.sigma == 0.5 and obs.y.size == 7


def test_simulate_spike_validation(tmp_path, capsys):
    path = str(tmp_path / "obs.json")
    base = ["simulate", "--fc", "3", "--sigma", "1.0", "--seed", "1", "--out", path]
    assert _run(capsys, *base, "--spike", "abc:1.0")[0] == 2
    assert _run(capsys, *base, "--spike", "2.0")[0] == 2  # location is required here
    assert _run(capsys, *base, "--spike", "-1.0:0.5")[0] == 2
    # a non-finite weight, location or phase is a usage error, caught before
    # any arithmetic can warn
    power = ["power", "--fc", "3", "--seed", "1", "--reps", "2", "--stat", "rice"]
    for argv in (base + ["--spike", "inf:1"], base + ["--spike", "nan:1"],
                 base + ["--spike", "1:nan"], base + ["--spike", "1:1:inf"],
                 power + ["--spike", "inf"], power + ["--spike", "nan"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, *argv)
        assert code == 2 and err.startswith("error: bad --spike"), argv


def test_knots_payload(obs_file, capsys):
    code, out, _ = _run(capsys, "knots", "--obs", obs_file)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "z_hat", "lambda1", "y_hat", "lambda2", "alpha2", "alpha3", "R",
        "grad_norm_at_zhat",
    }
    _, lambda1 = first_knot(load_observation(obs_file))
    assert payload["lambda1"] == pytest.approx(lambda1, rel=1e-15)
    assert payload["lambda2"] < payload["lambda1"]
    assert payload["R"][0][1] == pytest.approx(payload["alpha3"], rel=1e-12)


def _library_report(obs, stat, sigma):
    """The report of one statistic by direct library calls, seed 1 for the
    Voronoi draw as in the CLI cases below (on this observation it moves
    lambda2-bar above lambda2)."""
    ctx = obs.context()
    if stat == "grid_spacing_10":
        return grid_spacing_test(obs, 10, sigma)
    cert = compute_certificate(obs)
    if stat == "rice":
        return rice_known(cert, sigma, ctx)
    if stat == "t_rice":
        return rice_unknown(cert, sigma_hat_cond(obs, cert.z_hat), ctx)
    if stat == "spacing":
        return spacing_statistic(cert.lambda1, cert.lambda2, sigma)
    hess = np.asarray(cert.R) - ctx.lambda_tilde() * cert.lambda1
    u_draw = voronoi_sample(hess, RngStream(1))
    l2_bar = lambda2_bar(cert.lambda1, cert.lambda2, hess, u_draw, ctx)
    if stat == "grid":
        return grid_test_known(cert.lambda1, l2_bar, sigma)
    return grid_test_unknown(cert.lambda1, l2_bar, sigma_hat_grid(obs, cert.z_hat), ctx)


@pytest.mark.parametrize("argv, stat, blind", [
    (("rice",), "rice", False),
    (("t-rice",), "t_rice", False),
    (("st",), "spacing", False),
    (("grid", "--seed", "1"), "grid", False),
    (("t-grid", "--seed", "1"), "t_grid", False),
    (("grid-st", "--grid", "10"), "grid_spacing_10", False),
    (("rice",), "t_rice", True),
], ids=["rice", "t-rice", "st", "grid", "t-grid", "grid-st", "rice-promoted"])
def test_test_rice_matches_library(tmp_path, obs_file, capsys, argv, stat, blind):
    # the CLI's value and aux fields equal the direct library calls bit for bit
    # (17g round-trips exactly); without a noise level rice runs as t_rice
    obs = load_observation(obs_file)
    path = obs_file
    if blind:
        path = str(tmp_path / "blind.json")
        save_observation(Observation(f_c=obs.f_c, y=obs.y, sigma=None), path)
    code, out, _ = _run(capsys, "test", "--stat", argv[0], "--obs", path, *argv[1:])
    assert code == 0
    payload = json.loads(out)
    report = _library_report(obs, stat, obs.sigma)
    assert payload == {"name": stat, "value": report.value, **report.aux}


def test_test_idempotent_output(obs_file, capsys):
    _, out1, _ = _run(capsys, "test", "--stat", "rice", "--obs", obs_file)
    _, out2, _ = _run(capsys, "test", "--stat", "rice", "--obs", obs_file)
    assert out1 == out2


def test_randomized_tests_need_seed(obs_file, capsys):
    code, _, err = _run(capsys, "test", "--stat", "grid", "--obs", obs_file)
    assert code == 2 and "--seed" in err
    code, out, _ = _run(capsys, "test", "--stat", "grid", "--obs", obs_file,
                        "--seed", "3")
    assert code == 0
    assert json.loads(out)["name"] == "grid"
    code, _, err = _run(capsys, "test", "--stat", "grid-st", "--obs", obs_file)
    assert code == 2 and "--grid" in err
    code, out, _ = _run(capsys, "test", "--stat", "grid-st", "--obs", obs_file,
                        "--grid", "10")
    assert code == 0
    assert json.loads(out)["name"] == "grid_spacing_10"


def test_sigma_promotion_when_unknown(tmp_path, obs_file, capsys):
    # strip the recorded noise level and ask for sigma-dependent statistics
    obs = load_observation(obs_file)
    blind = str(tmp_path / "blind.json")
    save_observation(Observation(f_c=obs.f_c, y=obs.y, sigma=None), blind)
    code, out, _ = _run(capsys, "test", "--stat", "rice", "--obs", blind)
    assert code == 0 and json.loads(out)["name"] == "t_rice"
    code, out, _ = _run(capsys, "test", "--stat", "grid", "--obs", blind,
                        "--seed", "3")
    assert code == 0 and json.loads(out)["name"] == "t_grid"
    code, _, err = _run(capsys, "test", "--stat", "st", "--obs", blind)
    assert code == 1 and "noise level" in err
    code, _, _ = _run(capsys, "test", "--stat", "grid-st", "--obs", blind,
                      "--grid", "10")
    assert code == 1
    # an explicit --sigma restores the exact statistic
    code, out, _ = _run(capsys, "test", "--stat", "rice", "--obs", blind,
                        "--sigma", "1.0")
    assert code == 0 and json.loads(out)["name"] == "rice"


def test_usage_errors_exit_2(obs_file, capsys):
    assert _run(capsys, "test", "--stat", "nope", "--obs", obs_file)[0] == 2
    assert _run(capsys, "test", "--obs", obs_file)[0] == 2
    assert _run(capsys, "knots")[0] == 2
    assert _run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_sigma_is_a_usage_error(tmp_path, obs_file, capsys, value):
    out_path = tmp_path / "never.json"
    commands = [
        ["simulate", "--fc", "3", "--seed", "1", "--out", str(out_path)],
        ["test", "--stat", "rice", "--obs", obs_file],
        ["lars", "--obs", obs_file],
        ["calibrate", "--fc", "3", "--seed", "1", "--reps", "2", "--stat", "rice"],
        ["power", "--fc", "3", "--seed", "1", "--reps", "2", "--stat", "rice",
         "--spike", "2.0"],
    ]
    for argv in commands:
        code, out, err = _run(capsys, *argv, "--sigma", value)
        assert (code, out) == (2, ""), argv
        assert "must be finite" in err
    assert not out_path.exists()


def test_non_finite_sigma_in_observation_file_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"fc": 3, "sigma": Infinity, "y": %s}' % ([[1.0, 0.5]] * 7,))
    code, out, err = _run(capsys, "test", "--stat", "rice", "--obs", str(path))
    assert (code, out) == (2, "")
    assert "positive finite number" in err


def test_json_booleans_in_observation_file_are_a_schema_error(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text('{"fc": true, "sigma": true, "y": [[1, 0], [true, false], [0, 1]]}')
    code, out, err = _run(capsys, "knots", "--obs", str(path))
    assert (code, out) == (2, "")
    assert "fc must be an integer" in err


@pytest.mark.parametrize("command, extra", [("calibrate", []), ("power", ["--spike", "2.0"])])
def test_t_rice_below_its_smallest_cutoff_is_a_usage_error(capsys, command, extra):
    argv = [command, "--fc", "1", "--seed", "1", "--reps", "3", *extra]
    code, out, err = _run(capsys, *argv, "--stat", "t-rice")
    assert (code, out) == (2, "")
    assert "needs f_c >= 2" in err
    # t_grid has no such bound
    code, out, _ = _run(capsys, *argv, "--stat", "t-grid")
    assert code == 0 and json.loads(out)["excluded"] == 0


@pytest.mark.parametrize("stat, blind", [("t-rice", False), ("rice", True)])
def test_test_below_a_statistics_smallest_cutoff_is_a_schema_error(tmp_path, capsys, stat, blind):
    # rice on a sigma-less observation is promoted to t_rice, which needs f_c >= 2
    path = str(tmp_path / "fc1.json")
    argv = ["simulate", "--fc", "1", "--sigma", "1", "--seed", "3", "--out", path]
    assert _run(capsys, *argv)[0] == 0
    if blind:
        save_observation(Observation(f_c=1, y=load_observation(path).y, sigma=None), path)
    code, out, err = _run(capsys, "test", "--stat", stat, "--obs", path)
    assert (code, out) == (2, "")
    assert "'t_rice' needs f_c >= 2" in err


def test_negative_noise_level_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "never.json"
    argv = ["simulate", "--fc", "3", "--seed", "1", "--out", str(out_path)]
    code, out, err = _run(capsys, *argv, "--sigma", "-1")
    assert (code, out) == (2, "")
    assert "must be >= 0" in err
    assert not out_path.exists()
    # 0 stays allowed: it draws the noiseless observation
    code, out, _ = _run(capsys, *argv, "--sigma", "0")
    assert code == 0 and json.loads(out)["sigma"] == 0.0
    obs = load_observation(str(out_path))
    assert obs.sigma is None
    assert np.array_equal(obs.y, np.zeros(7, dtype=complex))


@pytest.mark.parametrize("value", ["0", "-1", "-0.0"])
def test_lars_non_positive_sigma_is_a_usage_error(obs_file, capsys, value):
    code, out, err = _run(capsys, "lars", "--obs", obs_file, "--sigma", value)
    assert (code, out) == (2, "")
    assert "must be positive" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("stat", ["rice", "st", "grid", "grid-st"])
def test_test_non_positive_sigma_is_a_usage_error(obs_file, capsys, stat, value):
    extra = {"grid": ["--seed", "3"], "grid-st": ["--grid", "10"]}.get(stat, [])
    code, out, err = _run(capsys, "test", "--stat", stat, "--obs", obs_file,
                          "--sigma", value, *extra)
    assert (code, out) == (2, "")
    assert "must be positive" in err


def test_out_of_bound_arguments_are_usage_errors(tmp_path, obs_file, capsys):
    out_path = tmp_path / "never.json"
    mc_args = ["--seed", "1", "--stat", "rice"]
    cases = [
        (["lars", "--obs", obs_file, "--lambda-min", "nan"], "must be finite"),
        (["lars", "--obs", obs_file, "--lambda-min", "0"], "must be positive"),
        (["lars", "--obs", obs_file, "--kmax", "1"], "must be >= 2"),
        (["test", "--stat", "grid-st", "--obs", obs_file, "--grid", "1"], "must be >= 2"),
        (["simulate", "--fc", "0", "--sigma", "1", "--seed", "1", "--out", str(out_path)],
         "must be >= 1"),
        (["reproduce", "fig3", "--seed", "1", "--reps", "0", "--out", str(tmp_path)],
         "must be >= 1"),
    ]
    for command, extra in (("calibrate", []), ("power", ["--spike", "2.0"])):
        base = [command] + mc_args + extra
        cases += [
            (base + ["--fc", "3", "--reps", "0"], "must be >= 1"),
            (base + ["--fc", "0", "--reps", "2"], "must be >= 1"),
            (base + ["--fc", "3", "--reps", "2", "--sigma", "0"], "must be positive"),
            (base + ["--fc", "3", "--reps", "2", "--sigma", "-1"], "must be positive"),
            ([command, "--fc", "3", "--reps", "2", "--seed", "1", "--stat", "grid-st",
              "--grid", "1"] + extra, "must be >= 2"),
        ]
    for argv, message in cases:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv
    assert not out_path.exists()


def test_computation_errors_exit_1(tmp_path, capsys):
    # constant-modulus process: every phase shift ties, no isolated maximizer
    y = np.zeros(7, dtype=complex)
    y[3] = 2.0
    flat = str(tmp_path / "flat.json")
    save_observation(Observation(f_c=3, y=y, sigma=1.0), flat)
    code, _, err = _run(capsys, "knots", "--obs", flat)
    assert code == 1 and err.startswith("error:")
    assert _run(capsys, "test", "--stat", "rice", "--obs", flat)[0] == 1
    # an unreadable input is a schema problem, not a computation failure
    assert _run(capsys, "knots", "--obs", str(tmp_path / "missing.json"))[0] == 2


def test_lars_payload_and_csv(tmp_path, obs_file, capsys):
    csv_path = str(tmp_path / "path.csv")
    code, out, _ = _run(capsys, "lars", "--obs", obs_file, "--kmax", "3",
                        "--out", csv_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reached_k_max"
    assert payload["out"] == csv_path
    assert [knot["k"] for knot in payload["knots"]] == [1, 2, 3]
    lams = [knot["lambda"] for knot in payload["knots"]]
    assert lams == sorted(lams, reverse=True)
    assert payload["knots"][0]["weights"][0] == [0.0, 0.0]
    with open(csv_path) as handle:
        assert handle.readline().strip() == "k,lambda,t_i,re_a_i,im_a_i"


def test_calibrate_summary(capsys):
    code, out, _ = _run(
        capsys, "calibrate", "--fc", "3", "--seed", "4", "--reps", "6",
        "--stat", "grid-st", "--grid", "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["statistic"] == "grid_spacing_10"
    assert payload["alt_id"] == "null"
    assert set(payload["level"]) == {"0.01", "0.05", "0.10"}
    assert 0.0 <= payload["ks_uniform"] <= 1.0
    assert payload["excluded"] == 0


def test_power_takes_bare_weights(capsys):
    code, out, _ = _run(
        capsys, "power", "--fc", "3", "--seed", "9", "--reps", "5",
        "--stat", "rice", "--spike", "2.6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alt_id"] == "1spike_2.6"
    assert payload["power_at_0.05"] == payload["level"]["0.05"]
    code, _, err = _run(
        capsys, "power", "--fc", "3", "--seed", "9", "--reps", "5",
        "--stat", "rice", "--spike", "2.6:1.0",
    )
    assert code == 2 and "bare weights" in err
    assert _run(capsys, "power", "--fc", "3", "--seed", "9", "--reps", "5",
                "--stat", "rice")[0] == 2


def test_grid_power_at_a_high_signal_to_noise_ratio(capsys):
    # lambda2-bar passes 38 sigma on some of these reps, where both Gaussian
    # tails of the grid ratio underflow as plain floats
    code, out, _ = _run(capsys, "power", "--fc", "3", "--seed", "1", "--reps", "20",
                        "--stat", "grid", "--spike", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["excluded"] == 0 and payload["power_at_0.05"] == 1


def test_power_two_spikes_need_room_on_the_circle(capsys):
    # the default separation 2 pi / f_c is pi at f_c = 2 (antipodal pairs)
    # and 2 pi at f_c = 1, which no pair reaches: a usage error
    argv = ("power", "--seed", "1", "--reps", "2", "--stat", "rice", "--spike", "1",
            "--spike", "1")
    code, out, _ = _run(capsys, *argv, "--fc", "2")
    assert code == 0
    assert json.loads(out)["alt_id"] == "2spike_1_1"
    code, _, err = _run(capsys, *argv, "--fc", "1")
    assert code == 2 and "f_c >= 2" in err


def test_failed_rep_stays_in_the_denominator(monkeypatch, capsys):
    # a rep whose certificate raises counts as a rejection at every level in
    # calibrate and as a non-rejection in power; the KS distance stays over
    # the finite p-values
    fc, seed, reps, failing = 3, 9, 6, 2
    null, spike = AlternativeSpec(), AlternativeSpec(1, (4.0,))
    finite, targets = {}, []
    for alt in (null, spike):
        config = ExperimentConfig(f_c=fc, reps=reps, seed=seed, statistics=("rice",),
                                  alternative=alt)
        finite[alt] = np.delete(run_experiment(config).values["rice"], failing)
        rng = RngStream(seed, failing).generator()
        targets.append(synthesize(alt.draw_measure(fc, rng), fc, 1.0, rng).y)
    real = mc.compute_certificates

    def flaky(obs):
        # the certificates of a block, with the target rep's turned into a failure
        cert, errors = real(obs)
        return cert, [NotAMaximum("injected failure")
                      if any(np.array_equal(row, y) for y in targets) else err
                      for row, err in zip(obs.y, errors)]

    monkeypatch.setattr(mc, "compute_certificates", flaky)
    argv = ("--fc", str(fc), "--seed", str(seed), "--reps", str(reps), "--stat", "rice")

    code, out, _ = _run(capsys, "power", *argv, "--spike", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["excluded"] == 1
    assert payload["power_at_0.05"] == np.count_nonzero(finite[spike] <= 0.05) / reps
    assert payload["ks_uniform"] == ks_uniform(finite[spike])

    code, out, _ = _run(capsys, "calibrate", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["excluded"] == 1
    assert payload["ks_uniform"] == ks_uniform(finite[null])
    for alpha in ("0.01", "0.05", "0.10"):
        expected = (np.count_nonzero(finite[null] <= float(alpha)) + 1) / reps
        assert payload["level"][alpha] == expected


def test_level_summary_when_every_rep_fails(monkeypatch, capsys):
    # with no finite p-value the KS distance is null, and the level counts
    # every rep: a rejection in calibrate, a non-rejection in power
    real = mc.compute_certificates

    def failing(obs):
        cert, errors = real(obs)
        return cert, [NotAMaximum("injected failure")] * len(errors)

    monkeypatch.setattr(mc, "compute_certificates", failing)
    argv = ("--fc", "3", "--seed", "4", "--reps", "5", "--stat", "rice")
    for command, extra, level in (("calibrate", (), 1.0), ("power", ("--spike", "4"), 0.0)):
        code, out, _ = _run(capsys, command, *argv, *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["ks_uniform"] is None
        assert payload["excluded"] == 5
        assert payload["level"] == {"0.01": level, "0.05": level, "0.10": level}


def test_reproduce_tiny(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "reproduce", "fig6", "--seed", "2", "--reps", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["files"]) == 6
    assert all(os.path.exists(p) for p in payload["files"])


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_command():
    """The out-of-process CLI: the console script if installed, else ``-m``.

    Returns ``(argv_prefix, env)``.  Without an install the package is run
    from this checkout's ``src/``, put first on the child's ``PYTHONPATH``.
    """
    if shutil.which("srknots"):
        return ["srknots"], None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(_REPO, "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "srknots"], env


def _console_script_target():
    """The ``srknots`` entry of ``[project.scripts]`` in pyproject.toml."""
    path = os.path.join(_REPO, "pyproject.toml")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        section = None
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line.startswith("["):
                    section = line
                elif section == "[project.scripts]" and "=" in line:
                    key, value = (part.strip() for part in line.split("=", 1))
                    if key == "srknots":
                        return value.strip("\"'")
        return None
    with open(path, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"].get("srknots")


def test_console_script_smoke(tmp_path):
    # the script and `python -m srknots` must both reach cli.main
    assert _console_script_target() == "srknots.cli:main"
    cmd, env = _cli_command()
    path = str(tmp_path / "obs.json")
    proc = subprocess.run(
        cmd + ["simulate", "--fc", "3", "--sigma", "1.0", "--seed", "1",
               "--out", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["fc"] == 3
    proc = subprocess.run(cmd + ["knots", "--obs", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "lambda1" in json.loads(proc.stdout)
