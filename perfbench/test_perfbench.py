"""Tests of the benchmark itself: a tiny run of every workload, one test per
correctness check fed a corrupted output, the counting of the ops a known
fault fails, and the tracer's handling of a module-level name that no longer
exists.

    python3 -m pytest -q perfbench
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import run

run.import_package()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import srknots  # noqa: E402
from srknots.lars import LarsKnot, LarsPath  # noqa: E402


# Ops of one tiny round that the program fails: rep 3 of the power round
# raises Unconverged, and the first LARS exhibit breaks the active equality.
TINY_FAILED = {"null_fc7": 0, "power_fc15": 1, "lars_fc3": 1}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload cut to a small round and a one-round traced pass: two
    null reps, the first four power reps, and the first LARS exhibit with the
    first stream path."""
    for wl in workloads.WORKLOADS.values():
        if wl.kind == "mc":
            monkeypatch.setattr(wl, "round_reps", 4 if wl.fixed_seed is not None else 2)
        else:
            monkeypatch.setattr(wl, "exhibits", wl.exhibits[:1])
            monkeypatch.setattr(wl, "stream_paths", 1)
        monkeypatch.setattr(wl, "trace_rounds", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_end_to_end(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.001",
                     "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == TINY_FAILED[workload]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert expected == {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_matches_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for metric in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert tracer.unit(metric["name"]) == metric["unit"]


def _null_obs(f_c=3, seed=2700):
    return srknots.synthesize(srknots.AtomicMeasure.empty(), f_c, 1.0, srknots.RngStream(seed, 0))


def _raises(name):
    return pytest.raises(checks.CheckFailed, match="^%s:" % name)


def test_pvalue_outside_unit_interval_fails():
    checks.check_pvalue_range("rice", [0.0, 0.3, 1.0, float("nan")])
    with _raises("pvalue_range"):
        checks.check_pvalue_range("rice", [0.2, 1.0 + 1e-12])


def test_non_uniform_pvalues_fail():
    rng = np.random.default_rng(0)
    checks.check_uniform({"rice": rng.random(2000)})
    with _raises("ks_uniform"):
        checks.check_uniform({"rice": rng.random(2000) ** 1.5})


def test_lambda1_off_the_fft_grid_fails():
    obs = _null_obs()
    cert = srknots.compute_certificate(obs)
    checks.check_lambda1(obs.y, obs.f_c, cert.lambda1)
    with _raises("lambda1_fft"):
        checks.check_lambda1(obs.y, obs.f_c, cert.lambda1 + 1e-3)
    with _raises("lambda1_fft"):
        checks.check_lambda1(obs.y, obs.f_c, cert.lambda1 - 1e-3)


def test_lambda2_above_lambda1_fails():
    obs = _null_obs()
    cert = srknots.compute_certificate(obs)
    checks.check_lambda2(obs.y, obs.f_c, cert.z_hat, cert.lambda1, cert.lambda2)
    with _raises("lambda2_order"):
        checks.check_lambda2(obs.y, obs.f_c, cert.z_hat, cert.lambda1, cert.lambda1 + 1e-9)


def test_lambda2_below_the_regressed_field_fails():
    obs = _null_obs()
    cert = srknots.compute_certificate(obs)
    with _raises("lambda2_grid"):
        checks.check_lambda2(obs.y, obs.f_c, cert.z_hat, cert.lambda1, cert.lambda2 - 0.05)


def test_grid_lambda1_above_lambda1_fails():
    obs = _null_obs(f_c=7)
    cert = srknots.compute_certificate(obs)
    lambda1_n = srknots.grid_knots(obs, 10)[0]
    checks.check_grid_lambda1(10, lambda1_n, cert.lambda1)
    with _raises("grid_lambda1"):
        checks.check_grid_lambda1(10, cert.lambda1 + 1e-6, cert.lambda1)


@pytest.fixture(scope="module")
def lars_case():
    obs = _null_obs(seed=2800)
    path = srknots.lars_run(obs, 1.0, srknots.LarsOptions(k_max=workloads.LarsWorkload.k_max))
    z_hat, lambda1 = srknots.first_knot(obs)
    _, lambda2 = srknots.second_knot(obs, z_hat, lambda1)
    checks.check_lars_path(obs.y, obs.f_c, 1.0, path, lambda1, lambda2)
    return obs, path, lambda1, lambda2


def _with_knots(path, knots):
    return LarsPath(knots=knots, status=path.status, sigma=path.sigma, f_c=path.f_c)


def test_lars_lambdas_not_decreasing_fail(lars_case):
    obs, path, lambda1, lambda2 = lars_case
    knots = list(path.knots)
    knots[1], knots[2] = knots[2], knots[1]
    with _raises("lars_decreasing"):
        checks.check_lars_path(obs.y, obs.f_c, 1.0, _with_knots(path, knots), lambda1, lambda2)


def test_lars_residual_off_lambda_k_fails(lars_case):
    obs, path, lambda1, lambda2 = lars_case
    knots = list(path.knots)
    k3 = knots[2]
    knots[2] = replace(k3, weights=(k3.weights[0] * 1.001,) + k3.weights[1:])
    with _raises("lars_active_equality"):
        checks.check_lars_path(obs.y, obs.f_c, 1.0, _with_knots(path, knots), lambda1, lambda2)


def test_lars_residual_above_lambda_k_off_support_fails(lars_case):
    obs, path, lambda1, lambda2 = lars_case
    # A one-point "path" at the antipode of t_hat: the residual there has
    # modulus lambda_k by construction, but |Z| reaches lambda1 elsewhere.
    t_far = (path.knots[0].active[0] + math.pi) % (2.0 * math.pi)
    lam = abs(checks.lars_residual_abs(obs.y, obs.f_c, 1.0, path.knots[0], [t_far])[0])
    knot = LarsKnot(lam=float(lam), active=(t_far,), weights=(0j,))
    with _raises("lars_global_bound"):
        checks.check_lars_path(obs.y, obs.f_c, 1.0, _with_knots(path, [knot]), lambda1, lambda2)


def test_lars_first_knots_off_the_certificate_fail(lars_case):
    obs, path, lambda1, lambda2 = lars_case
    with _raises("lars_first_knots"):
        checks.check_lars_path(obs.y, obs.f_c, 1.0, path, lambda1, lambda2 + 1e-6)


def test_lars_fault_counts_as_failed_only_on_an_exhibit(tiny):
    wl = workloads.WORKLOADS["lars_fc3"]
    observations = wl.round_input(3, 0)  # the first exhibit, then a stream path
    paths = wl.run(observations)
    assert wl.failed(observations, paths) == 1
    wl.check([(observations, paths)])
    # The same faulty path in the place of a stream path is a failed check.
    with _raises("lars_active_equality"):
        wl.check([(observations[::-1], paths[::-1])])


def test_a_round_that_does_not_repeat_round_0_fails(tiny):
    wl = workloads.WORKLOADS["lars_fc3"]
    observations = wl.round_input(3, 0)
    paths = wl.run(observations)
    later = list(paths)
    knot = later[1].knots[0]
    later[1] = _with_knots(later[1], [replace(knot, lam=np.nextafter(knot.lam, 0.0))]
                           + list(later[1].knots[1:]))
    wl.check([(observations, paths), (observations, list(paths))])
    with _raises("round_repeat"):
        wl.check([(observations, paths), (observations, later)])


def test_certificate_not_matching_the_timed_pvalue_fails(tiny):
    wl = workloads.WORKLOADS["null_fc7"]
    config = wl.round_input(3, 0)
    table = wl.run(config)
    wl.check([(config, table)])
    table.values["rice"][1] = np.nextafter(table.values["rice"][1], 2.0)
    with _raises("certificate_replay"):
        wl.check([(config, table)])


@pytest.mark.parametrize("workload", ["null_fc7", "lars_fc3"])
def test_traced_pass_that_differs_from_the_timed_outputs_fails(tiny, workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.round_input(3, 0)
    outputs = wl.run(inputs)
    run.traced_pass(wl, 3, [(inputs, outputs)])
    if wl.kind == "mc":
        column = outputs.values["t_grid"]
        column[0] = np.nextafter(column[0], 2.0)
    else:
        knot = outputs[0].knots[1]
        outputs[0].knots[1] = replace(knot, lam=np.nextafter(knot.lam, 0.0))
    with _raises("trace_replay"):
        run.traced_pass(wl, 3, [(inputs, outputs)])


def test_a_site_that_no_longer_exists_reports_zero_calls():
    recorder = tracer.Recorder()
    sites = tracer.SITES + (("srknots.knots", "no_such_name", "numerics.maximize_3d"),
                            ("srknots.no_such_module", "f", "numerics.f"))
    obs = _null_obs()
    with tracer.installed(recorder, sites):
        srknots.knots.compute_certificate(obs)
    assert srknots.knots.first_knot.__module__ == "srknots.knots"  # restored
    assert recorder.missing == ["knots.no_such_name", "no_such_module.f"]
    values = tracer.layer_metrics(recorder.spans, 1)
    assert values["knots.first_knot.ms_p50"] > 0
    assert values["numerics.maximize_2d.calls_per_op"] >= 1
    assert values["stats.grid_spacing_test.ms_p50"] == 0.0


def test_harness_self_time_excludes_child_spans():
    spans = [
        (2, 1, "mc.synthesize", "model.synthesize", 1.0, 2.0),
        (3, 1, "mc.compute_certificate", "knots.compute_certificate", 1.5, 4.0),
        (4, 3, "knots.first_knot", "knots.first_knot", 2.0, 3.0),
        (1, 0, "mc.run_experiment", "mc.run_experiment", 0.0, 5.0),
    ]
    values = tracer.layer_metrics(spans, 1)
    assert values["mc.harness_ms_per_op"] == pytest.approx(2000.0)
    assert values["mc.serial_ms_per_op"] == pytest.approx(5000.0)
    assert values["knots.ms_per_op"] == pytest.approx(2500.0)


def test_bare_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "null_fc7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
