"""Shared fixtures.

The Monte-Carlo tables used by the calibration tests and by the acceptance
gate cost seconds-to-minutes each, so they are cached once per session and
keyed by their full (frozen, hashable) configuration.  The variance-law
sample at the pinned base point is likewise shared.
"""

import numpy as np
import pytest
from oracles import x_eval

from srknots import (
    AtomicMeasure,
    RngStream,
    run_experiment,
    sigma_hat_cond,
    sigma_hat_grid,
    synthesize,
)

_TABLE_CACHE = {}

# One line per acceptance criterion, printed after the test summary so the
# measured margins are visible even when everything passes.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mc_table():
    """Memoizing runner: mc_table(config) -> ExperimentTable, computed once."""

    def run_cached(config):
        if config not in _TABLE_CACHE:
            _TABLE_CACHE[config] = run_experiment(config)
        return _TABLE_CACHE[config]

    return run_cached


@pytest.fixture(scope="session")
def obs_seed42():
    """The pinned noisy null observation (f_c = 3, stream (42, 0), sigma = 1)."""
    return synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(42, 0))


@pytest.fixture(scope="session")
def variance_null_sample():
    """2000 null replications at f_c = 3, z = (0, 0), sigma = 1.

    Returns (x_at_z, s2_grid, s2_cond) as float arrays; used both for the
    chi-square law checks and for the value/estimator independence check.
    """
    reps = 2000
    z = (0.0, 0.0)
    x_at_z = np.empty(reps)
    s2_grid = np.empty(reps)
    s2_cond = np.empty(reps)
    for rep in range(reps):
        obs = synthesize(AtomicMeasure.empty(), 3, 1.0, RngStream(515, rep))
        x_at_z[rep] = x_eval(obs, z)
        s2_grid[rep] = sigma_hat_grid(obs, z).value
        s2_cond[rep] = sigma_hat_cond(obs, z).value
    return x_at_z, s2_grid, s2_cond
