"""The workloads: what one op is, how a round of ops is generated from
the seed, and which checks its outputs must pass.

A run is a sequence of rounds.  Round i of a run with seed s has inputs that
depend only on (s, i), so the traced pass can replay the first rounds of the
timed phase and compare the outputs bit for bit.

Where the program fails some ops at a rate that depends on their inputs, a
seeded round would fail a different share of ops in every run.  Such a
workload repeats one fixed round instead, and that round holds inputs on
which the fault is known to show, so every run counts the same failed ops.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import checks
import srknots
from srknots import AlternativeSpec, ExperimentConfig, SrknotsError

GRID_SIZES = (3, 10, 32, 50)
GRID_STATS = tuple("grid_spacing_%d" % p for p in GRID_SIZES)

# Reps of round 0 whose certificates are recomputed and checked against the
# FFT and brute-force grids after the timed phase.
CERT_SAMPLE = 6

# The warm-up op that fills the module caches before timing uses the inputs
# of this seed in every run, so that set-up time measures the same work
# whatever --seed is.
WARM_UP_SEED = 0


def round_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class McWorkload:
    """One op is one Monte-Carlo replication; a round is one run_experiment call.

    uniform names the statistics whose p-values must be uniform under the null.
    With fixed_seed set, every round is the same run_experiment call whatever
    the run's seed.
    """

    name: str
    f_c: int
    statistics: tuple
    alternative: AlternativeSpec
    round_reps: int
    trace_rounds: int
    uniform: tuple = ()
    fixed_seed: Optional[int] = None
    kind = "mc"

    def round_input(self, seed, index):
        fixed = self.fixed_seed is not None
        return ExperimentConfig(
            f_c=self.f_c, reps=self.round_reps,
            seed=self.fixed_seed if fixed else round_seed(seed, index),
            statistics=self.statistics, alternative=self.alternative,
        )

    def warm_up(self):
        self.run(replace(self.round_input(WARM_UP_SEED, 0), reps=1))

    @staticmethod
    def run(config):
        return srknots.run_experiment(config)

    @staticmethod
    def ops(config):
        return config.reps

    @staticmethod
    def failed(config, table):
        return table.n_excluded

    @staticmethod
    def same(a, b):
        return a.failures == b.failures and all(
            a.values[name].tobytes() == b.values[name].tobytes() for name in a.values
        )

    def check(self, rounds):
        columns = {
            name: np.concatenate([table.values[name] for _, table in rounds])
            for name in self.statistics
        }
        for name, values in columns.items():
            checks.check_pvalue_range(name, values)
        if self.uniform:
            checks.check_uniform({name: columns[name] for name in self.uniform})
        config, table = rounds[0]
        failed = {rep for rep, _, _ in table.failures}
        for rep in range(min(CERT_SAMPLE, config.reps)):
            if rep not in failed:
                self._check_certificate(config, table, rep)

    def _check_certificate(self, config, table, rep):
        # The observation of replication `rep`, drawn in the order the mc
        # module documents: spike locations, then noise, from RngStream(seed, rep).
        rng = srknots.RngStream(config.seed, rep).generator()
        measure = config.alternative.draw_measure(config.f_c, rng)
        obs = srknots.synthesize(measure, config.f_c, config.sigma, rng)
        cert = srknots.compute_certificate(obs)
        replayed = srknots.rice_known(cert, config.sigma, obs.context()).value
        if replayed != table.values["rice"][rep]:
            raise checks.CheckFailed(
                "certificate_replay", "rep %d: rice p-value %.17g of the recomputed certificate "
                "differs from the timed %.17g" % (rep, replayed, table.values["rice"][rep]))
        checks.check_lambda1(obs.y, obs.f_c, cert.lambda1)
        checks.check_lambda2(obs.y, obs.f_c, cert.z_hat, cert.lambda1, cert.lambda2)
        for p in GRID_SIZES:
            checks.check_grid_lambda1(p, srknots.grid_knots(obs, p)[0], cert.lambda1)


def lars_observation(seed, index, f_c=3, sigma=1.0):
    """y = sigma (N(0,1) + i N(0,1)) in each of the 2 f_c + 1 coefficients."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    n = 2 * f_c + 1
    return srknots.Observation(
        f_c=f_c, y=sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), sigma=sigma)


class LarsWorkload:
    """One op is one continuation path lars_run(obs, 1, k_max=4) on a null observation.

    The entering point of a later knot misses |residual| = lambda_k by more
    than the acceptance bound 1e-7 on about one null path in 250, so every
    round is the same fixed set of paths: the `exhibits`, two observations on
    which that fault shows, then the first `stream_paths` observations of a
    fixed stream.  An exhibit whose path breaks the active equality counts as
    a failed op; every other path must pass every check.
    """

    kind = "lars"
    name = "lars_fc3"
    f_c = 3
    sigma = 1.0
    k_max = 4
    exhibits = ((109, 20), (5220, 0))
    stream_seed = 0
    stream_paths = 10
    trace_rounds = 1

    def round_input(self, seed, index):
        keys = list(self.exhibits) + [(self.stream_seed, j) for j in range(self.stream_paths)]
        return [lars_observation(s, i, self.f_c, self.sigma) for s, i in keys]

    def warm_up(self):
        self.run([lars_observation(WARM_UP_SEED, 0, self.f_c, self.sigma)])

    def run(self, observations):
        opts = srknots.LarsOptions(k_max=self.k_max)
        out = []
        for obs in observations:
            try:
                out.append(srknots.lars_run(obs, self.sigma, opts))
            except SrknotsError as exc:
                out.append(exc)
        return out

    def ops(self, observations):
        return len(observations)

    def _exhibits_fault(self, index, obs, path):
        return index < len(self.exhibits) and max(checks.active_gaps(
            obs.y, obs.f_c, self.sigma, path)) >= checks.LARS_TOL

    def failed(self, observations, paths):
        return sum(
            isinstance(path, SrknotsError) or self._exhibits_fault(i, obs, path)
            for i, (obs, path) in enumerate(zip(observations, paths))
        )

    @staticmethod
    def same(a, b):
        def key(path):
            if isinstance(path, SrknotsError):
                return type(path).__name__, str(path)
            return path.status, path.knots

        return [key(p) for p in a] == [key(q) for q in b]

    def check(self, rounds):
        """Check the paths of round 0; every later round repeats its inputs
        and must repeat its outputs."""
        observations, paths = rounds[0]
        for i, (obs, path) in enumerate(zip(observations, paths)):
            if isinstance(path, SrknotsError) or self._exhibits_fault(i, obs, path):
                continue
            z_hat, lambda1 = srknots.first_knot(obs)
            _, lambda2 = srknots.second_knot(obs, z_hat, lambda1)
            checks.check_lars_path(obs.y, obs.f_c, self.sigma, path, lambda1, lambda2)
        for index, (_, later) in enumerate(rounds[1:], start=1):
            if not self.same(later, paths):
                raise checks.CheckFailed(
                    "round_repeat", "round %d did not repeat the paths of round 0" % index)


NULL_STATS = ("rice", "t_rice", "spacing", "grid", "t_grid") + GRID_STATS
EXACT_STATS = ("rice", "t_rice", "grid", "t_grid") + GRID_STATS  # all but `spacing`

# second_knot raises Unconverged on about one replication in several thousand
# at this signal-to-noise ratio; rep 3 of this seed is one of them.
POWER_SEED = 1703765494

WORKLOADS = {
    wl.name: wl
    for wl in (
        McWorkload("null_fc7", 7, NULL_STATS, AlternativeSpec(), round_reps=25,
                   trace_rounds=4, uniform=EXACT_STATS),
        McWorkload("power_fc15", 15, ("rice",) + GRID_STATS,
                   AlternativeSpec(1, (31 ** 0.5,)), round_reps=20, trace_rounds=5,
                   fixed_seed=POWER_SEED),
        LarsWorkload(),
    )
}
