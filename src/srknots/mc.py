"""Monte-Carlo harness: null calibration, power under spike alternatives,
ECDF/KS summaries, and the figure panels (CSV + SVG).

STATISTICS records what each statistic needs, and _evaluate_block is the one
route from statistic names to p-values.  It takes a stack of observations
(model.Observation with an (R, N) y) and runs every layer once over the
stack: the certificates (knots.compute_certificates), the Voronoi draws and
lambda2-bar, the variance estimates and each statistic's stacked route in
stats.  A replication that fails stays the failure of its own row: every
layer runs on every row (a failed certificate reads nan) and returns per
row the SrknotsError that stopped it, the certificate's error first.
run_experiment takes its replications in blocks of BLOCK_REPS, and
evaluate_statistics, behind `srknots test`, is the block route on a stack
of one.

Replication r of a run with seed s draws everything from RngStream(s, r), in
the fixed order (spike locations, noise, Voronoi uniform), before its block
is evaluated.  Every value of a row is computed from that row alone, with
arithmetic that does not depend on the number of rows, so each replication
can be recomputed alone, in any block, and any subset of statistics can be
recomputed in isolation.
"""

import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .knots import compute_certificates
from .model import TWO_PI, AtomicMeasure, Observation, synthesize
from .numerics import RngStream
from .stats import (
    _grid_spacing,
    _lambda2_bar,
    _one,
    _rice_known,
    _rice_unknown,
    _tail_ratio,
    _voronoi,
)
from .variance import sigma_hat_cond, sigma_hat_grid

DEFAULT_GRID_SIZES = (3, 10, 32, 50)

# Replications per block of run_experiment: enough to spread the Python
# overhead of a layer call over many rows, few enough that the largest
# temporary (the 50 x 50 grid of grid_spacing_50 per row) stays near 3 MB.
BLOCK_REPS = 32


@dataclass(frozen=True)
class StatisticNeeds:
    """What a statistic takes besides the observation, the statistic that
    replaces it when the noise level is unknown, and the smallest cutoff
    frequency it supports."""

    certificate: bool
    randomized: bool
    known_sigma: bool
    studentized: Optional[str] = None
    min_fc: int = 1


# grid_spacing stands for every grid_spacing_P, P >= 2.  t_rice needs
# 2N - 3 >= 5 degrees of freedom in its variance estimate (stats.rice_unknown).
STATISTICS = {
    "rice": StatisticNeeds(True, False, True, "t_rice"),
    "t_rice": StatisticNeeds(True, False, False, min_fc=2),
    "spacing": StatisticNeeds(True, False, True),
    "grid": StatisticNeeds(True, True, True, "t_grid"),
    "t_grid": StatisticNeeds(True, True, False),
    "grid_spacing": StatisticNeeds(False, False, True),
}

_GRID_SPACING_RE = re.compile(r"^grid_spacing_(\d+)$")


def _grid_side(name):
    """P of grid_spacing_P, or None for any other name."""
    match = _GRID_SPACING_RE.match(name)
    return int(match.group(1)) if match else None


def statistic_needs(name):
    """The StatisticNeeds of a statistic name; ValueError when it is unknown."""
    side = _grid_side(name)
    needs = STATISTICS.get(name if side is None else "grid_spacing")
    if needs is None or (side is not None and side < 2):
        raise ValueError("unknown statistic %r" % name)
    return needs


def check_cutoff(name, f_c):
    """ValueError when statistic name does not support the cutoff f_c."""
    min_fc = statistic_needs(name).min_fc
    if f_c < min_fc:
        raise ValueError("statistic %r needs f_c >= %d, got %d" % (name, min_fc, f_c))


def _check_statistics(statistics, sigma, f_c):
    needs = {name: statistic_needs(name) for name in statistics}
    for name, need in needs.items():
        if need.known_sigma and not (sigma is not None and sigma > 0):
            raise ValueError("statistic %r needs a positive known noise level" % name)
        check_cutoff(name, f_c)
    return needs


def _evaluate_block(obs, needs, sigma, uniforms):
    """{name: (report, errors)} for each statistic on the stack obs: report
    is the statistic's TestReport over every row of the stack (its value and
    aux entries are arrays), and errors holds, per row, the SrknotsError
    that stopped it or None.  needs maps each statistic name, checked
    against sigma and the cutoff by the caller, to its StatisticNeeds.
    sigma (None allowed where no statistic reads it) is the known noise
    level, and uniforms the (R, 2) Voronoi uniforms (None when no statistic
    is randomized).

    The certificates are computed once, then the Voronoi draws and
    lambda2-bar once if grid or t_grid is asked for; a row whose certificate
    failed keeps that error in every statistic that needs one.
    """
    ctx = obs.context()
    if any(n.certificate for n in needs.values()):
        cert, cert_errors = compute_certificates(obs)
        lambda1, lambda2 = cert.lambda1, cert.lambda2
        if any(n.randomized for n in needs.values()):
            hess = cert.R - ctx.lambda_tilde() * lambda1[:, None, None]
            l2_bar = _lambda2_bar(lambda1, lambda2, hess, _voronoi(hess, uniforms), ctx.alpha1)

    out = {}
    for name in needs:
        side = _grid_side(name)
        if side is not None:
            out[name] = _grid_spacing(obs, side, sigma)
            continue
        if name == "rice":
            stacked = _rice_known(lambda1, lambda2, cert.alpha2, cert.alpha3, sigma, ctx.alpha1)
        elif name == "t_rice":
            var_est = sigma_hat_cond(obs, cert.z_hat)
            stacked = _rice_unknown(lambda1, lambda2, cert.R, var_est.value, var_est.dof, ctx)
        elif name == "spacing":
            stacked = _tail_ratio("spacing", {"lambda1": lambda1, "lambda2": lambda2}, sigma)
        elif name == "grid":
            stacked = _tail_ratio("grid", {"lambda1": lambda1, "lambda2_bar": l2_bar}, sigma)
        else:
            var_est = sigma_hat_grid(obs, cert.z_hat)
            stacked = _tail_ratio("t_grid", {"lambda1": lambda1, "lambda2_bar": l2_bar},
                                  np.sqrt(var_est.value), var_est.dof)
        report, errors = stacked
        out[name] = report, [c if c is not None else e for c, e in zip(cert_errors, errors)]
    return out


def evaluate_statistics(obs, statistics, sigma, rng):
    """{name: TestReport, or the message of the SrknotsError that stopped it}
    for each statistic on the one observation obs.  sigma (None allowed
    where no statistic reads it) is the known noise level; rng draws the
    Voronoi uniform when grid or t_grid is asked for.

    It is the block route (_evaluate_block) on a stack of one.
    """
    needs = _check_statistics(statistics, sigma, obs.f_c)
    uniforms = None
    if any(n.randomized for n in needs.values()):
        uniforms = rng.uniform(size=2)[None]
    evaluated = _evaluate_block(obs.rows([0]), needs, sigma, uniforms)
    return {name: _one((report, errors)) if errors[0] is None else str(errors[0])
            for name, (report, errors) in evaluated.items()}


@dataclass(frozen=True)
class AlternativeSpec:
    """The mean under test: 0, 1 or 2 spikes with fixed real weights,
    uniform random locations per replication and phase 0 (by rotation
    invariance of the model the null laws do not depend on the phase)."""

    n_spikes: int = 0
    weights: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_spikes not in (0, 1, 2):
            raise ValueError("n_spikes must be 0, 1 or 2")
        if len(self.weights) != self.n_spikes:
            raise ValueError("need exactly one weight per spike")
        if any(not 0 < w < math.inf for w in self.weights):
            raise ValueError("spike weights must be positive and finite")

    @property
    def alt_id(self):
        if self.n_spikes == 0:
            return "null"
        return "%dspike_%s" % (
            self.n_spikes,
            "_".join(format(w, ".6g") for w in self.weights),
        )

    def separation(self, f_c):
        """2 pi / f_c; no two points of the circle are over pi apart."""
        sep = TWO_PI / f_c
        if sep > math.pi:
            raise ValueError("two spikes cannot be %g apart; 2 pi / f_c needs f_c >= 2" % sep)
        return sep

    def draw_measure(self, f_c, rng):
        """Two spikes are t1 = 2 pi u1 and t2 = t1 + sep + u2 (2 pi - 2 sep):
        t2 given t1 is uniform on the arc at distance >= sep, which is the
        law of a uniform pair conditioned on that distance."""
        if self.n_spikes == 0:
            return AtomicMeasure.empty()
        if self.n_spikes == 1:
            return AtomicMeasure.from_atoms([(rng.uniform(0.0, TWO_PI), self.weights[0])])
        sep = self.separation(f_c)
        u1, u2 = rng.uniform(size=2)
        t1 = TWO_PI * u1
        t2 = t1 + sep + u2 * (TWO_PI - 2.0 * sep)
        return AtomicMeasure.from_atoms(list(zip((t1, t2), self.weights)))


@dataclass(frozen=True)
class ExperimentConfig:
    f_c: int
    reps: int
    seed: int
    statistics: Tuple[str, ...]
    alternative: AlternativeSpec = AlternativeSpec()
    sigma: float = 1.0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not self.statistics:
            raise ValueError("at least one statistic is required")
        for name in self.statistics:
            check_cutoff(name, self.f_c)
        if self.alternative.n_spikes == 2:
            self.alternative.separation(self.f_c)  # raises where no pair is that far apart


@dataclass
class ExperimentTable:
    config: ExperimentConfig
    values: Dict[str, np.ndarray]
    failures: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def n_excluded(self):
        return len({rep for rep, _, _ in self.failures})


def run_experiment(config):
    """Evaluate every requested statistic on each of `reps` independent
    observations, in blocks of BLOCK_REPS replications: each block draws
    its replications one after another, then evaluates them as one stack
    (_evaluate_block).  See the module docstring for the determinism
    contract.  ExperimentConfig has checked the statistics already."""
    values = {name: np.empty(config.reps) for name in config.statistics}
    failures = []
    needs = {name: statistic_needs(name) for name in config.statistics}
    randomized = any(n.randomized for n in needs.values())
    for first in range(0, config.reps, BLOCK_REPS):
        block = range(first, min(first + BLOCK_REPS, config.reps))
        ys, uniforms = [], []
        for rep in block:
            rng = RngStream(config.seed, rep).generator()
            measure = config.alternative.draw_measure(config.f_c, rng)
            ys.append(synthesize(measure, config.f_c, config.sigma, rng).y)
            if randomized:
                uniforms.append(rng.uniform(size=2))
        obs = Observation(f_c=config.f_c, y=np.array(ys), sigma=config.sigma)
        evaluated = _evaluate_block(obs, needs, config.sigma,
                                    np.array(uniforms) if randomized else None)
        for name, (report, errors) in evaluated.items():
            column = values[name][first:first + len(block)]
            column[:] = report.value
            for row, err in enumerate(errors):
                if err is not None:
                    column[row] = np.nan
                    failures.append((first + row, name, str(err)))
    failures.sort()
    return ExperimentTable(config=config, values=values, failures=failures)


@dataclass
class EcdfTable:
    grid: np.ndarray
    columns: Dict[str, np.ndarray]


def ecdf_multi(named_values):
    """Empirical CDFs of named samples from [0,1] on one uniform 513-point grid."""
    grid = np.linspace(0.0, 1.0, 513)
    columns = {}
    for name, values in named_values.items():
        v = np.sort(np.asarray(values, dtype=float))
        if v.size == 0:
            raise ValueError("ecdf of an empty sample")
        columns[name] = np.searchsorted(v, grid, side="right") / v.size
    return EcdfTable(grid=grid, columns=columns)


def ks_uniform(values):
    """Two-sided Kolmogorov-Smirnov sup-distance to the uniform CDF on [0,1]."""
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    if n == 0:
        raise ValueError("ks_uniform of an empty sample")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def empirical_level(values, alpha):
    """Fraction of p-values at or below the nominal level alpha."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empirical_level of an empty sample")
    return float(np.mean(v <= alpha))


def emit_csv(table, path):
    """One row per (rep, statistic): rep,statistic,value,fc,alt_id,seed."""
    cfg = table.config
    lines = ["rep,statistic,value,fc,alt_id,seed"]
    for rep in range(cfg.reps):
        for name in cfg.statistics:
            lines.append(
                "%d,%s,%s,%d,%s,%d"
                % (
                    rep,
                    name,
                    format(table.values[name][rep], ".17g"),
                    cfg.f_c,
                    cfg.alternative.alt_id,
                    cfg.seed,
                )
            )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(curves, path, title=""):
    """Standalone SVG 1.1, 600 x 600: one ECDF polyline per column, the
    diagonal for reference, and a legend.  Bytes depend only on the input."""
    size, margin = 600, 60
    span = size - 2 * margin

    def px(x):
        return margin + span * x

    def py(y):
        return size - margin - span * y

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="600" height="600" viewBox="0 0 600 600">',
        '<rect x="0" y="0" width="600" height="600" fill="white"/>',
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>'
        % (margin, margin, span, span),
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#999999" '
        'stroke-dasharray="6,4"/>' % (px(0.0), py(0.0), px(1.0), py(1.0)),
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            '<text x="%.2f" y="%d" font-size="12" text-anchor="middle">%.2f</text>'
            % (px(tick), size - margin + 20, tick)
        )
        parts.append(
            '<text x="%d" y="%.2f" font-size="12" text-anchor="end">%.2f</text>'
            % (margin - 8, py(tick) + 4, tick)
        )
    for idx, (name, col) in enumerate(curves.columns.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(
            "%.2f,%.2f" % (px(x), py(y)) for x, y in zip(curves.grid, col)
        )
        parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
            % (color, points)
        )
        parts.append(
            '<rect x="%d" y="%d" width="12" height="12" fill="%s"/>'
            % (margin + 12, margin + 12 + 20 * idx, color)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="13">%s</text>'
            % (margin + 30, margin + 22 + 20 * idx, name)
        )
    if title:
        parts.append(
            '<text x="300" y="30" font-size="15" text-anchor="middle">%s</text>' % title
        )
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")


def _figure_panels(fig_id, seed, reps):
    """The panels of one figure, from its table of (f_c, statistics, spike
    weights) with each weight a function of N = 2 f_c + 1: the level of rice
    and spacing (fig3), the power of rice and the grids against one spike
    (fig4) and two (fig5), and rice against t_rice in level and power (fig6)."""
    grid_stats = tuple("grid_spacing_%d" % p for p in DEFAULT_GRID_SIZES)
    figures = {
        "fig3": [(f_c, ("rice", "spacing"), ()) for f_c in (3, 5, 7)],
        "fig4": [(f_c, ("rice",) + grid_stats, (weight,))
                 for weight in (math.log, math.sqrt) for f_c in (3, 5, 7)],
        "fig5": [(7, ("rice", "grid_spacing_50"), pair) for pair in
                 ((math.log, math.log), (math.log, math.sqrt), (math.sqrt, math.sqrt))],
        "fig6": [(3, ("rice", "t_rice"), weights) for weights in ((), (math.log,), (math.sqrt,))],
    }
    if fig_id not in figures:
        raise ValueError("unknown figure id %r" % fig_id)
    return [
        ExperimentConfig(
            f_c=f_c,
            reps=reps,
            seed=seed,
            statistics=statistics,
            alternative=AlternativeSpec(len(weights), tuple(w(2 * f_c + 1) for w in weights)),
        )
        for f_c, statistics, weights in figures[fig_id]
    ]


def reproduce_figure(fig_id, seed, reps=2000, out_dir="out"):
    """Run the panel grid of one figure and write panel_<k>.csv / .svg under
    out_dir/<fig_id>; returns the list of created paths."""
    configs = _figure_panels(fig_id, seed, reps)
    fig_dir = os.path.join(out_dir, fig_id)
    os.makedirs(fig_dir, exist_ok=True)
    created = []
    for k, config in enumerate(configs, start=1):
        table = run_experiment(config)
        csv_path = os.path.join(fig_dir, "panel_%d.csv" % k)
        svg_path = os.path.join(fig_dir, "panel_%d.svg" % k)
        emit_csv(table, csv_path)
        finite = {
            name: vals[np.isfinite(vals)] for name, vals in table.values.items()
        }
        title = "%s panel %d: fc=%d, %s, %d excluded" % (
            fig_id,
            k,
            config.f_c,
            config.alternative.alt_id,
            table.n_excluded,
        )
        emit_svg(ecdf_multi(finite), svg_path, title=title)
        created.extend([csv_path, svg_path])
    return created
