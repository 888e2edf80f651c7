"""Monte-Carlo harness: null calibration, power under spike alternatives,
ECDF/KS summaries, and the figure panels (CSV + SVG).

STATISTICS records what each statistic needs, and evaluate_statistics is the
one route from statistic names to p-values: run_experiment calls it once per
replication, and `srknots test` once on its observation.

Replication r of a run with seed s draws everything from RngStream(s, r), in
the fixed order (spike locations, noise, Voronoi uniform), so each
replication can be recomputed alone and any subset of statistics can be
recomputed in isolation.
"""

import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import SrknotsError
from .knots import compute_certificate
from .model import TWO_PI, AtomicMeasure, synthesize
from .numerics import RngStream
from .stats import (
    grid_spacing_test,
    grid_test_known,
    grid_test_unknown,
    lambda2_bar,
    rice_known,
    rice_unknown,
    spacing_statistic,
    voronoi_sample,
)
from .variance import sigma_hat_cond, sigma_hat_grid

DEFAULT_GRID_SIZES = (3, 10, 32, 50)


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


def evaluate_statistics(obs, statistics, sigma, rng):
    """{name: TestReport, or the message of the SrknotsError that stopped it}
    for each statistic on obs.  sigma (None allowed where no statistic reads
    it) is the known noise level; rng draws the Voronoi uniform.

    The certificate is computed once, then the Voronoi draw and lambda2-bar
    once if grid or t_grid is asked for; if either fails, so does every
    statistic that needs the certificate.  Layer functions are looked up by
    their module-level names on each call, so replacing a name reroutes it.
    """
    needs = {name: statistic_needs(name) for name in statistics}
    for name, need in needs.items():
        if need.known_sigma and not (sigma is not None and sigma > 0):
            raise ValueError("statistic %r needs a positive known noise level" % name)
        check_cutoff(name, obs.f_c)
    ctx = obs.context()
    cert = l2_bar = cert_error = None
    if any(n.certificate for n in needs.values()):
        try:
            cert = compute_certificate(obs)
            if any(n.randomized for n in needs.values()):
                hess = np.asarray(cert.R) - ctx.lambda_tilde() * cert.lambda1
                u_draw = voronoi_sample(hess, rng)
                l2_bar = lambda2_bar(cert.lambda1, cert.lambda2, hess, u_draw, ctx)
        except SrknotsError as exc:
            cert_error = str(exc)

    out = {}
    for name in statistics:
        if cert_error is not None and needs[name].certificate:
            out[name] = cert_error
            continue
        try:
            if name == "rice":
                out[name] = rice_known(cert, sigma, ctx)
            elif name == "t_rice":
                out[name] = rice_unknown(cert, sigma_hat_cond(obs, cert.z_hat), ctx)
            elif name == "spacing":
                out[name] = spacing_statistic(cert.lambda1, cert.lambda2, sigma)
            elif name == "grid":
                out[name] = grid_test_known(cert.lambda1, l2_bar, sigma)
            elif name == "t_grid":
                out[name] = grid_test_unknown(
                    cert.lambda1, l2_bar, sigma_hat_grid(obs, cert.z_hat), ctx
                )
            else:
                out[name] = grid_spacing_test(obs, _grid_side(name), sigma)
        except SrknotsError as exc:
            out[name] = str(exc)
    return out


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


def _one_rep(config, rep):
    rng = RngStream(config.seed, rep).generator()
    measure = config.alternative.draw_measure(config.f_c, rng)
    obs = synthesize(measure, config.f_c, config.sigma, rng)
    return evaluate_statistics(obs, config.statistics, config.sigma, rng)


def run_experiment(config):
    """Evaluate every requested statistic on each of `reps` independent
    observations, one replication after another; see the module docstring
    for the determinism contract."""
    values = {name: np.empty(config.reps) for name in config.statistics}
    failures = []
    for rep in range(config.reps):
        for name, report in _one_rep(config, rep).items():
            if isinstance(report, str):
                values[name][rep] = np.nan
                failures.append((rep, name, report))
            else:
                values[name][rep] = report.value
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
