"""Spans at the module boundaries of srknots, recorded from outside the package.

The traced pass replaces, for its duration only, the module-level names
through which one layer calls the next (``srknots.knots.maximize_2d`` is the
name ``second_knot`` looks up on every call).  Each replacement records a
span (site, start, end, parent span) and calls the original.  A site whose
module or name no longer exists is skipped and reports 0 calls, so the
benchmark keeps running after a refactor removes it.
"""

import contextlib
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute, function): the name a caller looks up, and the layer
# function that name resolves to.  Sites that share a function aggregate into
# its metrics; the site key "<module tail>.<attribute>" names the caller side.
SITES = (
    ("srknots", "run_experiment", "mc.run_experiment"),
    ("srknots", "lars_run", "lars.lars_run"),
    ("srknots.mc", "synthesize", "model.synthesize"),
    ("srknots.mc", "compute_certificate", "knots.compute_certificate"),
    ("srknots.knots", "first_knot", "knots.first_knot"),
    ("srknots.knots", "second_knot", "knots.second_knot"),
    ("srknots.knots", "hessian_and_alphas", "knots.hessian_and_alphas"),
    ("srknots.knots", "maximize_1d", "numerics.maximize_1d"),
    ("srknots.knots", "maximize_2d", "numerics.maximize_2d"),
    ("srknots.stats", "integrate_upper", "numerics.integrate_upper"),
    ("srknots.mc", "rice_known", "stats.rice_known"),
    ("srknots.mc", "rice_unknown", "stats.rice_unknown"),
    ("srknots.mc", "spacing_statistic", "stats.spacing_statistic"),
    ("srknots.mc", "voronoi_sample", "stats.voronoi_sample"),
    ("srknots.mc", "lambda2_bar", "stats.lambda2_bar"),
    ("srknots.mc", "grid_test_known", "stats.grid_test_known"),
    ("srknots.mc", "grid_test_unknown", "stats.grid_test_unknown"),
    ("srknots.mc", "grid_spacing_test", "stats.grid_spacing_test"),
    ("srknots.mc", "sigma_hat_cond", "variance.sigma_hat_cond"),
    ("srknots.mc", "sigma_hat_grid", "variance.sigma_hat_grid"),
    ("srknots.lars", "first_knot", "knots.first_knot"),
    ("srknots.lars", "second_knot", "knots.second_knot"),
    ("srknots.lars", "maximize_1d", "numerics.maximize_1d"),
    ("srknots.lars", "kernel_gamma", "model.kernel_gamma"),
)

# The function each kind of workload calls once per round (mc) or per op (lars),
# through the package's top-level name.
ROOT_FUNCTIONS = {"mc": "mc.run_experiment", "lars": "lars.lars_run"}

P90_MIN_CALLS = 100


def site_key(module, attribute):
    return "%s.%s" % (module.rsplit(".", 1)[-1], attribute)


class Recorder:
    """In-memory spans: (span id, parent id, site key, function, start, end).

    The parent is the innermost open span of the calling thread.  A span
    opened when none is open anywhere is a root (parent 0); a call made on a
    worker thread with no open span of its own is parented to that root.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0

    def call(self, key, function, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        if not parent:
            self._root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._root == span_id:
                self._root = 0
            self.spans.append((span_id, parent, key, function, start, end))


@contextlib.contextmanager
def installed(recorder, sites=SITES):
    """Route every site in `sites` through `recorder`; restore the originals on exit."""
    undo = []
    try:
        for module_name, attribute, function in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attribute, None)
            key = site_key(module_name, attribute)
            if not callable(original):
                recorder.missing.append(key)
                continue
            setattr(module, attribute, _traced(recorder, key, function, original))
            undo.append((module, attribute, original))
        yield recorder
    finally:
        for module, attribute, original in reversed(undo):
            setattr(module, attribute, original)


def _traced(recorder, key, function, fn):
    def traced(*args, **kwargs):
        return recorder.call(key, function, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


def _covered(interval, children):
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def ms_per_op(spans, ops, functions=(), keys=()):
    """Milliseconds per op spent in spans of the given functions or site keys."""
    return 1e3 * sum(end - start for _, _, key, function, start, end in spans
                     if function in functions or key in keys) / ops


def layer_metrics(spans, ops):
    """Per-layer metric values (ms, or calls per op) from one traced pass of
    `ops` ops.  A metric of a layer the pass did not run reads 0."""
    by_function = defaultdict(list)
    by_key = defaultdict(list)
    parent_of = {}
    function_of = {}
    children = defaultdict(list)
    for span_id, parent, key, function, start, end in spans:
        by_function[function].append(end - start)
        by_key[key].append(end - start)
        parent_of[span_id] = parent
        function_of[span_id] = function
        children[parent].append((start, end))

    def p50(function):
        times = by_function.get(function)
        return 1e3 * statistics.median(times) if times else 0.0

    def p90(function):
        times = by_function.get(function, ())
        if len(times) < P90_MIN_CALLS:
            return 0.0
        return 1e3 * statistics.quantiles(times, n=10)[8]

    def calls(*names, table=by_function):
        return sum(len(table.get(name, ())) for name in names) / ops

    def outermost(layer):
        """Time in spans of `layer` not nested inside another span of it."""
        total = 0.0
        for span_id, parent, _, function, start, end in spans:
            if function.split(".")[0] != layer:
                continue
            up = parent
            while up and function_of[up].split(".")[0] != layer:
                up = parent_of[up]
            if not up:
                total += end - start
        return 1e3 * total / ops

    harness = sum(
        (end - start) - _covered((start, end), children[span_id])
        for span_id, _, _, function, start, end in spans
        if function == "mc.run_experiment"
    )
    return {
        "knots.first_knot.ms_p50": p50("knots.first_knot"),
        "knots.first_knot.ms_p90": p90("knots.first_knot"),
        "knots.second_knot.ms_p50": p50("knots.second_knot"),
        "knots.second_knot.ms_p90": p90("knots.second_knot"),
        "knots.hessian_and_alphas.ms_p50": p50("knots.hessian_and_alphas"),
        "knots.ms_per_op": outermost("knots"),
        "numerics.maximize_1d.calls_per_op": calls("numerics.maximize_1d"),
        "numerics.maximize_2d.calls_per_op": calls("numerics.maximize_2d"),
        "numerics.maximize_2d.ms_p50": p50("numerics.maximize_2d"),
        "numerics.integrate_upper.calls_per_op": calls("numerics.integrate_upper"),
        "stats.rice_known.ms_p50": p50("stats.rice_known"),
        "stats.rice_unknown.ms_p50": p50("stats.rice_unknown"),
        "stats.spacing_statistic.ms_p50": p50("stats.spacing_statistic"),
        "stats.voronoi_sample.ms_p50": p50("stats.voronoi_sample"),
        "stats.lambda2_bar.ms_p50": p50("stats.lambda2_bar"),
        "stats.grid_test_known.ms_p50": p50("stats.grid_test_known"),
        "stats.grid_test_unknown.ms_p50": p50("stats.grid_test_unknown"),
        "stats.grid_spacing_test.ms_p50": p50("stats.grid_spacing_test"),
        "variance.sigma_hat_cond.ms_p50": p50("variance.sigma_hat_cond"),
        "variance.sigma_hat_grid.ms_p50": p50("variance.sigma_hat_grid"),
        "model.synthesize.ms_p50": p50("model.synthesize"),
        "mc.harness_ms_per_op": 1e3 * harness / ops,
        "mc.serial_ms_per_op": ms_per_op(spans, ops, functions=("mc.run_experiment",)),
        "lars.lars_run.ms_p50": p50("lars.lars_run"),
        "lars.kernel_gamma.calls_per_op": calls("lars.kernel_gamma", table=by_key),
        "lars.maximize_1d.calls_per_op": calls("lars.maximize_1d", table=by_key),
        "lars.knots_ms_per_op": ms_per_op(spans, ops, keys=("lars.first_knot",
                                                             "lars.second_knot")),
    }


def unit(metric):
    if metric.endswith("calls_per_op"):
        return "calls/op"
    if metric.endswith("ms_per_op"):
        return "ms/op"
    return "ms"
