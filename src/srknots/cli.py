"""Command-line front end.

Every command prints a single JSON object on stdout (numbers at 17
significant digits, so reruns are byte-identical) and exits 0 on success,
2 on a usage or input-schema error, 1 on a computation error.
"""

import argparse
import math
import sys

import numpy as np

from .errors import SchemaError, SrknotsError
from .knots import compute_certificate
from .lars import LarsOptions, export_csv, lars_run
from .mc import (
    AlternativeSpec,
    ExperimentConfig,
    check_cutoff,
    empirical_level,
    evaluate_statistics,
    ks_uniform,
    reproduce_figure,
    run_experiment,
    statistic_needs,
)
from .model import AtomicMeasure, load_observation, save_observation, synthesize
from .numerics import RngStream

# CLI spelling -> library name; grid-st maps to grid_spacing_<--grid>.
_STAT_NAMES = {"rice": "rice", "t-rice": "t_rice", "st": "spacing",
               "grid": "grid", "t-grid": "t_grid", "grid-st": None}


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(float(value), ".17g")
    if isinstance(value, complex):
        return "[%s, %s]" % (_fmt(value.real), _fmt(value.imag))
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            '"%s": %s' % (k, _fmt(v)) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[%s]" % ", ".join(_fmt(v) for v in value)
    raise TypeError("cannot serialize %r" % (value,))


def _emit(payload):
    sys.stdout.write(_fmt(payload) + "\n")


def _finite_float(text):
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return value


def _noise_level(text):
    """argparse type: a finite float >= 0 (0 draws a noiseless observation)."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %r" % text)
    return value


def _positive_float(text):
    """argparse type: a finite float > 0."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive, got %r" % text)
    return value


def _int_at_least(low):
    """argparse type: an integer >= low."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %r" % (low, text))
        return value

    return integer


def _parse_spike(text, need_location):
    parts = text.split(":")
    try:
        weight = float(parts[0])
    except ValueError:
        raise SchemaError("bad --spike %r: weight must be a number" % text)
    if not 0 < weight < math.inf:
        raise SchemaError("bad --spike %r: weight must be positive and finite" % text)
    if need_location:
        if len(parts) not in (2, 3):
            raise SchemaError(
                "bad --spike %r: expected WEIGHT:LOCATION[:PHASE]" % text
            )
        try:
            location = float(parts[1])
            phase = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise SchemaError("bad --spike %r: location/phase must be numbers" % text)
        if not (math.isfinite(location) and math.isfinite(phase)):
            raise SchemaError("bad --spike %r: location/phase must be finite" % text)
        return weight, location, phase
    if len(parts) != 1:
        raise SchemaError(
            "bad --spike %r: power draws locations uniformly per replication; "
            "give bare weights" % text
        )
    return weight, None, 0.0


def _stat_internal(name, grid_size):
    if name == "grid-st":
        if grid_size is None:
            raise SchemaError("--stat grid-st requires --grid P")
        return "grid_spacing_%d" % grid_size
    return _STAT_NAMES[name]


def _cmd_simulate(args):
    atoms = []
    for text in args.spike or []:
        weight, location, phase = _parse_spike(text, need_location=True)
        atoms.append((location, weight * complex(math.cos(phase), math.sin(phase))))
    measure = AtomicMeasure.from_atoms(atoms)
    obs = synthesize(measure, args.fc, args.sigma, RngStream(args.seed))
    save_observation(obs, args.out)
    _emit({"out": args.out, "fc": args.fc, "sigma": args.sigma,
           "n_spikes": measure.n_atoms, "seed": args.seed})
    return 0


def _cmd_knots(args):
    obs = load_observation(args.obs)
    cert = compute_certificate(obs)
    _emit({
        "z_hat": {"t": cert.z_hat.t, "theta": cert.z_hat.theta},
        "lambda1": cert.lambda1,
        "y_hat": {"t": cert.y_hat.t, "theta": cert.y_hat.theta},
        "lambda2": cert.lambda2,
        "alpha2": cert.alpha2,
        "alpha3": cert.alpha3,
        "R": [list(row) for row in np.asarray(cert.R)],
        "grad_norm_at_zhat": cert.grad_norm_at_zhat,
    })
    return 0


def _cmd_test(args):
    obs = load_observation(args.obs)
    sigma = args.sigma if args.sigma is not None else obs.sigma
    stat = _stat_internal(args.stat, args.grid)
    needs = statistic_needs(stat)
    if sigma is None and needs.studentized:
        # no noise level anywhere: studentize where a T-variant exists
        stat = needs.studentized
    try:
        check_cutoff(stat, obs.f_c)
    except ValueError as exc:
        raise SchemaError(str(exc))
    if needs.randomized and args.seed is None:
        raise SchemaError("randomized grid tests need --seed for the cell draw")
    rng = None if args.seed is None else RngStream(args.seed).generator()
    report = evaluate_statistics(obs, (stat,), sigma, rng)[stat]
    if isinstance(report, str):
        raise SrknotsError(report)
    _emit({"name": report.name, "value": report.value, **report.aux})
    return 0


def _cmd_lars(args):
    obs = load_observation(args.obs)
    sigma = args.sigma if args.sigma is not None else obs.sigma
    if sigma is None:
        raise SrknotsError("the path needs a kernel scale; pass --sigma")
    opts = LarsOptions(k_max=args.kmax, lambda_min=args.lambda_min)
    path = lars_run(obs, sigma, opts)
    payload = {
        "status": path.status,
        "sigma": sigma,
        "knots": [
            {
                "k": k,
                "lambda": knot.lam,
                "active": list(knot.active),
                "weights": [complex(w) for w in knot.weights],
            }
            for k, knot in enumerate(path.knots, start=1)
        ],
    }
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(export_csv(path))
        payload["out"] = args.out
    _emit(payload)
    return 0


def _run_level_summary(args, alternative, failed_rejects):
    """Level (or power) of one statistic over all `reps` replications.

    A replication that failed is counted as a rejection at every level when
    `failed_rejects` (calibration: a failure cannot hide excess level) and as
    a non-rejection otherwise (power: it cannot add power).  The KS distance
    is taken over the finite p-values, and reads null when every rep
    failed; `excluded` counts the failed reps.
    """
    stat = _stat_internal(args.stat, args.grid)
    try:
        config = ExperimentConfig(
            f_c=args.fc,
            reps=args.reps,
            seed=args.seed,
            statistics=(stat,),
            alternative=alternative,
            sigma=args.sigma,
        )
    except ValueError as exc:
        # a configuration the run cannot start from is a usage error
        raise SchemaError(str(exc))
    table = run_experiment(config)
    values = table.values[stat]
    finite = np.isfinite(values)
    counted = np.where(finite, values, 0.0 if failed_rejects else np.inf)
    return {
        "statistic": stat,
        "fc": args.fc,
        "sigma": args.sigma,
        "reps": args.reps,
        "seed": args.seed,
        "alt_id": alternative.alt_id,
        "ks_uniform": ks_uniform(values[finite]) if finite.any() else None,
        "level": {
            "0.01": empirical_level(counted, 0.01),
            "0.05": empirical_level(counted, 0.05),
            "0.10": empirical_level(counted, 0.10),
        },
        "excluded": table.n_excluded,
    }


def _cmd_calibrate(args):
    _emit(_run_level_summary(args, AlternativeSpec(), failed_rejects=True))
    return 0


def _cmd_power(args):
    weights = tuple(
        _parse_spike(text, need_location=False)[0] for text in args.spike or []
    )
    if not weights:
        raise SchemaError("power needs at least one --spike WEIGHT")
    alternative = AlternativeSpec(n_spikes=len(weights), weights=weights)
    payload = _run_level_summary(args, alternative, failed_rejects=False)
    payload["power_at_0.05"] = payload["level"]["0.05"]
    _emit(payload)
    return 0


def _cmd_reproduce(args):
    files = reproduce_figure(args.figure, args.seed, reps=args.reps, out_dir=args.out)
    _emit({"figure": args.figure, "seed": args.seed, "reps": args.reps,
           "files": files})
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="srknots",
        description="Exact tests and regularization paths for the "
        "super-resolution Gaussian model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw an observation and write it as JSON")
    p.add_argument("--fc", type=_int_at_least(1), required=True)
    p.add_argument("--sigma", type=_noise_level, required=True,
                   help="noise level; 0 draws a noiseless observation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spike", action="append",
                   help="WEIGHT:LOCATION[:PHASE], repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("knots", help="first/second knot certificate of an observation")
    p.add_argument("--obs", required=True)
    p.set_defaults(func=_cmd_knots)

    p = sub.add_parser("test", help="run one hypothesis test on an observation")
    p.add_argument("--stat", choices=_STAT_NAMES, required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--sigma", type=_positive_float)
    p.add_argument("--grid", type=_int_at_least(2), help="grid side p for grid-st")
    p.add_argument("--seed", type=int, help="seed for the randomized grid tests")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("lars", help="continuation path of the first k_max knots")
    p.add_argument("--obs", required=True)
    p.add_argument("--sigma", type=_positive_float)
    p.add_argument("--kmax", type=_int_at_least(2), default=4)
    p.add_argument("--lambda-min", type=_positive_float, default=1e-3)
    p.add_argument("--out", help="also export the path as CSV")
    p.set_defaults(func=_cmd_lars)

    p = sub.add_parser("calibrate", help="null Monte-Carlo calibration summary")
    p.add_argument("--fc", type=_int_at_least(1), required=True)
    p.add_argument("--sigma", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=_int_at_least(1), default=2000)
    p.add_argument("--stat", choices=_STAT_NAMES, required=True)
    p.add_argument("--grid", type=_int_at_least(2))
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("power", help="power under a spike alternative")
    p.add_argument("--fc", type=_int_at_least(1), required=True)
    p.add_argument("--sigma", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=_int_at_least(1), default=2000)
    p.add_argument("--stat", choices=_STAT_NAMES, required=True)
    p.add_argument("--grid", type=_int_at_least(2))
    p.add_argument("--spike", action="append",
                   help="bare WEIGHT, repeatable; locations are drawn uniformly")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("reproduce", help="reproduce one figure's panels (CSV+SVG)")
    p.add_argument("figure", choices=("fig3", "fig4", "fig5", "fig6"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=_int_at_least(1), default=2000)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def parse_and_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (SrknotsError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
