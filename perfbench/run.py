"""Benchmark of srknots: ops per second, CPU, memory and set-up time end to
end, and a traced pass that times each module boundary.

    python3 perfbench/run.py --workload null_fc7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src, with no
install.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
pass that replays the first rounds of the timed phase.  A fuller record of
the run goes to perfbench/results/.  The exit code is 0 when every
correctness check passes, 1 when one fails (the check is named on stderr)
or the package cannot be imported.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# OpenBLAS starts one worker per core, and its workers spin between the
# package's small matrix products while the package's own thread pool runs.
# On two cores that added a third to two thirds to the CPU time of an op and
# made its wall time vary more with the load of the machine, so the
# benchmark runs BLAS on the calling thread (set before numpy is first
# imported; the set-up probes inherit it).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The package's own pool runs on os.cpu_count() threads by default.  On the
# shared two-core host the benchmark was built on, other processes took one
# of the two cores for ten to twenty seconds at a time, and the pool's rate
# followed them: nine 30-second null_fc7 runs spread by 0.24 of their median
# (interquartile range), while their CPU time per op spread by 0.04.  On one
# thread the rate measures the program's work rather than its neighbours.
os.environ.setdefault("SRKNOTS_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("null_fc7", "power_fc15", "lars_fc3")
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


def import_package():
    """Import srknots from ./src of this checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import srknots

    if Path(srknots.__file__).resolve().parent != (src / "srknots").resolve():
        raise ImportError("srknots imported from %s, not from %s" % (srknots.__file__, src))
    return srknots


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_probe(args):
    """Child process: import the package and run one warm-up op, timed."""
    start = time.perf_counter()
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workloads.WORKLOADS[args.workload].warm_up()
    print(repr(time.perf_counter() - start))


def measure_setup(args):
    """Set-up seconds of SETUP_PROBES fresh interpreters: import plus one warm-up op."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", "0"],
            capture_output=True, text=True, timeout=60, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %d): %s"
                               % (proc.returncode, proc.stderr.strip()[-2000:]))
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_phase(wl, seed, seconds):
    """Rounds of ops until `seconds` of wall time have passed; tracing off.

    The rates are medians over rounds, so that a burst of load from outside
    the benchmark during a few rounds does not move them."""
    rounds, round_ops_per_s, round_cpu_ms_per_op = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        inputs = wl.round_input(seed, index)
        cpu0, t0 = time.process_time(), time.perf_counter()
        outputs = wl.run(inputs)
        t1, cpu1 = time.perf_counter(), time.process_time()
        rounds.append((inputs, outputs))
        ops = wl.ops(inputs)
        round_ops_per_s.append(ops / (t1 - t0))
        round_cpu_ms_per_op.append(1e3 * (cpu1 - cpu0) / ops)
        index += 1
        if t1 - start >= seconds:
            break
    return {
        "rounds": rounds,
        "round_ops_per_s": round_ops_per_s,
        "round_cpu_ms_per_op": round_cpu_ms_per_op,
        "ops": sum(wl.ops(inputs) for inputs, _ in rounds),
        "failed": sum(wl.failed(inputs, outputs) for inputs, outputs in rounds),
        "ops_per_s": statistics.median(round_ops_per_s),
        "cpu_ms_per_op": statistics.median(round_cpu_ms_per_op),
    }


def traced_pass(wl, seed, timed_rounds):
    """Replay the first wl.trace_rounds rounds on one thread with every site traced."""
    import checks
    import tracer

    recorder = tracer.Recorder()
    saved = os.environ.get("SRKNOTS_THREADS")
    os.environ["SRKNOTS_THREADS"] = "1"
    try:
        with tracer.installed(recorder):
            replayed = []
            for index in range(wl.trace_rounds):
                inputs = wl.round_input(seed, index)
                replayed.append((inputs, wl.run(inputs)))
    finally:
        if saved is None:
            del os.environ["SRKNOTS_THREADS"]
        else:
            os.environ["SRKNOTS_THREADS"] = saved
    for index, ((_, traced), (_, timed)) in enumerate(zip(replayed, timed_rounds)):
        if not wl.same(traced, timed):
            raise checks.CheckFailed(
                "trace_replay", "round %d: the traced single-threaded pass did not reproduce "
                "the timed outputs bit for bit" % index)
    ops = sum(wl.ops(inputs) for inputs, _ in replayed)
    return recorder, ops


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if not args.trace:
        record["setup_samples_s"] = measure_setup(args)

    # The benchmark's own modules import numpy and srknots, so they load
    # only after ./src is on the path (and, in a set-up probe, inside the
    # timed region).
    import_package()
    import checks
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.warm_up()
    timed = timed_phase(wl, args.seed, args.seconds)
    rss = peak_rss_mb()
    ops = timed["ops"]
    end_to_end = {
        "ops_per_s": timed["ops_per_s"],
        "cpu_ms_per_op": timed["cpu_ms_per_op"],
        "peak_rss_mb": rss,
    }
    if not args.trace:
        end_to_end["setup_s"] = statistics.median(record["setup_samples_s"])
    record.update(
        end_to_end=end_to_end,
        attempted=ops,
        failed=timed["failed"],
        rounds=len(timed["rounds"]),
        timed_ms_per_op=1e3 / timed["ops_per_s"],
        round_ops_per_s=timed["round_ops_per_s"],
        round_cpu_ms_per_op=timed["round_cpu_ms_per_op"],
        machine=machine_info(),
    )

    failed_check = None
    metrics = {}
    try:
        wl.check(timed["rounds"])
        if args.trace:
            recorder, trace_ops = traced_pass(wl, args.seed, timed["rounds"])
            per_layer = tracer.layer_metrics(recorder.spans, trace_ops)
            record.update(
                per_layer=per_layer,
                trace_ops=trace_ops,
                trace_missing_sites=recorder.missing,
                trace_ms_per_op=tracer.ms_per_op(recorder.spans, trace_ops,
                                                 functions=(tracer.ROOT_FUNCTIONS[wl.kind],)),
            )
            record["trace_overhead"] = record["trace_ms_per_op"] / record["timed_ms_per_op"]
            metrics = {name: {"value": value, "unit": tracer.unit(name)}
                       for name, value in per_layer.items()}
            write_spans(args, recorder.spans)
    except checks.CheckFailed as exc:
        failed_check = exc.name
        print("check failed: %s" % exc, file=sys.stderr)
    if not args.trace:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    result = {"correct": failed_check is None, "attempted": ops, "failed": timed["failed"],
              "metrics": metrics}
    record["failed_check"] = failed_check
    write_record(args, record)
    print(json.dumps(result))
    return 0 if failed_check is None else 1


def _result_path(args, suffix):
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / ("%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace, suffix))


def write_record(args, record):
    with open(_result_path(args, ".json"), "w") as handle:
        json.dump(record, handle, indent=1)


def write_spans(args, spans):
    with open(_result_path(args, "-spans.json"), "w") as handle:
        json.dump({"fields": ["id", "parent", "site", "function", "start_s", "end_s"],
                   "spans": spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
