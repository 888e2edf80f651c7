#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/pair_bench.py --parent REV --workload W --pairs N --seconds S --out BENCH_<n>.json

The committed files of REV are exported (git archive) into a temporary
directory.  Each pair runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace T

once from the root of that export ("parent") and once from the root of the
working tree ("change"), one process at a time and back to back, with the
order swapped from one pair to the next; pair i uses seed --seed + i on both
sides.  The last JSON line of each run's stdout is its result.

--out is created, or extended when it exists: the new runs are appended and
the summary is recomputed over every run in the file.  The summary holds,
per workload and end-to-end metric of BENCHMARK.json (--trace 0 runs only),
the median and quartiles of each side and the number of pairs the change
won.  The temporary directory is removed on exit.  The exit code is 1 when
a run exits non-zero or prints "correct": false.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev, dest):
    """Write the committed files of rev into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def last_json_line(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def run_once(root, code, workload, seed, seconds, trace, pair_order):
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    result = last_json_line(proc.stdout)
    return {
        "workload": workload,
        "code": code,
        "seed": seed,
        "trace": trace,
        "command": " ".join(argv),
        "pair_order": pair_order,
        "exit_code": proc.returncode,
        "stderr": proc.stderr.splitlines(),
        "result": result,
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, end_to_end):
    """{workload: {metric: {pairs, change_wins, parent, change}}} over the
    --trace 0 runs whose two sides both printed the metric."""
    summary = {}
    sides = {}
    for run in runs:
        metrics = (run.get("result") or {}).get("metrics")
        if run["trace"] == 0 and metrics:
            sides.setdefault((run["workload"], run["seed"]), {})[run["code"]] = metrics
    for workload in sorted({w for w, _ in sides}):
        pairs = [s for (w, _), s in sorted(sides.items()) if w == workload
                 and "parent" in s and "change" in s]
        table = {}
        for metric in end_to_end:
            name = metric["name"]
            both = [(s["parent"][name]["value"], s["change"][name]["value"])
                    for s in pairs if name in s["parent"] and name in s["change"]]
            if not both:
                continue
            higher = metric["better"] == "higher"
            wins = sum((c > p) if higher else (c < p) for p, c in both)
            entry = {"pairs": len(both), "change_wins": wins}
            for index, code in enumerate(("parent", "change")):
                q1, median, q3 = quartiles([pair[index] for pair in both])
                entry[code] = {"median": median, "q1": q1, "q3": q3}
            table[name] = entry
        summary[workload] = table
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=9001, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to create or extend")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    seconds = ("%g" % args.seconds)
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    change = git("rev-parse", "HEAD") + (" with uncommitted changes"
                                         if git("status", "--porcelain", "--", "src", "perfbench")
                                         else "")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = Path(args.out)
    if out.exists():
        record = json.loads(out.read_text())
    else:
        record = {
            "description": (
                "Paired benchmark runs written by tools/pair_bench.py.  'parent' is commit "
                "%s, 'change' the working tree at %s.  Each result is the last stdout line of "
                "the command, run from the root of that checkout, one process at a time, the "
                "two sides of a pair back to back.  'summary' gives medians and quartiles of "
                "the --trace 0 runs and the number of pairs the change won."
                % (parent_sha, change)),
            "host": "%d-core host, %s, Python %s, OPENBLAS_NUM_THREADS=1 (set by perfbench/run.py)"
                    % (os.cpu_count() or 1, platform.machine(), platform.python_version()),
            "summary": {},
            "runs": [],
        }

    # A terminated run still removes its export.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    export = tempfile.mkdtemp(prefix="pair_bench_")
    failed = False
    try:
        export_revision(parent_sha, export)
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = [("parent", export), ("change", str(ROOT))]
            if pair % 2:
                order.reverse()
            pair_order = "%s first" % order[0][0]
            for code, root in order:
                run = run_once(root, code, args.workload, seed, seconds, args.trace, pair_order)
                record["runs"].append(run)
                result = run["result"] or {}
                bad = run["exit_code"] != 0 or result.get("correct") is not True
                failed |= bad
                sys.stderr.write("%s seed %d %s: %s\n" % (
                    args.workload, seed, code,
                    "FAILED (exit %d)" % run["exit_code"] if bad else
                    ", ".join("%s %.4g" % (k, v["value"])
                              for k, v in result["metrics"].items()
                              if k in {m["name"] for m in end_to_end})))
            record["summary"] = summarize(record["runs"], end_to_end)
            out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(export, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
