#!/usr/bin/env python3
"""Knot-search counts and a digest of LARS paths on a fixed set of null paths.

    python3 tools/lars_counts.py --fc 3 --kmax 4 --paths 300 --workload
    python3 tools/lars_counts.py --fc 7 --kmax 5 --paths 40

The paths are lars_run(obs, 1, k_max) on the null observations
perfbench.workloads.lars_observation(1000 + i, 0, f_c) for i < --paths,
after the 12 paths of the lars_fc3 workload round when --workload is given.
The script wraps a few methods of srknots.lars._Leg and prints one JSON
line with:

- locate: calls of _Leg.locate (one per knot after the second);
- halving_first: locate calls whose first candidate_gap (the crossing
  candidate at the lo end of the bracket) is lost, so that the search
  only halves;
- halving_after_false_position: locate calls that solve a bracket
  midpoint after their first Newton point (the fallback);
- sweeps, midpoints, systems: off_support_max sweeps, _midpoint solves
  and _Leg.system calls made inside locate;
- systems_total: every _Leg.system call;
- sweeps_total, newton_total, march_steps: totals over all paths;
- per_path: per path, full off_support_max sweeps (sweeps), _Leg.newton
  calls (newton), _Leg.system calls (systems), march steps (Newton solves
  outside locate) and locate halvings (_midpoint solves); these counts are
  deterministic, so they show a change that host noise hides in timings;
- z_peaks_fallback: starts that knots.z_peaks sends to the bracketed
  maximizer (numerics.maximize_bracketed) after Newton refused them;
- digest: SHA-256 over every path's status and every knot's lambda,
  active points and weights, written with float.hex, so two revisions
  whose paths are bit-identical print the same digest.

It imports the package from the src directory next to this script.
"""

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from srknots import knots, lars  # noqa: E402
from workloads import LarsWorkload, lars_observation  # noqa: E402


def instrument(counts):
    """Wrap the _Leg methods and knots.maximize_bracketed to fill counts."""
    state = {"locate": False, "z_peaks": False, "midpoint": False}
    leg = lars._Leg

    def wrap(owner, name, before=None, after=None, seen=None):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if before:
                before()
            try:
                out = real(*args, **kwargs)
            finally:
                if after:
                    after()
            return seen(out) if seen else out

        setattr(owner, name, wrapper)

    def enter_locate():
        counts["locate"] += 1
        state.update(locate=True, steps=0, tracked=False, fallback=False)

    def leave_locate():
        state["locate"] = False
        counts["halving_after_false_position"] += state["fallback"]

    def enter_midpoint():
        counts["midpoints"] += 1
        state["midpoint"] = True
        if state["steps"]:
            state["fallback"] = True

    def count_newton():
        counts["newton_total"] += 1
        if not state["locate"]:
            counts["march_steps"] += 1
        elif not state["midpoint"]:
            state["steps"] += 1

    def count_sweep():
        counts["sweeps_total"] += 1
        if state["locate"]:
            counts["sweeps"] += 1

    def count_system():
        counts["systems_total"] += 1
        if state["locate"]:
            counts["systems"] += 1

    def first_candidate(out):
        if state["locate"] and not state["tracked"]:
            state["tracked"] = True
            counts["halving_first"] += out is None
        return out

    def count_fallback(out):
        if state["z_peaks"]:
            counts["z_peaks_fallback"] += out[0].size
        return out

    wrap(leg, "locate", enter_locate, leave_locate)
    wrap(leg, "_midpoint", enter_midpoint, lambda: state.update(midpoint=False))
    wrap(leg, "newton", count_newton)
    wrap(leg, "off_support_max", count_sweep)
    wrap(leg, "system", count_system)
    wrap(knots, "maximize_bracketed", seen=count_fallback)
    wrap(knots, "z_peaks", lambda: state.update(z_peaks=True),
         lambda: state.update(z_peaks=False))
    lars.z_peaks = knots.z_peaks  # lars holds its own reference
    wrap(leg, "candidate_gap", seen=first_candidate)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fc", type=int, default=3)
    parser.add_argument("--kmax", type=int, default=4)
    parser.add_argument("--paths", type=int, default=300)
    parser.add_argument("--workload", action="store_true",
                        help="run the 12 paths of the lars_fc3 round first")
    args = parser.parse_args(argv)

    observations = LarsWorkload().round_input(0, 0) if args.workload else []
    observations += [lars_observation(1000 + i, 0, args.fc) for i in range(args.paths)]
    counts = Counter({key: 0 for key in (
        "locate", "halving_first", "halving_after_false_position", "sweeps",
        "midpoints", "systems", "systems_total", "z_peaks_fallback", "sweeps_total",
        "newton_total", "march_steps")})
    instrument(counts)
    digest = hashlib.sha256()
    statuses = Counter()
    opts = lars.LarsOptions(k_max=args.kmax)
    for obs in observations:
        path = lars.lars_run(obs, 1.0, opts)
        statuses[path.status] += 1
        digest.update(path.status.encode())
        for knot in path.knots:
            values = [knot.lam, *knot.active]
            for w in knot.weights:
                values += [w.real, w.imag]
            digest.update(" ".join(float(v).hex() for v in values).encode() + b";")
    n = len(observations)
    per_path = {key: round(counts[total] / n, 2) for key, total in (
        ("sweeps", "sweeps_total"), ("newton", "newton_total"), ("systems", "systems_total"),
        ("march_steps", "march_steps"), ("halvings", "midpoints"))}
    print(json.dumps({"paths": n, "statuses": dict(statuses), **counts, "per_path": per_path,
                      "digest": digest.hexdigest()}))


if __name__ == "__main__":
    main()
