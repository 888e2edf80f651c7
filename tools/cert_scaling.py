#!/usr/bin/env python3
"""Cost of the knot certificate against f_c, layer by layer.

    python3 tools/cert_scaling.py

For each f_c of F_CS (in that order) the script draws DRAWS null
observations synthesize(AtomicMeasure.empty(), f_c, 1.0, RngStream(11, r)),
r < DRAWS, and runs compute_certificate on each once to warm up.  It then
times PASSES passes of each layer over all draws, one layer after the other:
first_knot, second_knot and hessian_and_alphas (at each draw's own first
knot), then compute_certificate.  It prints one Markdown table row per f_c
with the best pass in ms per call, the median number of starts that
first_knot polishes per call (the output size of its one Newton polish,
knots._newton_peaks, counted in a pass of its own outside the timed ones),
and the peak resident set size of the process so far (ru_maxrss), so that
the row of a large f_c shows what every f_c before it left in memory.

One BLAS thread is used unless OPENBLAS_NUM_THREADS is set.  It imports the
package from the src directory next to this script.
"""

import os
import resource
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srknots import knots  # noqa: E402
from srknots.knots import (  # noqa: E402
    compute_certificate,
    first_knot,
    hessian_and_alphas,
    second_knot,
)
from srknots.model import AtomicMeasure, RngStream, synthesize  # noqa: E402

F_CS = (7, 15, 30, 60, 120)
DRAWS = 40
PASSES = 15


def best_ms_per_call(fun, args_list):
    """The fastest of PASSES passes of fun over args_list, in ms per call."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for args in args_list:
            fun(*args)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / len(args_list)


def median_starts(draws):
    """The median over draws of the number of starts first_knot polishes."""
    sizes = []
    real = knots._newton_peaks

    def counted(obs, t0, radius):
        out = real(obs, t0, radius)
        sizes.append(out[0].size)
        return out

    knots._newton_peaks = counted
    try:
        for obs in draws:
            first_knot(obs)
    finally:
        knots._newton_peaks = real
    return statistics.median(sizes)


def main():
    print("| `f_c` | first_knot | second_knot | hessian_and_alphas | compute_certificate "
          "| first_knot starts | peak RSS (MB) |")
    print("|---|---|---|---|---|---|---|")
    for f_c in F_CS:
        draws = [synthesize(AtomicMeasure.empty(), f_c, 1.0, RngStream(11, r))
                 for r in range(DRAWS)]
        certs = [compute_certificate(obs) for obs in draws]
        at_knot = [(obs, cert.z_hat, cert.lambda1) for obs, cert in zip(draws, certs)]
        row = [best_ms_per_call(first_knot, [(obs,) for obs in draws]),
               best_ms_per_call(second_knot, at_knot),
               best_ms_per_call(hessian_and_alphas, at_knot),
               best_ms_per_call(compute_certificate, [(obs,) for obs in draws])]
        starts = median_starts(draws)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("| %d | %s | %g | %.0f |" % (f_c, " | ".join("%.3f" % ms for ms in row), starts,
                                           peak_mb), flush=True)


if __name__ == "__main__":
    main()
