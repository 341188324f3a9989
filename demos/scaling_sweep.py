"""Mini scaling sweep: wall time against m * log2(n) on a sparse family.

On stars overlaid with a forest (arboricity 2), both colorers should run
in about m * log(n) time even though the max degree is enormous; the
printed ratio staying flat is the point.  Each time is the median of
REPS ``run_coloring`` calls (graph seed n, colorer seed 1).  The GC
column is the time the cyclic collector spent inside the median
recursive call, timed through ``gc.callbacks``.  The default sizes finish
in seconds; pass two exponents for a longer look, such as ROADMAP's
scaling table:

    python3 demos/scaling_sweep.py               # n = 2^10 .. 2^13
    python3 demos/scaling_sweep.py --exp 11 15   # n = 2^11 .. 2^15
"""

import argparse
import gc
import math
import time

from edgecolor import GenSpec, generate, run_coloring

MIN_EXP = 10
MAX_EXP = 13
REPS = 3
ALGORITHMS = ("color-edges", "recursive")


def _timed(g, algorithm):
    """(wall ms, GC ms) of the median of REPS calls."""
    gc_ns = 0
    started = 0

    def on_gc(phase, info):
        nonlocal gc_ns, started
        if phase == "start":
            started = time.perf_counter_ns()
        else:
            gc_ns += time.perf_counter_ns() - started

    runs = []
    gc.callbacks.append(on_gc)
    try:
        for _ in range(REPS):
            gc_ns = 0
            wall_us = run_coloring(g, algorithm, seed=1).wall_us
            runs.append((wall_us / 1000, gc_ns / 1e6))
    finally:
        gc.callbacks.remove(on_gc)
    return sorted(runs)[REPS // 2]


def main(min_exp=MIN_EXP, max_exp=MAX_EXP):
    print(f"{'n':>7} {'m':>7} {'max deg':>8} {'color-edges ms':>15} {'recursive ms':>13}"
          f" {'(GC ms)':>8} {'color-edges us/(m log2 n)':>26} {'recursive us/(m log2 n)':>24}")
    ratios = {a: [] for a in ALGORITHMS}
    for exp in range(min_exp, max_exp + 1):
        n = 2**exp
        g = generate(GenSpec(family="star-plus-forests", n=n, alpha=2, seed=n))
        (ce_ms, _), (rec_ms, rec_gc_ms) = (_timed(g, a) for a in ALGORITHMS)
        for a, ms in zip(ALGORITHMS, (ce_ms, rec_ms)):
            ratios[a].append(ms * 1000 / (g.m * math.log2(n)))
        print(f"{n:>7} {g.m:>7} {g.max_degree:>8} {ce_ms:>15.1f} {rec_ms:>13.1f}"
              f" {rec_gc_ms:>8.1f} {ratios['color-edges'][-1]:>26.2f}"
              f" {ratios['recursive'][-1]:>24.2f}")
    print()
    for a in ALGORITHMS:
        spread = max(ratios[a]) / min(ratios[a])
        print(f"{a} ratio spread: {spread:.2f}x across a {2**(max_exp - min_exp)}x size range")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--exp", nargs=2, type=int, default=(MIN_EXP, MAX_EXP),
                        metavar=("MIN", "MAX"), help="sweep n = 2^MIN .. 2^MAX")
    # Known arguments only: tests/test_demos.py runs this under pytest's argv.
    main(*parser.parse_known_args()[0].exp)
