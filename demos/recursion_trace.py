"""Trace a recursive run and print what each level of splitting looks like.

Each Euler split halves every vertex degree to within +-1, so level L
subgraphs have max degree about max_degree / 2^L and carry about
weight / 2^L each.  The table shows the measured aggregates next to
those references, plus the invariant checker's verdict.  Run it:

    python3 demos/recursion_trace.py
"""

from random import Random

from edgecolor import (
    GenSpec,
    collect_level_stats,
    generate,
    recursion_threshold,
    recursive_color_edges,
    verify_proper,
)


def main():
    spec = GenSpec(family="preferential-attachment", n=4096, degree=12, seed=2)
    g = generate(spec)
    print(f"graph: {spec.family} n={g.n} m={g.m} max_degree={g.max_degree}")
    print(f"split threshold for n={g.n}: {recursion_threshold(g.n):.1f}\n")

    trace = []
    chi = recursive_color_edges(g, Random(5), trace=trace)

    header = (
        f"{'level':>5} {'nodes':>6} {'max degree':>24} {'weight sum':>11}"
        f" {'ref':>9} {'violations':>11}"
    )
    print(header)
    print("-" * len(header))
    for level in collect_level_stats(trace):
        degrees = [d for d, _w, _m in level["subgraphs"]]
        deg_span = f"{min(degrees)}..{max(degrees)} (ref {level['delta_ref']:.1f})"
        print(
            f"{level['level']:>5} {len(level['subgraphs']):>6} {deg_span:>24}"
            f" {level['total_weight']:>11} {level['weight_ref']:>9.0f}"
            f" {len(level['violations']):>11}"
        )

    internal = [n for n in trace if not n.is_base]
    repaired = sum(n.pruned_weight for n in internal)
    print(f"\nsplits: {len(internal)}, leaves: {len(trace) - len(internal)}")
    print(f"total weight repaired after pruning: {repaired}"
          f" (root weight {trace[-1].weight})")
    report = verify_proper(g, chi)
    print(f"final coloring proper: {report.proper},"
          f" colors used {report.colors_used} <= {g.max_degree + 1}")


if __name__ == "__main__":
    main()
