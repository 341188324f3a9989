"""Color one graph with every algorithm and compare the reports.

All algorithms must land inside the max_degree + 1 palette; they differ in
how they get there and how the work scales.  Run it:

    python3 demos/compare_algorithms.py
"""

from edgecolor import ALGORITHMS, GenSpec, build_report, generate, run_coloring


def main():
    spec = GenSpec(family="star-plus-forests", n=3000, alpha=2, seed=12)
    g = generate(spec)
    print(f"graph: {spec.family} n={g.n} m={g.m} max_degree={g.max_degree}\n")
    header = f"{'algorithm':12} {'wall ms':>9} {'palette':>8} {'used':>5} {'max':>4} ok"
    print(header)
    print("-" * len(header))
    for algo in ALGORITHMS:
        result = run_coloring(g, algo, seed=7)
        report = build_report(g, result, spec.to_dict())
        print(
            f"{algo:12} {report['wall_us'] / 1000:9.1f} {report['palette']:8}"
            f" {report['colors_used']:5} {report['max_color']:4} {report['ok']}"
        )
    print("\nnaive picks deterministic colors edge by edge; color-edges does")
    print("randomized single-edge steps; recursive splits the graph in")
    print("half by degrees until it is cheap to color directly, then")
    print("merges, prunes surplus color classes, and repairs")


if __name__ == "__main__":
    main()
