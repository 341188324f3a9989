"""Walk one single-edge coloring step, printing every intermediate object.

The step colors one chosen edge of a partially colored wheel graph:
build a primed fan around the cheap endpoint, walk the maximal
alternating path for the two colors in play, flip it if needed, rotate
the fan, and drop the freed color on the target edge.  Run it:

    python3 demos/single_edge_walkthrough.py
"""

from edgecolor import (
    PartialColoring,
    build_graph,
    extend_coloring,
    make_primed_fan,
    maximal_alternating_path,
    verify_colors,
)


def missing(chi, v):
    return sorted(c for c in range(1, chi.k + 1) if c not in chi.occupied[v])


def show(g, chi, note):
    parts = []
    for e in range(g.m):
        u, v = g.tail[e], g.head[e]
        c = chi.color[e]
        parts.append(f"({u},{v})={'-' if c == 0 else c}")
    print(f"{note}: " + " ".join(parts))


def main():
    # hub 0, rim 1..5, two chords; max degree 5, so 6 colors suffice
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
             (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    g = build_graph(edges, 6)
    chi = PartialColoring(g)
    for e, c in [(1, 2), (2, 1), (3, 4), (4, 5), (5, 6), (6, 3), (7, 5), (9, 2)]:
        chi.assign(e, c)
    show(g, chi, "start")

    edge = 0  # (0, 1) is uncolored; color it now
    center = 0  # the endpoint whose degree is the edge weight
    print(f"\ntarget edge {(g.tail[edge], g.head[edge])}, center {center}")
    print(f"colors missing at the center: {missing(chi, center)}")

    c0 = 3  # any color missing at the center works; take 3
    fan = make_primed_fan(g, chi, edge, center)
    c1 = fan.primed_color
    spokes = [chi.color[e] for e in fan.edge_ids[1:]]
    print(f"\nfan leaves {fan.leaves}, spoke colors {spokes}")
    j = fan.primed_index
    print(f"primed color {c1} (also missing at leaf {fan.leaves[j]}, index {j}):")
    print(f"  {c1} is missing at the last leaf {fan.leaves[-1]}, and already")
    print(f"  appears inside the fan, so the fan cannot grow further")

    path = maximal_alternating_path(g, chi, center, c0, c1)
    print(f"\nmaximal ({c0},{c1})-path from {center}: vertices {path.vertices}")
    print(f"  first edge carries {c1}, then the colors alternate; the walk")
    print(f"  stops where neither color continues")

    extend_coloring(g, chi, fan, path)
    print()
    show(g, chi, "after the step")
    report = verify_colors(g, chi.color, chi.k)
    print(f"\nproper: {report.proper}, colored edges now: {g.m - report.uncolored}/{g.m}")
    print("the path edges swapped their two colors, the fan rotated its")
    print(f"spoke colors toward the target, and color {c0} landed on the freed spoke")


if __name__ == "__main__":
    main()
