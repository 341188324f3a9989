"""Divide-and-conquer coloring via Euler partitions.

An Euler partition decomposes the edges into maximal tours: every
odd-degree vertex is the endpoint of exactly one open tour, and the
remaining edges fall into closed tours.  Assigning the edges of each
tour alternately to two sides splits the graph into halves whose degrees
differ from half the original by at most one everywhere:

    d(v)/2 - 1  <=  d_side(v)  <=  d(v)/2 + 1.

The recursive colorer splits until the max degree falls under a
threshold tied to the *original* vertex count, colors the leaves with
the sequential algorithm, and on the way back up merges the two child
palettes, prunes the cheapest surplus color classes (by total edge
weight), and repairs the few uncolored edges sequentially.  Because at
most three classes are pruned out of at least max_degree + 4, the weight
of edges to repair is at most ``3 * W / (max_degree + 4)`` per node,
which keeps repair cheap on every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .coloring import UNCOLORED, ColorConflictError, PartialColoring
from .graph import Graph, build_graph, edge_weight, graph_weight
from .sequential import color_edges

LEFT = 0
RIGHT = 1


class ImproperInputError(ValueError):
    """A coloring handed to merge/prune is not total and proper."""


@dataclass(frozen=True)
class EulerSplit:
    """Result of an Euler partition.

    The two child graphs use dense vertex and edge ids of their own;
    ``left_vertices[i]`` is the parent id of the left child's vertex
    ``i`` and ``left_edges[i]`` the parent id of its edge ``i`` (same for
    the right).  Each edge list is ascending, and the two together hold
    every parent edge once.  Vertices isolated on a side are dropped
    from that child.
    """

    left: Graph
    right: Graph
    left_vertices: list[int]
    right_vertices: list[int]
    left_edges: list[int]
    right_edges: list[int]


def euler_partition(g: Graph) -> EulerSplit:
    """Split ``g`` into two halves along an Euler partition.

    Maximal tours are removed greedily, open ones from the odd-degree
    vertices first, and each tour's edges alternate sides; one adjacency
    cursor per vertex keeps this linear.  A walk stops only at a vertex
    with no untaken edge, so each vertex starts at most one closed tour.
    Passing through a vertex puts one edge on each side, so only a tour's
    start vertex can be unbalanced: an open tour starts left, giving its
    start one extra left edge, and its far end is never visited again; an
    odd closed tour puts two extra edges on the side it starts on.  So a
    closed tour starts right at an odd-degree vertex and left at an even
    one.  Then left minus right degree is +-1 at every odd vertex and 0 or
    +2 at every even one: each side's degree is within d(v)/2 +- 1.
    Deterministic for a given graph.
    """
    side = bytearray(b"\x02" * g.m)  # 2 until the walk takes the edge
    cursor = [0] * g.n
    adjacency = g.adjacency
    endpoints = g.endpoints
    degree = g.degree

    def walk(cur: int, s: int) -> None:
        while True:
            adj = adjacency[cur]
            i = cursor[cur]
            while i < len(adj) and side[adj[i]] < 2:
                i += 1
            cursor[cur] = i
            if i == len(adj):
                return
            e = adj[i]
            a, b = endpoints[e]
            cur = b if a == cur else a
            side[e] = s
            s ^= 1

    # An odd vertex where an earlier open tour ended has no edge left.
    for v in range(g.n):
        if degree[v] & 1:
            walk(v, LEFT)
    for v in range(g.n):
        walk(v, RIGHT if degree[v] & 1 else LEFT)
    return _materialize_split(g, side)


def _materialize_split(g: Graph, side: bytearray) -> EulerSplit:
    """Build each side's child from its parent edges in id order.

    Child vertices are numbered in order of first appearance.
    """
    edges: tuple[list[int], list[int]] = ([], [])
    for e, s in enumerate(side):
        edges[s].append(e)
    endpoints = g.endpoints
    children = []
    for eids in edges:
        index = [-1] * g.n
        vertices: list[int] = []
        pairs: list[tuple[int, int]] = []
        for e in eids:
            u, v = endpoints[e]
            if index[u] < 0:
                index[u] = len(vertices)
                vertices.append(u)
            if index[v] < 0:
                index[v] = len(vertices)
                vertices.append(v)
            pairs.append((index[u], index[v]))
        children.append((build_graph(pairs, len(vertices)), vertices))
    (left, left_vertices), (right, right_vertices) = children
    return EulerSplit(left, right, left_vertices, right_vertices, edges[LEFT], edges[RIGHT])


def merge_colorings(
    g: Graph, split: EulerSplit, chi_left: PartialColoring, chi_right: PartialColoring
) -> tuple[list[int], int]:
    """Combine two total child colorings over disjoint palettes.

    Returns the parent's color array, indexed by parent edge id, and its
    palette size ``k_left + k_right``: right-side colors are offset by
    the left palette size.  Raises :class:`ImproperInputError` if either
    input is partial.  No conflict check is needed: each child is proper
    by construction and the two palettes are disjoint, so the checked
    assignment happens once, in :func:`prune_min_weight_colors`.
    """
    if UNCOLORED in chi_left.color or UNCOLORED in chi_right.color:
        raise ImproperInputError("merge requires total colorings on both sides")
    offset = chi_left.k
    colors = [UNCOLORED] * g.m
    for e, c in zip(split.left_edges, chi_left.color):
        colors[e] = c
    for e, c in zip(split.right_edges, chi_right.color):
        colors[e] = offset + c
    return colors, offset + chi_right.k


def prune_min_weight_colors(g: Graph, colors: list[int], k: int) -> PartialColoring:
    """Uncolor surplus color classes, keeping the ``max_degree + 1`` heaviest.

    ``colors`` must be a total coloring of ``g`` on colors ``1..k`` with
    ``k <= max_degree + 4``.  The ``k - max_degree - 1`` classes of least
    total edge weight (ties to the lower color index) are uncolored;
    surviving classes are relabeled order-preservingly into
    ``1..max_degree + 1``.  With ``k <= max_degree + 1`` no class is
    dropped.  The result comes from :meth:`PartialColoring.from_colors`:
    a conflict in the input raises :class:`ImproperInputError`, and when
    no edge is uncolored the coloring's index is not built until read.
    """
    target = g.max_degree + 1
    surplus = k - target
    if surplus > 3:
        raise ValueError(
            f"palette {k} exceeds target {target} by {surplus} > 3; "
            "merged palettes never do"
        )
    if colors and (min(colors) < 1 or max(colors) > k):
        raise ImproperInputError(f"prune requires a total coloring on colors 1..{k}")
    degree = g.degree
    cost = [0] * (k + 1)
    for (u, v), c in zip(g.endpoints, colors):
        du, dv = degree[u], degree[v]
        cost[c] += du if du < dv else dv
    doomed = set(sorted(range(1, k + 1), key=lambda c: (cost[c], c))[: max(surplus, 0)])
    remap = [UNCOLORED] * (k + 1)
    nxt = 1
    for c in range(1, k + 1):
        if c not in doomed:
            remap[c] = nxt
            nxt += 1
    try:
        return PartialColoring.from_colors(g, [remap[c] for c in colors])
    except ColorConflictError as exc:
        raise ImproperInputError(f"coloring to prune is improper: {exc}") from exc


# -- recursion driver ---------------------------------------------------------


@dataclass(frozen=True)
class RecursionNode:
    """One subproblem in the recursion tree, as seen by tracing."""

    level: int
    m: int
    max_degree: int
    weight: int
    vertices: list[int]  # root id of each vertex here
    degrees: list[int]  # degree of each vertex here
    is_base: bool
    merged_palette: int | None
    pruned_weight: int | None


def recursion_threshold(root_n: int) -> float:
    """Max degree below which a subproblem is colored directly."""
    if root_n < 2:
        return float("inf")
    return 2.0 * math.sqrt(root_n / math.log2(root_n))


def recursive_color_edges(
    g: Graph, rng: Random, trace: list[RecursionNode] | None = None
) -> PartialColoring:
    """Color all edges with at most ``max_degree + 1`` colors recursively.

    Splits via :func:`euler_partition` while the max degree exceeds
    ``2 * sqrt(n0 / log2(n0))`` where ``n0`` is the vertex count of the
    *top-level* graph; ties go to the base case.  Children consume
    independent random streams seeded from the parent stream, so a fixed
    seed reproduces the run no matter how the children are scheduled.
    A ``trace`` list gets every node appended, children before parents,
    so the root, the one node at level 0 with vertices ``0..n-1``, is last.
    """
    vmap = list(range(g.n)) if trace is not None else None
    return _recurse(g, rng, trace, recursion_threshold(g.n), vmap, 0)


# A node has one body: a base node is a node with nothing to merge, and
# every node ends in exactly one color_edges call.  edgebench/spans.py
# wraps _recurse, euler_partition, build_graph, merge_colorings,
# prune_min_weight_colors and color_edges by their module-level names,
# reads ``level`` as the sixth positional argument of _recurse (its depth
# counter; tests/test_bench_hooks.py pins it), and tells a base node from
# a repair by whether the coloring is still empty when color_edges runs;
# so these names, ``level``'s place and that one call must stay.  ``vmap``
# maps this node's vertices to root ids; it is kept only when tracing.
# A merged node whose prune uncolors nothing hands color_edges nothing to
# do, so its coloring's index is never built (see from_colors).
def _recurse(
    g: Graph,
    rng: Random,
    trace: list[RecursionNode] | None,
    threshold: float,
    vmap: list[int] | None,
    level: int,
) -> PartialColoring:
    merged = pruned_weight = None
    if g.max_degree <= threshold:
        chi = PartialColoring(g)
    else:
        split = euler_partition(g)
        seed_left = rng.getrandbits(64)
        seed_right = rng.getrandbits(64)
        lmap = rmap = None
        if trace is not None:
            lmap = [vmap[p] for p in split.left_vertices]
            rmap = [vmap[p] for p in split.right_vertices]
        chi_left = _recurse(split.left, Random(seed_left), trace, threshold, lmap, level + 1)
        chi_right = _recurse(split.right, Random(seed_right), trace, threshold, rmap, level + 1)
        colors, merged = merge_colorings(g, split, chi_left, chi_right)
        chi = prune_min_weight_colors(g, colors, merged)
        if trace is not None:
            pruned_weight = sum(edge_weight(g, e) for e in chi.uncolored)
    if trace is not None:
        trace.append(
            RecursionNode(
                level=level,
                m=g.m,
                max_degree=g.max_degree,
                weight=graph_weight(g),
                vertices=vmap,
                degrees=g.degree,
                is_base=merged is None,
                merged_palette=merged,
                pruned_weight=pruned_weight,
            )
        )
    color_edges(g, chi, rng)
    return chi


def collect_level_stats(trace: list[RecursionNode]) -> list[dict]:
    """Aggregate a recursion trace per level and check the halving bounds.

    One dict per level, in level order: ``subgraphs`` holds
    ``(max_degree, weight, m)`` per node, and ``delta_ref`` and
    ``weight_ref`` are the ideal halving references ``max_degree / 2^level``
    and ``weight / 2^level`` of the root.  The recorded ``violations``
    cover: per-subgraph max degree within +-2 of ``delta_ref``; per-vertex
    degrees within +-2 of the halved original degree; level weight sum at
    most ``weight_ref + 2 * m``; a vertex of original degree above
    ``2^(level+1)`` absent from a subgraph.  All comparisons are exact
    integer arithmetic (scaled by 2^level), so no floating-point slack is
    involved.
    """
    if not trace:
        return []
    by_level: dict[int, list[RecursionNode]] = {}
    for node in trace:
        by_level.setdefault(node.level, []).append(node)
    root = by_level[0][0]
    root_degrees = root.degrees
    # Vertices ordered by descending original degree, for the "absent
    # vertex" check: a vertex with d > 2^(level+1) must appear in every
    # subgraph at that level.
    heavy = sorted(
        (v for v in root.vertices if root_degrees[v] > 0), key=lambda v: -root_degrees[v]
    )
    stats: list[dict] = []
    for level in sorted(by_level):
        nodes = by_level[level]
        scale = 1 << level
        violations: list[str] = []
        total_weight = sum(node.weight for node in nodes)
        if total_weight * scale > root.weight + 2 * root.m * scale:
            violations.append(
                f"level {level}: weight sum {total_weight} exceeds "
                f"{root.weight}/{scale} + 2m"
            )
        for idx, node in enumerate(nodes):
            if (node.max_degree + 2) * scale < root.max_degree or (
                node.max_degree - 2
            ) * scale > root.max_degree:
                violations.append(
                    f"level {level} subgraph {idx}: max degree {node.max_degree} "
                    f"outside {root.max_degree}/{scale} +- 2"
                )
            for v, dh in zip(node.vertices, node.degrees):
                dg = root_degrees[v]
                if (dh + 2) * scale < dg or (dh - 2) * scale > dg:
                    violations.append(
                        f"level {level} subgraph {idx}: vertex {v} degree {dh} "
                        f"outside {dg}/{scale} +- 2"
                    )
            present = set(node.vertices)
            for v in heavy:
                if root_degrees[v] <= 2 * scale:
                    break
                if v not in present:
                    violations.append(
                        f"level {level} subgraph {idx}: vertex {v} with original "
                        f"degree {root_degrees[v]} is absent"
                    )
        stats.append({
            "level": level,
            "subgraphs": [(n.max_degree, n.weight, n.m) for n in nodes],
            "total_weight": total_weight,
            "delta_ref": root.max_degree / scale,
            "weight_ref": root.weight / scale,
            "violations": violations,
        })
    return stats
