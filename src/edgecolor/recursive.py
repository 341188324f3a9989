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
from dataclasses import dataclass, field
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

    def side_degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per side, degrees keyed by parent vertex id (absent = 0)."""
        left = {p: self.left.degree[c] for c, p in enumerate(self.left_vertices)}
        right = {p: self.right.degree[c] for c, p in enumerate(self.right_vertices)}
        return left, right


def euler_partition(g: Graph) -> EulerSplit:
    """Split ``g`` into two halves along an Euler partition.

    Maximal tours are removed greedily, open ones from the odd-degree
    vertices first, so each odd vertex ends exactly one tour and the rest
    falls into closed tours; one adjacency cursor per vertex keeps this
    linear.  Each tour's edges alternate sides, starting left.  Passing
    through a vertex puts one edge on each side, so only tour ends are
    unbalanced: an open tour adds one edge to a side at each end, and an
    even closed tour adds nothing.  An odd closed tour puts its first and
    last edge on the same side, so it is rotated to start at its visited
    vertex with the least imbalance so far, and that doubled pair goes to
    the vertex's lighter side; this choice is what keeps the +-1 degree
    bounds.  Deterministic for a given graph.
    """
    side = bytearray(g.m)
    imbalance = [0] * g.n  # (left degree - right degree) so far
    used = bytearray(g.m)
    cursor = [0] * g.n
    rem = list(g.degree)
    adjacency = g.adjacency
    endpoints = g.endpoints

    def walk(start: int) -> None:
        verts = [start]
        eids: list[int] = []
        cur = start
        s = LEFT
        while True:
            adj = adjacency[cur]
            i = cursor[cur]
            while i < len(adj) and used[adj[i]]:
                i += 1
            cursor[cur] = i
            if i == len(adj):
                break
            e = adj[i]
            a, b = endpoints[e]
            nxt = b if a == cur else a
            used[e] = 1
            side[e] = s
            s ^= 1
            rem[cur] -= 1
            rem[nxt] -= 1
            verts.append(nxt)
            eids.append(e)
            cur = nxt
        length = len(eids)
        if cur != start:
            # Open tour: both ends are odd vertices that end no other tour
            # and no closed tour has been walked yet, so both are balanced
            # here and starting left is as good as starting right.
            imbalance[start] += 1
            imbalance[cur] += 1 if length % 2 else -1
        elif length % 2:
            best_p = min(range(length), key=lambda p: abs(imbalance[verts[p]]))
            x = verts[best_p]
            s = LEFT if imbalance[x] <= 0 else RIGHT
            for i in range(length):
                side[eids[(best_p + i) % length]] = s ^ (i & 1)
            imbalance[x] += 2 if s == LEFT else -2

    for v in range(g.n):
        if rem[v] % 2:
            walk(v)
    for v in range(g.n):
        while rem[v] > 0:
            walk(v)
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
    if chi_left.uncolored or chi_right.uncolored:
        raise ImproperInputError("merge requires total colorings on both sides")
    offset = chi_left.k
    colors = [UNCOLORED] * g.m
    for e, c in zip(split.left_edges, chi_left.color):
        colors[e] = c
    for e, c in zip(split.right_edges, chi_right.color):
        colors[e] = offset + c
    return colors, offset + chi_right.k


def prune_min_weight_colors(
    g: Graph, colors: list[int], k: int, target: int, by: str = "weight"
) -> PartialColoring:
    """Uncolor surplus color classes, keeping the ``target`` costliest.

    ``colors`` must be a total coloring of ``g`` on colors ``1..k`` with
    ``k <= target + 3``.  The ``k - target`` classes minimizing total
    edge weight (ties to the lower color index) are uncolored; surviving
    classes are relabeled order-preservingly into ``1..target``.  With
    ``k <= target`` no class is dropped.  The result is built by checked
    assignment in edge-id order on a palette of exactly ``target``
    colors; a conflict in the input raises :class:`ImproperInputError`.
    ``by="size"`` prunes by class cardinality instead, as a benchmark
    ablation.
    """
    surplus = k - target
    if surplus > 3:
        raise ValueError(
            f"palette {k} exceeds target {target} by {surplus} > 3; "
            "merged palettes never do"
        )
    if colors and (min(colors) < 1 or max(colors) > k):
        raise ImproperInputError(f"prune requires a total coloring on colors 1..{k}")
    if by not in ("weight", "size"):
        raise ValueError(f"unknown prune key {by!r}")
    cost = [0] * (k + 1)
    if by == "weight":
        for e, c in enumerate(colors):
            cost[c] += edge_weight(g, e)
    else:
        for c in colors:
            cost[c] += 1
    doomed = set(sorted(range(1, k + 1), key=lambda c: (cost[c], c))[: max(surplus, 0)])
    remap = [UNCOLORED] * (k + 1)
    nxt = 1
    for c in range(1, k + 1):
        if c not in doomed:
            remap[c] = nxt
            nxt += 1
    out = PartialColoring(g, target)
    try:
        for e, c in enumerate(colors):
            c = remap[c]
            if c != UNCOLORED:
                out.assign(e, c)
    except ColorConflictError as exc:
        raise ImproperInputError(f"coloring to prune is improper: {exc}") from exc
    return out


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


@dataclass
class RecursionTrace:
    """Trace of a recursive run: every node, children before parents.

    The root is the one node at level 0; its vertices are ``0..n-1``.
    """

    nodes: list[RecursionNode] = field(default_factory=list)


@dataclass(frozen=True)
class LevelStats:
    """Per-level aggregates of a traced run, with invariant findings.

    ``delta_ref`` and ``weight_ref`` are the ideal halving references
    ``max_degree / 2^level`` and ``weight / 2^level`` of the root.  The
    recorded violations cover: per-subgraph max degree within +-2 of
    ``delta_ref``; per-vertex degrees within +-2 of the halved original
    degree; level weight sum at most ``weight_ref + 2 * m``.
    """

    level: int
    subgraphs: list[tuple[int, int, int]]  # (max_degree, weight, m) per node
    total_weight: int
    delta_ref: float
    weight_ref: float
    violations: list[str]


def recursion_threshold(root_n: int) -> float:
    """Max degree below which a subproblem is colored directly."""
    if root_n < 2:
        return float("inf")
    return 2.0 * math.sqrt(root_n / math.log2(root_n))


def recursive_color_edges(
    g: Graph,
    rng: Random,
    trace: RecursionTrace | None = None,
    prune_by: str = "weight",
) -> PartialColoring:
    """Color all edges with at most ``max_degree + 1`` colors recursively.

    Splits via :func:`euler_partition` while the max degree exceeds
    ``2 * sqrt(n0 / log2(n0))`` where ``n0`` is the vertex count of the
    *top-level* graph; ties go to the base case.  Children consume
    independent random streams seeded from the parent stream, so a fixed
    seed reproduces the run no matter how the children are scheduled.
    """
    vmap = list(range(g.n)) if trace is not None else None
    return _recurse(g, rng, trace, prune_by, recursion_threshold(g.n), 0, vmap)


# A node has one body: a base node is a node with nothing to merge, and
# every node ends in exactly one color_edges call.  edgebench/spans.py
# wraps _recurse, euler_partition, build_graph, merge_colorings,
# prune_min_weight_colors and color_edges by their module-level names,
# reads ``level`` as the sixth positional argument of _recurse, and tells
# a base node from a repair by whether the coloring is still empty when
# color_edges runs; so these names, that argument order and that one call
# must stay.  ``vmap`` maps this node's vertices to root ids; it is kept
# only when tracing.
def _recurse(
    g: Graph,
    rng: Random,
    trace: RecursionTrace | None,
    prune_by: str,
    threshold: float,
    level: int,
    vmap: list[int] | None,
) -> PartialColoring:
    merged = pruned_weight = None
    if g.max_degree <= threshold:
        chi = PartialColoring(g, g.max_degree + 1)
    else:
        split = euler_partition(g)
        seed_left = rng.getrandbits(64)
        seed_right = rng.getrandbits(64)
        lmap = rmap = None
        if trace is not None:
            lmap = [vmap[p] for p in split.left_vertices]
            rmap = [vmap[p] for p in split.right_vertices]
        chi_left = _recurse(split.left, Random(seed_left), trace, prune_by, threshold, level + 1, lmap)
        chi_right = _recurse(split.right, Random(seed_right), trace, prune_by, threshold, level + 1, rmap)
        colors, merged = merge_colorings(g, split, chi_left, chi_right)
        chi = prune_min_weight_colors(g, colors, merged, g.max_degree + 1, by=prune_by)
        if trace is not None:
            pruned_weight = sum(edge_weight(g, e) for e in chi.uncolored)
    if trace is not None:
        trace.nodes.append(
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


def collect_level_stats(trace: RecursionTrace) -> list[LevelStats]:
    """Aggregate a recursion trace per level and check the halving bounds.

    All comparisons are exact integer arithmetic (scaled by 2^level), so
    no floating-point slack is involved.
    """
    if not trace.nodes:
        return []
    by_level: dict[int, list[RecursionNode]] = {}
    for node in trace.nodes:
        by_level.setdefault(node.level, []).append(node)
    root = by_level[0][0]
    root_degrees = root.degrees
    # Vertices ordered by descending original degree, for the "absent
    # vertex" check: a vertex with d > 2^(level+1) must appear in every
    # subgraph at that level.
    heavy = sorted(
        (v for v in root.vertices if root_degrees[v] > 0), key=lambda v: -root_degrees[v]
    )
    stats: list[LevelStats] = []
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
        stats.append(
            LevelStats(
                level=level,
                subgraphs=[(n.max_degree, n.weight, n.m) for n in nodes],
                total_weight=total_weight,
                delta_ref=root.max_degree / scale,
                weight_ref=root.weight / scale,
                violations=violations,
            )
        )
    return stats
