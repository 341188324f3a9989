"""Test-only oracles and helpers for cross-checking the fast implementations.

The checks recompute from first principles: maximal alternating paths
are found by scanning two-color subgraphs rather than walking the
incremental occupied maps, fans are validated against the graph and the
live coloring, and ``validate_structures`` rebuilds a coloring's index
from its color array.  The exhaustive suite is the exception: it
replays the fast ``make_primed_fan``, ``maximal_alternating_path`` and
``extend_coloring`` over every small graph, and judges each result by
an independent properness scan (``verify_proper``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from edgecolor.coloring import UNCOLORED, ColoringReport, PartialColoring, verify_colors
from edgecolor.fanpath import (
    AlternatingPath,
    extend_coloring,
    make_primed_fan,
    maximal_alternating_path,
)
from edgecolor.generators import GenSpec
from edgecolor.graph import Graph, build_graph, edge_weight
from edgecolor.recursive import LEFT, RIGHT, EulerSplit


@dataclass
class OracleReport:
    """Outcome of an oracle sweep: what was checked, and what failed."""

    name: str
    instances: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def enumerate_maximal_paths(g: Graph, chi: PartialColoring) -> list[AlternatingPath]:
    """All maximal alternating paths of a coloring, by exhaustive scan.

    For every unordered color pair the edges carrying those two colors
    form disjoint paths and cycles (properness caps each color at one
    edge per vertex).  Path components of length >= 1 are the maximal
    alternating paths; cycles are excluded.  Each path is reported once,
    oriented from its lower-id endpoint.
    """
    paths: list[AlternatingPath] = []
    colors = chi.color
    for c0 in range(1, chi.k + 1):
        for c1 in range(c0 + 1, chi.k + 1):
            adj: dict[int, list[tuple[int, int]]] = {}
            for e in range(g.m):
                if colors[e] == c0 or colors[e] == c1:
                    u, v = g.tail[e], g.head[e]
                    adj.setdefault(u, []).append((v, e))
                    adj.setdefault(v, []).append((u, e))
            terminals = sorted(v for v, inc in adj.items() if len(inc) == 1)
            used: set[int] = set()
            for start in terminals:
                first = adj[start][0]
                if first[1] in used:
                    continue
                vertices = [start]
                edge_ids: list[int] = []
                cur, e = start, first[1]
                nxt = first[0]
                while True:
                    used.add(e)
                    vertices.append(nxt)
                    edge_ids.append(e)
                    options = [(w, f) for w, f in adj[nxt] if f != e]
                    if not options:
                        break
                    (nxt, e), cur = options[0], nxt
                paths.append(AlternatingPath(vertices, edge_ids, c0, c1))
    return paths


def count_internal_memberships(g: Graph, chi: PartialColoring, edge: int) -> int:
    """How many maximal alternating paths have ``edge`` as an internal edge.

    Brute force over all palette colors paired with the edge's own color;
    intended as a test oracle on small graphs.  An edge is internal to
    the maximal (c, c2)-path exactly when both endpoints continue past it
    and the two-colored component containing it is a path, not a cycle.
    """
    c = chi.color[edge]
    if c == UNCOLORED:
        raise ValueError("internal membership is defined for colored edges only")
    u, v = g.tail[edge], g.head[edge]
    occ = chi.occupied
    count = 0
    for c2 in range(1, chi.k + 1):
        if c2 == c:
            continue
        if c2 not in occ[u] or c2 not in occ[v]:
            continue
        # Walk away from the edge at u; if the walk comes back through
        # the edge itself the component is a cycle.
        cur = u
        want = c2
        is_cycle = False
        while True:
            e = occ[cur].get(want)
            if e is None:
                break
            if e == edge:
                is_cycle = True
                break
            cur = g.other_endpoint(e, cur)
            want = c if want == c2 else c2
        if not is_cycle:
            count += 1
    return count


def check_edge_membership_bounds(g: Graph, chi: PartialColoring) -> OracleReport:
    """Check the two path-counting bounds on one coloring.

    Every colored edge may be internal to at most ``edge_weight`` maximal
    paths, and the total internal count over all maximal paths is at most
    the total weight of colored edges.
    """
    report = OracleReport("edge-internal-membership-bounds", instances=1)
    counts: dict[int, int] = {}
    total_internal = 0
    for path in enumerate_maximal_paths(g, chi):
        internal = path.edge_ids[1:-1]
        total_internal += len(internal)
        for e in internal:
            counts[e] = counts.get(e, 0) + 1
    for e, c in sorted(counts.items()):
        w = edge_weight(g, e)
        if c > w:
            report.violations.append(
                f"edge {e} internal to {c} maximal paths but has weight {w}"
            )
    colored_weight = sum(
        edge_weight(g, e) for e in range(g.m) if chi.color[e] != UNCOLORED
    )
    if total_internal > colored_weight:
        report.violations.append(
            f"total internal count {total_internal} exceeds colored weight {colored_weight}"
        )
    return report


def sample_partial_coloring(g: Graph, rng: Random) -> PartialColoring:
    """A random proper partial coloring, by greedy feasible assignment.

    Visits edges in random order up to a random target count and gives
    each a random mutually missing color, skipping edges with none.
    """
    chi = PartialColoring(g)
    order = list(range(g.m))
    rng.shuffle(order)
    target = rng.randrange(g.m + 1)
    for e in order[:target]:
        u, v = g.tail[e], g.head[e]
        occ_u, occ_v = chi.occupied[u], chi.occupied[v]
        feasible = [c for c in range(1, chi.k + 1) if c not in occ_u and c not in occ_v]
        if feasible:
            chi.assign(e, feasible[rng.randrange(len(feasible))])
    return chi


def _all_graphs_up_to(n_max: int, m_max: int | None):
    """Yield every labeled simple graph on ``n_max`` vertices as a Graph.

    Graphs are edge subsets of the complete graph; isomorphic duplicates
    are deliberately kept, trading time for certainty.
    """
    pairs = [(u, v) for u in range(n_max) for v in range(u + 1, n_max)]
    total = len(pairs)
    for mask in range(1 << total):
        if m_max is not None and mask.bit_count() > m_max:
            continue
        edges = [pairs[i] for i in range(total) if mask >> i & 1]
        yield mask, build_graph(edges, n_max)


def exhaustive_extend_suite(
    n_max: int = 6,
    m_max: int | None = None,
    colorings_per_graph: int = 2,
    seed: int = 0,
) -> OracleReport:
    """Replay the single-edge pipeline over every graph on <= n_max vertices.

    For each edge subset of the complete graph, a few sampled proper
    partial colorings, every uncolored edge, and both endpoint choices:
    run fan / path / extend on a fresh copy and verify the result is
    proper with exactly one more colored edge and no colored edge lost.
    The report counts pipelines executed; violations identify the graph
    by its edge-subset mask so failures are reproducible.
    """
    report = OracleReport(f"exhaustive-extend-n{n_max}")
    for mask, g in _all_graphs_up_to(n_max, m_max):
        if g.m == 0:
            continue
        rng = Random((seed << 20) ^ mask)
        for round_no in range(colorings_per_graph):
            base = sample_partial_coloring(g, rng)
            for e in base.uncolored:
                for center in (g.tail[e], g.head[e]):
                    chi = PartialColoring.from_colors(g, base.color[:])
                    before = chi.uncolored_count
                    was_colored = [i for i in range(g.m) if chi.color[i] != UNCOLORED]
                    c0 = chi.random_missing_color(center, rng)
                    fan = make_primed_fan(g, chi, e, center)
                    c1 = fan.primed_color
                    path = maximal_alternating_path(g, chi, center, c0, c1) if c0 != c1 else None
                    extend_coloring(g, chi, fan, path)
                    report.instances += 1
                    tag = f"mask={mask} round={round_no} edge={e} center={center}"
                    if chi.uncolored_count != before - 1:
                        report.violations.append(f"{tag}: did not color exactly one edge")
                    if chi.color[e] == UNCOLORED:
                        report.violations.append(f"{tag}: target edge left uncolored")
                    if any(chi.color[i] == UNCOLORED for i in was_colored):
                        report.violations.append(f"{tag}: a colored edge was lost")
                    result = verify_proper(g, chi)
                    if not result.proper:
                        report.violations.append(f"{tag}: improper result {result.violations[:2]}")
                    if len(report.violations) > 50:
                        return report
    return report


def check_fan(g: Graph, chi: PartialColoring, fan) -> list[str]:
    """Independent validation of every fan invariant; empty means valid."""
    problems: list[str] = []
    v = fan.center
    leaves = fan.leaves
    if len(set(leaves)) != len(leaves):
        problems.append("leaves are not distinct")
    neighbor_edges = {g.other_endpoint(e, v): e for e in incident_edges(g, v)}
    for i, x in enumerate(leaves):
        if x not in neighbor_edges:
            problems.append(f"leaf {x} is not a neighbor of the center")
        elif neighbor_edges[x] != fan.edge_ids[i]:
            problems.append(f"edge id for leaf {x} does not join it to the center")
    if chi.color[fan.edge_ids[0]] != UNCOLORED:
        problems.append("first fan edge is colored")
    for i in range(1, len(leaves)):
        c = chi.color[fan.edge_ids[i]]
        if c == UNCOLORED:
            problems.append(f"fan edge {i} is uncolored")
        elif not chi.is_missing(leaves[i - 1], c):
            problems.append(f"color {c} of fan edge {i} is present at leaf {i - 1}")
    c1 = fan.primed_color
    if not chi.is_missing(leaves[-1], c1):
        problems.append("primed color is present at the last leaf")
    j = fan.primed_index
    if j is None:
        if not chi.is_missing(v, c1):
            problems.append("primed-at-center but color present at center")
    elif not (0 <= j < len(leaves) - 1):
        problems.append("primed leaf index out of range")
    else:
        if not chi.is_missing(leaves[j], c1):
            problems.append(f"primed color is present at leaf {j}")
        if chi.color[fan.edge_ids[j + 1]] != c1:
            problems.append("primed color does not match the fan edge after its leaf")
    return problems


def verify_proper(g: Graph, chi: PartialColoring) -> ColoringReport:
    """Full properness scan of a coloring, bypassing its incremental state."""
    return verify_colors(g, chi.color, chi.k)


def validate_structures(chi: PartialColoring) -> list[str]:
    """Cross-check the incremental structures against a recomputation.

    Returns human-readable mismatch descriptions; empty means consistent.
    """
    g = chi.g
    problems: list[str] = []
    expect_occ: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e in range(g.m):
        c = chi.color[e]
        if c == UNCOLORED:
            continue
        for x in (g.tail[e], g.head[e]):
            if c in expect_occ[x]:
                problems.append(f"improper: color {c} twice at vertex {x}")
            expect_occ[x][c] = e
    for v in range(g.n):
        if chi.occupied[v] != expect_occ[v]:
            problems.append(f"occupied map stale at vertex {v}")
        low = set(range(1, g.degree[v] + 2))
        free = chi._free[v]
        if not low - expect_occ[v].keys() <= set(free) <= low or len(free) > 2 * len(low):
            problems.append(f"free stack wrong at vertex {v}")
    return problems


def missing_colors(chi: PartialColoring, vertex: int) -> list[int]:
    """All missing colors at a vertex, ascending.  O(k)."""
    occ = chi.occupied[vertex]
    return [c for c in range(1, chi.k + 1) if c not in occ]


def canonical_edge_list(g: Graph) -> list[tuple[int, int]]:
    """Sorted list of normalized ``(min, max)`` endpoint pairs."""
    return sorted((u, v) if u < v else (v, u) for u, v in zip(g.tail, g.head))


def incident_edges(g: Graph, v: int) -> list[int]:
    """Vertex ``v``'s edge ids, ascending, from the graph's CSR adjacency."""
    return g.adj_edge[g.adj_start[v]:g.adj_start[v + 1]]


def side_degrees(split: EulerSplit) -> tuple[dict[int, int], dict[int, int]]:
    """Per side, degrees keyed by parent vertex id (absent = 0)."""
    left, right = (
        {p: child.degree[c] for c, p in enumerate(vertices)}
        for child, vertices in (split.child(LEFT), split.child(RIGHT))
    )
    return left, right


def known_arboricity(spec: GenSpec) -> int | None:
    """Upper bound on arboricity guaranteed by construction, if any."""
    if spec.family == "star":
        return 1
    if spec.family in ("forest-union", "star-plus-forests"):
        return spec.alpha
    if spec.family == "grid":
        if spec.rows == 1 or spec.cols == 1:
            return 1
        return 2
    return None
