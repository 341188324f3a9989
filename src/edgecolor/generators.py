"""Seeded graph families for tests and benchmarks.

All generators are deterministic in their seed and return simple graphs.
The star / forest-union / star-plus-forests / grid families come with a
known arboricity bound (``GenSpec.known_arboricity``), against which the
tests check the weight-versus-density claims on generated inputs.  The
forest-based families draw each forest by random attachment, which gives
no particular distribution over forests but a forest by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from random import Random

from .graph import Graph, build_graph, randbelow


class InfeasibleSpecError(ValueError):
    """The requested parameters cannot produce a valid graph."""


FAMILIES = (
    "star",
    "forest-union",
    "star-plus-forests",
    "erdos-renyi",
    "preferential-attachment",
    "grid",
)


@dataclass(frozen=True)
class GenSpec:
    """Serializable description of one generated graph.

    Only the fields relevant to ``family`` are read: ``n``/``alpha`` for
    the forest families (plus optional ``star_leaves`` / ``forest_edges``
    overrides for star-plus-forests), ``n``/``m`` for erdos-renyi,
    ``n``/``degree`` for preferential-attachment, ``rows``/``cols`` for
    grid.
    """

    family: str
    n: int | None = None
    m: int | None = None
    alpha: int | None = None
    degree: int | None = None
    rows: int | None = None
    cols: int | None = None
    star_leaves: int | None = None
    forest_edges: int | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    def known_arboricity(self) -> int | None:
        """Upper bound on arboricity guaranteed by construction, if any."""
        if self.family == "star":
            return 1
        if self.family in ("forest-union", "star-plus-forests"):
            return self.alpha
        if self.family == "grid":
            if self.rows == 1 or self.cols == 1:
                return 1
            return 2
        return None


def generate(spec: GenSpec) -> Graph:
    """Build the graph described by ``spec``.

    Raises :class:`InfeasibleSpecError` for unknown families, for unset
    fields the family needs, and (from the ``gen_*`` builder) for
    out-of-range parameters.
    """
    family = spec.family
    if family == "star":
        return gen_star(*_required(spec, "n"))
    if family == "forest-union":
        return gen_forest_union(*_required(spec, "n", "alpha"), spec.seed)
    if family == "star-plus-forests":
        n, alpha = _required(spec, "n", "alpha")
        return gen_star_plus_forests(n, alpha, spec.seed, spec.star_leaves, spec.forest_edges)
    if family == "erdos-renyi":
        return gen_erdos_renyi(*_required(spec, "n", "m"), spec.seed)
    if family == "preferential-attachment":
        return gen_preferential_attachment(*_required(spec, "n", "degree"), spec.seed)
    if family == "grid":
        return gen_grid(*_required(spec, "rows", "cols"))
    raise InfeasibleSpecError(f"unknown family {family!r}")


def _required(spec: GenSpec, *names: str) -> list[int]:
    """The values of the named fields, which must all be set."""
    missing = [name for name in names if getattr(spec, name) is None]
    if missing:
        raise InfeasibleSpecError(f"{spec.family} needs {' and '.join(missing)}")
    return [getattr(spec, name) for name in names]


def gen_star(n: int) -> Graph:
    """Star: vertex 0 joined to every other vertex."""
    if n < 1:
        raise InfeasibleSpecError("star needs n >= 1")
    return build_graph([(0, i) for i in range(1, n)], n)


def _grow_forest(
    n: int,
    rng: Random,
    taken: set[tuple[int, int]],
    out: list[tuple[int, int]],
    target: int,
) -> int:
    """Add up to ``target`` edges of one random forest, avoiding ``taken``.

    In shuffled order, each vertex attaches to a random earlier vertex,
    or to the next earlier one (cyclically) whose pair is free; one with
    no free pair starts a new tree.  One earlier parent per vertex makes
    a forest.  Returns the number of edges added.
    """
    order = list(range(n))
    rng.shuffle(order)
    added = 0
    for i in range(1, n):
        if added >= target:
            break
        v = order[i]
        j = randbelow(rng, i)
        for k in range(j, j + i):
            u = order[k % i]
            key = (u, v) if u < v else (v, u)
            if key not in taken:
                taken.add(key)
                out.append(key)
                added += 1
                break
    return added


def gen_forest_union(n: int, alpha: int, seed: int) -> Graph:
    """Union of ``alpha`` random forests; arboricity <= alpha.

    Each is a spanning tree unless a vertex finds all its earlier vertices taken.
    """
    if n < 1 or alpha < 1:
        raise InfeasibleSpecError("forest-union needs n >= 1 and alpha >= 1")
    rng = Random(seed)
    taken: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for _ in range(alpha):
        _grow_forest(n, rng, taken, edges, n - 1)
    return build_graph(edges, n)


def gen_star_plus_forests(
    n: int,
    alpha: int,
    seed: int,
    star_leaves: int | None = None,
    forest_edges: int | None = None,
) -> Graph:
    """A star overlaid with ``alpha - 1`` random forests.

    The default star spans all of ``1..n-1``; ``star_leaves`` shrinks it
    and ``forest_edges`` caps each forest, which together let benchmarks
    sweep the max degree while holding the edge count roughly fixed.
    Max degree is about the star size while the arboricity stays at most
    ``alpha``, so these graphs are dense in degree but sparse in weight.
    A full star takes every pair at vertex 0, so vertex 0 gets no forest
    edge and each forest has at most ``n - 2`` edges.
    """
    if n < 2 or alpha < 2:
        raise InfeasibleSpecError("star-plus-forests needs n >= 2 and alpha >= 2")
    leaves = n - 1 if star_leaves is None else star_leaves
    if not (1 <= leaves <= n - 1):
        raise InfeasibleSpecError(f"star_leaves must be in 1..{n - 1}")
    per_forest = n - 1 if forest_edges is None else forest_edges
    if per_forest < 0:
        raise InfeasibleSpecError("forest_edges must be non-negative")
    rng = Random(seed)
    edges = [(0, i) for i in range(1, leaves + 1)]
    taken = set(edges)
    for _ in range(alpha - 1):
        _grow_forest(n, rng, taken, edges, per_forest)
    return build_graph(edges, n)


def gen_erdos_renyi(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly ``m`` edges."""
    if n < 1 or m < 0:
        raise InfeasibleSpecError("erdos-renyi needs n >= 1 and m >= 0")
    limit = n * (n - 1) // 2
    if m > limit:
        raise InfeasibleSpecError(f"m={m} exceeds the {limit} possible edges on n={n}")
    rng = Random(seed)
    edges: list[tuple[int, int]] = []
    if m > limit // 2:
        # Dense request: shuffle the full pair list instead of rejection
        # sampling, which would stall near saturation.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = pairs[:m]
    else:
        chosen: set[tuple[int, int]] = set()
        while len(edges) < m:
            u = randbelow(rng, n)
            v = randbelow(rng, n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in chosen:
                continue
            chosen.add(key)
            edges.append(key)
    return build_graph(edges, n)


def gen_preferential_attachment(n: int, degree: int, seed: int) -> Graph:
    """Degree-proportional attachment, simple, seeded by a triangle.

    Each vertex from 3 on attaches to ``min(degree, existing)`` distinct
    earlier vertices, chosen by sampling the endpoint multiset (degree
    bias) with duplicate-target rejection.
    """
    if n < 3:
        raise InfeasibleSpecError("preferential-attachment needs n >= 3")
    if degree < 1:
        raise InfeasibleSpecError("attachment degree must be >= 1")
    rng = Random(seed)
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    endpoint_pool = [0, 1, 0, 2, 1, 2]
    for v in range(3, n):
        want = min(degree, v)
        targets: set[int] = set()
        # Every earlier vertex is in the pool and want <= v, so this ends.
        while len(targets) < want:
            targets.add(endpoint_pool[randbelow(rng, len(endpoint_pool))])
        for u in sorted(targets):
            edges.append((u, v))
            endpoint_pool.append(u)
            endpoint_pool.append(v)
    return build_graph(edges, n)


def gen_grid(rows: int, cols: int) -> Graph:
    """Axis-aligned grid; vertex (r, c) is ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise InfeasibleSpecError("grid needs rows >= 1 and cols >= 1")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(edges, rows * cols)
