"""Static undirected graphs with dense integer edge ids.

Vertices are ``0..n-1``.  Edges receive ids ``0..m-1`` in input order, and
every other module in this package keys its per-edge state by those ids.
Graphs are simple (no self-loops, no parallel edges) and immutable once
built.

The weight of an edge is the smaller of its endpoint degrees; the weight
of a graph is the sum of its edge weights.  For sparse graphs this sum
stays close to linear in the edge count, which is what makes the
coloring algorithms in this package fast, so the module also exposes a
degeneracy computation as a cheap density proxy.

:func:`randbelow` is the one bounded random draw that the seeded
generators and colorers share.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, islice
from random import Random
from typing import Iterable, TextIO


class GraphError(ValueError):
    """Invalid graph construction or parse input."""


class EdgeError(GraphError):
    """An edge that :func:`build_graph` rejects, named by its input index."""

    def __init__(self, index: int, u: int, v: int, problem: str):
        super().__init__(f"edge {index} ({u}, {v}) {problem}")
        self.index = index
        self.edge = (u, v)


class SelfLoopError(EdgeError):
    def __init__(self, index: int, u: int, v: int):
        super().__init__(index, u, v, "is a self-loop")


class DuplicateEdgeError(EdgeError):
    def __init__(self, index: int, u: int, v: int):
        super().__init__(index, u, v, "duplicates an earlier edge")


class VertexOutOfRangeError(EdgeError):
    def __init__(self, index: int, u: int, v: int, n: int):
        super().__init__(index, u, v, f"has an endpoint outside 0..{n - 1}")


class ParseError(GraphError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Immutable adjacency-list graph.

    Attributes:
        n: number of vertices.
        m: number of edges.
        endpoints: per edge id, the ``(u, v)`` pair as given on input.
            The pairs share one int object per vertex id.
        adjacency: per vertex, its edge ids in ascending order; the
            neighbor across each is read from ``endpoints``.
        degree: per vertex, its degree.
        max_degree: largest degree (0 for an edgeless graph).
    """

    n: int
    m: int
    endpoints: list[tuple[int, int]]
    adjacency: list[list[int]]
    degree: list[int]
    max_degree: int

    def other_endpoint(self, edge: int, vertex: int) -> int:
        u, v = self.endpoints[edge]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {edge}")


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    graph_weight: int
    degeneracy: int


def build_graph(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Validate an edge list and build a :class:`Graph`.

    Raises :class:`VertexOutOfRangeError`, :class:`SelfLoopError` or
    :class:`DuplicateEdgeError`, each identifying the offending edge.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    endpoints: list[tuple[int, int]] = []
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    # The first int object seen for each vertex id; every later endpoint
    # reuses it, so the graph holds one object per vertex, not per endpoint.
    vid: list[int | None] = [None] * n
    for index, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(index, u, v, n)
        if u == v:
            raise SelfLoopError(index, u, v)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(index, u, v)
        seen.add(key)
        su = vid[u]
        if su is None:
            su = vid[u] = u
        sv = vid[v]
        if sv is None:
            sv = vid[v] = v
        endpoints.append((su, sv))
        adjacency[u].append(index)
        adjacency[v].append(index)
    degree = [len(adjacency[v]) for v in range(n)]
    max_degree = max(degree, default=0)
    return Graph(n, len(endpoints), endpoints, adjacency, degree, max_degree)


def edge_weight(g: Graph, edge: int) -> int:
    """Weight of an edge: the smaller endpoint degree."""
    u, v = g.endpoints[edge]
    du, dv = g.degree[u], g.degree[v]
    return du if du < dv else dv


def graph_weight(g: Graph) -> int:
    """Total weight: sum of min endpoint degrees over all edges."""
    degree = g.degree
    total = 0
    for u, v in g.endpoints:
        du, dv = degree[u], degree[v]
        total += du if du < dv else dv
    return total


def degeneracy(g: Graph) -> int:
    """Degeneracy via min-degree peeling.

    Repeatedly removes a minimum-degree vertex; the answer is the largest
    degree seen at removal time.  Runs in O(n + m) with lazy bucket
    queues.  The degeneracy is a constant-factor proxy for arboricity:
    arboricity <= degeneracy <= 2*arboricity - 1.
    """
    n = g.n
    if n == 0:
        return 0
    deg = list(g.degree)
    bins: list[list[int]] = [[] for _ in range(g.max_degree + 1)]
    for v in range(n):
        bins[deg[v]].append(v)
    removed = [False] * n
    best = 0
    cur = 0
    adjacency = g.adjacency
    endpoints = g.endpoints
    for _ in range(n):
        # Skip stale bucket entries; a vertex is live only in the bucket
        # matching its current degree.
        while True:
            if not bins[cur]:
                cur += 1
                continue
            v = bins[cur].pop()
            if not removed[v] and deg[v] == cur:
                break
        removed[v] = True
        if cur > best:
            best = cur
        for e in adjacency[v]:
            a, b = endpoints[e]
            u = b if a == v else a
            if not removed[u]:
                deg[u] -= 1
                bins[deg[u]].append(u)
        if cur:
            cur -= 1
    return best


def graph_stats(g: Graph) -> GraphStats:
    return GraphStats(
        max_degree=g.max_degree,
        graph_weight=graph_weight(g),
        degeneracy=degeneracy(g),
    )


class IntPairs:
    """Iterator over the ``(a, b)`` pairs of a two-integers-per-line format.

    ``source`` is an open text file or a string, split into lines alike
    (universal newlines).  Blank lines and ``#`` comments are skipped;
    any other line is a :class:`ParseError`.  An integer is ASCII
    decimal digits with an optional leading ``-``: ``int`` would also
    take ``+``, ``_`` and non-ASCII digits, which are refused here.  A
    line holding a lone surrogate, which is how a file opened with
    ``errors="surrogateescape"`` carries bytes that are not UTF-8, is a
    :class:`ParseError` too, comment or not.  ``line_no`` is the line of
    the pair returned last, so a caller can name the line of a pair it
    rejects.
    """

    __slots__ = ("_lines", "line_no")

    def __init__(self, source: str | TextIO):
        lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
        self._lines = enumerate(lines, start=1)
        self.line_no = 0

    def __iter__(self) -> IntPairs:
        return self

    def __next__(self) -> tuple[int, int]:
        for line_no, raw in self._lines:
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(line_no, "not valid UTF-8") from None
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                a, b = parts
                token = a + b
                if not token.isascii() or "+" in token or "_" in token:
                    raise ValueError
                a, b = int(a), int(b)
            except ValueError:
                raise ParseError(
                    line_no, f"expected two integers, got {raw.strip()!r}"
                ) from None
            self.line_no = line_no
            return a, b
        raise StopIteration


def read_edge_list(source: str | TextIO) -> Graph:
    """Parse the plain edge-list format from an open text file or a string.

    The first significant line is ``n m``; exactly ``m`` lines ``u v``
    follow (0-indexed vertices).  Blank lines and ``#`` comments are
    skipped anywhere.  Edges stream into :func:`build_graph` as they are
    read, so reading stops at the first bad line.  Every error names its
    line: a :class:`ParseError`, or an :class:`EdgeError` from
    :func:`build_graph` with the line prefixed.  A header ``n`` above
    ``2 * m + 2**20`` fails before anything is allocated per vertex.
    """
    pairs = IntPairs(source)
    header = next(pairs, None)
    if header is None:
        raise ParseError(1, "missing 'n m' header")
    n, m = header
    header_line = pairs.line_no
    if n < 0 or m < 0:
        raise ParseError(header_line, "header counts must be non-negative")
    # Only isolated vertices lie beyond 2m, so this bounds the per-vertex
    # memory build_graph allocates (an adjacency list and a transient slot
    # of its vertex-id table per declared vertex) by the edges plus a
    # fixed slack.
    if n > 2 * m + 2**20:
        raise ParseError(header_line, f"header n={n} exceeds 2*m + {2**20}")
    try:
        g = build_graph(islice(pairs, m), n)
    except EdgeError as exc:
        exc.args = (f"line {pairs.line_no}: {exc}",)
        raise
    if g.m != m:
        raise ParseError(header_line, f"header promises {m} edges, found {g.m}")
    if next(pairs, None) is not None:
        raise ParseError(pairs.line_no, f"more than {m} edge lines")
    return g


def write_edge_list(g: Graph) -> str:
    """Serialize in the format accepted by :func:`read_edge_list`."""
    pairs = tuple(chain.from_iterable(g.endpoints))
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % pairs


def randbelow(rng: Random, n: int) -> int:
    """Uniform integer in ``0..n-1``: the value ``rng.randrange(n)`` returns.

    This is the ``getrandbits`` rejection loop that ``randrange`` runs for
    an int ``n > 0``, without its argument handling, so a seed draws the
    same values either way.
    """
    if n < 1:
        raise ValueError(f"randbelow needs n >= 1, got {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r
