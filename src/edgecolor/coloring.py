"""Mutable partial edge colorings with constant-time incremental updates.

Colors are 1-based integers; 0 marks an uncolored edge.  The palette is
``1..max_degree + 1``, so every vertex always has a missing color.

A :class:`PartialColoring` maintains, alongside the per-edge color array:

* per vertex, a hash map from occupied color to the edge carrying it,
  so color lookups and missing-color tests are O(1);
* per vertex, a lazy stack of the free colors among ``1..d(v)+1``, so a
  deterministic missing color takes O(1) amortized even where ``d(v)`` is
  far below the max degree.  It holds every free low color (at most
  ``d(v)`` of them can be occupied) and may hold stale entries, colors
  occupied since they were pushed, popped when they surface; past
  ``2(d(v)+1)`` entries it is rebuilt from the occupied map.

The set of uncolored edges is not stored: :attr:`PartialColoring.uncolored`
derives it from the color array in O(m), and
:func:`edgecolor.sequential.color_edges`, the one caller that samples it,
keeps its own swap-removal list.

All single-edge mutations are O(1) amortized.  The structures are
redundant with the color array on purpose; :func:`validate_structures`
recomputes them from scratch and reports any drift, and
:func:`verify_proper` checks properness without consulting them at all.

:meth:`PartialColoring.from_colors` takes a whole color array at once.
For a total coloring it checks properness in O(m) and leaves the
per-vertex index (the occupied maps and the free stacks) unbuilt until
something first reads it, so a coloring that is only read back, as the
recursive colorer's merged nodes are, never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Sequence, TextIO

from .graph import Graph, IntPairs, ParseError, randbelow

UNCOLORED = 0

# Rejection sampling of a missing color gives up after this many draws
# and falls back to materializing the missing set (still uniform).
_REJECTION_CAP = 64


class ColoringError(ValueError):
    """Invalid partial-coloring operation."""


class ColorConflictError(ColoringError):
    def __init__(self, edge: int, color: int, vertex: int, other_edge: int):
        super().__init__(
            f"color {color} already used at vertex {vertex} by edge "
            f"{other_edge}; cannot assign it to edge {edge}"
        )
        self.edge = edge
        self.color = color
        self.vertex = vertex
        self.other_edge = other_edge


class AlreadyColoredError(ColoringError):
    def __init__(self, edge: int, color: int):
        super().__init__(f"edge {edge} already has color {color}")
        self.edge = edge


class AlreadyUncoloredError(ColoringError):
    def __init__(self, edge: int):
        super().__init__(f"edge {edge} is already uncolored")
        self.edge = edge


class PartialColoring:
    """Partial proper edge coloring of a fixed graph, empty on creation."""

    __slots__ = ("g", "k", "color", "occupied", "_free")

    def __init__(self, g: Graph):
        self.g = g
        self.k = g.max_degree + 1
        self.color: list[int] = [UNCOLORED] * g.m
        self.occupied: list[dict[int, int]] = [{} for _ in range(g.n)]
        # Free-color stacks, top last: 1 is picked first, then d+1, d, ...
        self._free: list[list[int]] = [[*range(2, d + 2), 1] for d in g.degree]

    @staticmethod
    def from_colors(g: Graph, colors: list[int]) -> PartialColoring:
        """The coloring of ``g`` that holds ``colors``, one color or 0 per edge id.

        Equal to an empty coloring filled by checked :meth:`assign` calls
        in edge-id order, and raises what those calls raise.  A total
        coloring is checked at once, by one set of ``(vertex, color)``
        keys, each packed into one int, and takes ``colors`` over as its
        color array; its index is built on first read, by those same
        checked calls.  On a clash, or when some edge is uncolored (a
        coloring that is about to be colored further), the checked calls
        run right away.
        """
        if len(colors) != g.m:
            raise ColoringError(f"{len(colors)} colors for {g.m} edges")
        k = g.max_degree + 1
        if not colors or (min(colors) >= 1 and max(colors) <= k):
            # (vertex, color) as one int: 1 <= color <= k keeps it injective.
            k1 = k + 1
            keys = {u * k1 + c for (u, _), c in zip(g.endpoints, colors)}
            keys.update(v * k1 + c for (_, v), c in zip(g.endpoints, colors))
            if len(keys) == 2 * g.m:
                chi = object.__new__(_Unindexed)
                chi.g = g
                chi.k = k
                chi.color = colors
                return chi
        return _filled(g, colors)

    # -- basic queries ------------------------------------------------

    @property
    def uncolored(self) -> list[int]:
        """The uncolored edge ids, ascending.  O(m)."""
        return [e for e, c in enumerate(self.color) if c == UNCOLORED]

    @property
    def uncolored_count(self) -> int:
        return self.color.count(UNCOLORED)

    def is_missing(self, vertex: int, color: int) -> bool:
        """True when no edge at ``vertex`` carries ``color``."""
        return color not in self.occupied[vertex]

    def missing_colors(self, vertex: int) -> list[int]:
        """All missing colors at a vertex, ascending.  O(k); for tests."""
        occ = self.occupied[vertex]
        return [c for c in range(1, self.k + 1) if c not in occ]

    # -- structure maintenance, O(1) amortized --------------------------

    def _release(self, vertex: int, color: int) -> None:
        occ = self.occupied[vertex]
        del occ[color]
        d1 = self.g.degree[vertex] + 1
        if color <= d1:
            free = self._free[vertex]
            free.insert(len(free) - 1, color)
            if len(free) > 2 * d1:
                free[:] = [c for c in (*range(2, d1 + 1), 1) if c not in occ]

    # -- mutations ------------------------------------------------------

    def assign(self, edge: int, color: int) -> None:
        """Color an uncolored edge; the color must be missing at both ends."""
        if self.color[edge] != UNCOLORED:
            raise AlreadyColoredError(edge, self.color[edge])
        if not (1 <= color <= self.k):
            raise ColoringError(f"color {color} outside palette 1..{self.k}")
        u, v = self.g.endpoints[edge]
        clash = self.occupied[u].get(color)
        if clash is not None:
            raise ColorConflictError(edge, color, u, clash)
        clash = self.occupied[v].get(color)
        if clash is not None:
            raise ColorConflictError(edge, color, v, clash)
        self.color[edge] = color
        self.occupied[u][color] = edge
        self.occupied[v][color] = edge

    def unassign(self, edge: int) -> None:
        """Remove the color of a colored edge."""
        c = self.color[edge]
        if c == UNCOLORED:
            raise AlreadyUncoloredError(edge)
        u, v = self.g.endpoints[edge]
        # Release before clearing the color: an unbuilt index is built
        # from the color array on its first read.
        self._release(u, c)
        self._release(v, c)
        self.color[edge] = UNCOLORED

    def swap_colors_along_path(
        self, vertices: Sequence[int], edge_ids: Sequence[int], c0: int, c1: int
    ) -> None:
        """Exchange colors ``c0`` and ``c1`` along an alternating path.

        The edges must form a maximal alternating path on exactly these
        two colors.  ``fanpath.extend_coloring`` passes one walked by
        ``maximal_alternating_path`` and checks only that it is maximal at
        both ends; this method only performs the O(length) bookkeeping.
        Interior vertices keep both colors occupied (their two path edges
        trade colors), so only the two path endpoints release a color.
        """
        if not edge_ids:
            return
        color = self.color
        first_v, last_v = vertices[0], vertices[-1]
        first_e, last_e = edge_ids[0], edge_ids[-1]
        self._release(first_v, color[first_e])
        self._release(last_v, color[last_e])
        occ = self.occupied
        for i in range(1, len(vertices) - 1):
            o = occ[vertices[i]]
            o[c0], o[c1] = o[c1], o[c0]
        for e in edge_ids:
            color[e] = c0 if color[e] == c1 else c1
        occ[first_v][color[first_e]] = first_e
        occ[last_v][color[last_e]] = last_e

    # -- deterministic and random choices --------------------------------

    def some_missing_color(self, vertex: int) -> int:
        """A deterministic missing color: the top of the free stack.

        Stale entries are popped first.  A release goes just under the top,
        so the top stays the pick while it is free, and once it is occupied
        the latest release comes next.
        """
        free = self._free[vertex]
        occ = self.occupied[vertex]
        while free[-1] in occ:
            free.pop()
        return free[-1]

    def random_missing_color(self, vertex: int, rng: Random) -> int:
        """Uniformly random color among those missing at ``vertex``.

        When the vertex degree exceeds half the palette the missing set
        is materialized (O(k) but then at most ~2x the degree); otherwise
        rejection sampling succeeds with probability >= 1/2 per draw.
        A capped number of rejections falls back to the explicit scan,
        which keeps the distribution uniform unconditionally.
        """
        k = self.k
        occ = self.occupied[vertex]
        if 2 * self.g.degree[vertex] <= k:
            for _ in range(_REJECTION_CAP):
                c = randbelow(rng, k) + 1
                if c not in occ:
                    return c
        pool = [c for c in range(1, k + 1) if c not in occ]
        return pool[randbelow(rng, len(pool))]

    # -- copying ----------------------------------------------------------

    def copy(self) -> PartialColoring:
        new = object.__new__(PartialColoring)
        new.g = self.g
        new.k = self.k
        new.color = self.color[:]
        new.occupied = [d.copy() for d in self.occupied]
        new._free = [f[:] for f in self._free]
        return new


_INDEX = frozenset(("occupied", "_free"))


def _filled(g: Graph, colors: list[int]) -> PartialColoring:
    """An empty coloring of ``g`` filled by checked assignment in edge-id order."""
    chi = PartialColoring(g)
    for e, c in enumerate(colors):
        if c != UNCOLORED:
            chi.assign(e, c)
    return chi


class _Unindexed(PartialColoring):
    """A total coloring from :meth:`PartialColoring.from_colors`, index unbuilt.

    Reading an unset index slot lands in ``__getattr__``, which builds the
    index by checked assignment in edge-id order and turns the instance
    into a plain :class:`PartialColoring`, so later reads never come back
    here.  The hook lives on this subclass alone: on ``PartialColoring``
    itself it would turn off CPython's attribute specialization for every
    coloring (see ``tests/test_coloring.py``).
    """

    __slots__ = ()
    # Total by construction; this shadows the O(m) property, so a merged
    # node that prunes nothing never scans its colors to find that out.
    uncolored = ()

    def __getattr__(self, name: str):
        if name not in _INDEX:
            raise AttributeError(name)
        built = _filled(self.g, self.color)
        self.occupied = built.occupied
        self._free = built._free
        self.__class__ = PartialColoring
        return getattr(self, name)


# -- verification -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "duplicate-color" or "color-out-of-range"
    vertex: int | None
    color: int
    edges: tuple[int, ...]


@dataclass(frozen=True)
class ColoringReport:
    proper: bool
    colors_used: int
    max_color: int
    uncolored: int
    violations: tuple[Violation, ...]


def verify_colors(g: Graph, colors: Sequence[int], palette: int) -> ColoringReport:
    """Check properness of a raw color array by a full independent scan."""
    violations: list[Violation] = []
    used: set[int] = set()
    uncolored = 0
    for e in range(g.m):
        c = colors[e]
        if c == UNCOLORED:
            uncolored += 1
            continue
        used.add(c)
        if c < 0 or c > palette:
            violations.append(Violation("color-out-of-range", None, c, (e,)))
    for v in range(g.n):
        seen: dict[int, int] = {}
        for eid in g.adjacency[v]:
            c = colors[eid]
            if c == UNCOLORED:
                continue
            if c in seen:
                violations.append(Violation("duplicate-color", v, c, (seen[c], eid)))
            else:
                seen[c] = eid
    return ColoringReport(
        proper=not violations,
        colors_used=len(used),
        max_color=max(used, default=0),
        uncolored=uncolored,
        violations=tuple(violations),
    )


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
        u, v = g.endpoints[e]
        for x in (u, v):
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


# -- dump format --------------------------------------------------------------


def format_coloring(chi: PartialColoring) -> str:
    """Serialize as one ``edge-id color`` line per edge; 0 means uncolored."""
    m = chi.g.m
    pairs = tuple(chain.from_iterable(zip(range(m), chi.color)))
    return ("%d %d\n" * m) % pairs


def parse_coloring(source: str | TextIO, m: int) -> list[int]:
    """Parse the dump format back into a color array of length ``m``.

    ``source`` is an open text file or a string.  Unlisted edges stay
    uncolored; duplicate or out-of-range edge ids and negative colors are
    parse errors naming their line.
    """
    colors = [UNCOLORED] * m
    listed = bytearray(m)
    pairs = IntPairs(source)
    for e, c in pairs:
        if not (0 <= e < m):
            raise ParseError(pairs.line_no, f"edge id {e} outside 0..{m - 1}")
        if listed[e]:
            raise ParseError(pairs.line_no, f"edge id {e} listed twice")
        if c < 0:
            raise ParseError(pairs.line_no, f"negative color {c}")
        listed[e] = 1
        colors[e] = c
    return colors
