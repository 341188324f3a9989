"""Mutable partial edge colorings with constant-time incremental updates.

Colors are 1-based integers; 0 marks an uncolored edge.  A palette of
size ``k`` admits colors ``1..k`` and must satisfy ``k >= max_degree + 1``
so that every vertex always has a missing color.

A :class:`PartialColoring` maintains, alongside the per-edge color array:

* per vertex, a hash map from occupied color to the edge carrying it,
  so color lookups and missing-color tests are O(1);
* per vertex, the list of free colors among ``1..d(v)+1`` together with
  a position index, so a deterministic missing color is available in
  O(1) even when the palette is huge (at most ``d(v)`` of those ``d(v)+1``
  low colors can ever be occupied, so the list is never empty);
* the set of uncolored edges as a swap-removal array with an inverse
  index, so uniform sampling of an uncolored edge is O(1).

All single-edge mutations are O(1).  The structures are redundant with
the color array on purpose; :func:`validate_structures` recomputes them
from scratch and reports any drift, and :func:`verify_proper` checks
properness without consulting them at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence, TextIO

from .graph import Graph, ParseError, int_pairs

UNCOLORED = 0

# Rejection sampling of a missing color gives up after this many draws
# and falls back to materializing the missing set (still uniform).
_REJECTION_CAP = 64


class ColoringError(ValueError):
    """Invalid partial-coloring operation."""


class PaletteTooSmallError(ColoringError):
    def __init__(self, k: int, max_degree: int):
        super().__init__(f"palette of {k} colors < max degree {max_degree} + 1")
        self.k = k
        self.max_degree = max_degree


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


class NoUncoloredEdgesError(ColoringError):
    def __init__(self) -> None:
        super().__init__("coloring is total; no uncolored edge to sample")


class PartialColoring:
    """Partial proper edge coloring of a fixed graph, empty on creation."""

    __slots__ = ("g", "k", "color", "occupied", "_free", "_free_pos", "uncolored", "_ind")

    def __init__(self, g: Graph, k: int):
        if k < g.max_degree + 1:
            raise PaletteTooSmallError(k, g.max_degree)
        self.g = g
        self.k = k
        self.color: list[int] = [UNCOLORED] * g.m
        self.occupied: list[dict[int, int]] = [{} for _ in range(g.n)]
        # Free colors within 1..d(v)+1 plus the position of each such
        # color in the list (-1 when absent).  Index 0 of the position
        # array is padding so colors index it directly.
        self._free: list[list[int]] = [list(range(1, d + 2)) for d in g.degree]
        self._free_pos: list[list[int]] = [list(range(-1, d + 1)) for d in g.degree]
        self.uncolored: list[int] = list(range(g.m))
        self._ind: list[int] = list(range(g.m))

    # -- basic queries ------------------------------------------------

    @property
    def uncolored_count(self) -> int:
        return len(self.uncolored)

    def is_missing(self, vertex: int, color: int) -> bool:
        """True when no edge at ``vertex`` carries ``color``."""
        return color not in self.occupied[vertex]

    def missing_colors(self, vertex: int) -> list[int]:
        """All missing colors at a vertex, ascending.  O(k); for tests."""
        occ = self.occupied[vertex]
        return [c for c in range(1, self.k + 1) if c not in occ]

    # -- O(1) structure maintenance ------------------------------------

    def _occupy(self, vertex: int, color: int, edge: int) -> None:
        self.occupied[vertex][color] = edge
        if color <= self.g.degree[vertex] + 1:
            free = self._free[vertex]
            pos = self._free_pos[vertex]
            i = pos[color]
            last = free[-1]
            free[i] = last
            pos[last] = i
            free.pop()
            pos[color] = -1

    def _release(self, vertex: int, color: int) -> None:
        del self.occupied[vertex][color]
        if color <= self.g.degree[vertex] + 1:
            free = self._free[vertex]
            free.append(color)
            self._free_pos[vertex][color] = len(free) - 1

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
        self._occupy(u, color, edge)
        self._occupy(v, color, edge)
        unc = self.uncolored
        ind = self._ind
        i = ind[edge]
        last = unc[-1]
        unc[i] = last
        ind[last] = i
        unc.pop()

    def unassign(self, edge: int) -> None:
        """Remove the color of a colored edge."""
        c = self.color[edge]
        if c == UNCOLORED:
            raise AlreadyUncoloredError(edge)
        u, v = self.g.endpoints[edge]
        self.color[edge] = UNCOLORED
        self._release(u, c)
        self._release(v, c)
        self._ind[edge] = len(self.uncolored)
        self.uncolored.append(edge)

    def swap_colors_along_path(
        self, vertices: Sequence[int], edge_ids: Sequence[int], c0: int, c1: int
    ) -> None:
        """Exchange colors ``c0`` and ``c1`` along an alternating path.

        The caller (see ``fanpath.flip_path``) is responsible for checking
        that the edges form a maximal alternating path on exactly these
        two colors; this method only performs the O(length) bookkeeping.
        Interior vertices keep both colors occupied (their two path edges
        trade colors), so only the two path endpoints touch free lists.
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
        self._occupy(first_v, color[first_e], first_e)
        self._occupy(last_v, color[last_e], last_e)

    # -- deterministic and random choices --------------------------------

    def some_missing_color(self, vertex: int) -> int:
        """A deterministic missing color: head of the low-color free list."""
        return self._free[vertex][0]

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
                c = rng.randrange(k) + 1
                if c not in occ:
                    return c
        pool = [c for c in range(1, k + 1) if c not in occ]
        return pool[rng.randrange(len(pool))]

    def random_uncolored_edge(self, rng: Random) -> int:
        """Uniformly random uncolored edge id."""
        unc = self.uncolored
        if not unc:
            raise NoUncoloredEdgesError()
        return unc[rng.randrange(len(unc))]

    # -- copying ----------------------------------------------------------

    def copy(self) -> PartialColoring:
        new = object.__new__(PartialColoring)
        new.g = self.g
        new.k = self.k
        new.color = self.color[:]
        new.occupied = [d.copy() for d in self.occupied]
        new._free = [f[:] for f in self._free]
        new._free_pos = [p[:] for p in self._free_pos]
        new.uncolored = self.uncolored[:]
        new._ind = self._ind[:]
        return new


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
        d = g.degree[v]
        expect_free = {c for c in range(1, d + 2) if c not in expect_occ[v]}
        free = chi._free[v]
        if set(free) != expect_free or len(free) != len(expect_free):
            problems.append(f"free list wrong at vertex {v}")
        pos = chi._free_pos[v]
        for i, c in enumerate(free):
            if pos[c] != i:
                problems.append(f"free position index wrong at vertex {v} color {c}")
        for c in range(1, d + 2):
            if c not in expect_free and pos[c] != -1:
                problems.append(f"free position not cleared at vertex {v} color {c}")
    expect_unc = {e for e in range(g.m) if chi.color[e] == UNCOLORED}
    if set(chi.uncolored) != expect_unc or len(chi.uncolored) != len(expect_unc):
        problems.append("uncolored array does not match the color array")
    for i, e in enumerate(chi.uncolored):
        if chi._ind[e] != i:
            problems.append(f"uncolored inverse index wrong for edge {e}")
    return problems


# -- dump format --------------------------------------------------------------


def format_coloring(chi: PartialColoring) -> str:
    """Serialize as one ``edge-id color`` line per edge; 0 means uncolored."""
    return "".join(f"{e} {chi.color[e]}\n" for e in range(chi.g.m))


def parse_coloring(source: str | TextIO, m: int) -> list[int]:
    """Parse the dump format back into a color array of length ``m``.

    ``source`` is an open text file or a string.  Unlisted edges stay
    uncolored; duplicate or out-of-range edge ids and negative colors are
    parse errors naming their line.
    """
    colors = [UNCOLORED] * m
    listed = [False] * m
    for line_no, e, c in int_pairs(source):
        if not (0 <= e < m):
            raise ParseError(line_no, f"edge id {e} outside 0..{m - 1}")
        if listed[e]:
            raise ParseError(line_no, f"edge id {e} listed twice")
        if c < 0:
            raise ParseError(line_no, f"negative color {c}")
        listed[e] = True
        colors[e] = c
    return colors
