"""Fans, alternating paths, and the single-edge extension step.

This module implements the local recoloring toolkit used to color one
more edge of a partially colored graph without ever exceeding a
``max_degree + 1`` palette:

* grow a *primed fan* around one endpoint of the uncolored edge;
* walk a *maximal alternating path* on two colors from that endpoint;
* *flip* the path and *shift* the fan so the primed color becomes legal
  on the last relevant fan edge, both in :func:`extend_coloring`.

A fan around center ``v`` is a sequence of distinct neighbors
``x_0, .., x_t`` where ``(v, x_0)`` is uncolored and the color of each
later fan edge ``(v, x_i)`` is missing at the previous leaf ``x_{i-1}``.
Rotating colors one step down the fan ("shifting") therefore keeps the
coloring proper and leaves the set of colors present at ``v`` unchanged.
A fan is *primed* by color ``c1`` when ``c1`` is missing at the last
leaf and either missing at the center too, or equal to the color of an
earlier fan edge (equivalently missing at the leaf before that edge).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import UNCOLORED, PartialColoring
from .graph import Graph


class InvalidFanError(ValueError):
    """Fan invariants do not hold in the current coloring."""


class NotMaximalError(ValueError):
    """Path is not a maximal alternating path in the current coloring."""


@dataclass
class Fan:
    """A primed fan.

    ``leaves[0]`` is the endpoint of the uncolored edge ``edge_ids[0]``,
    and ``edge_ids[i]`` joins the center to ``leaves[i]``; the colors of
    the fan edges are read from the coloring.  ``primed_color`` is
    missing at the last leaf.  ``primed_index`` is None when it is also
    missing at the center; otherwise it names the earlier leaf at which
    it is missing, and it colors the fan edge ``primed_index + 1``.
    """

    center: int
    leaves: list[int]
    edge_ids: list[int]
    primed_color: int
    primed_index: int | None

    @property
    def size(self) -> int:
        return len(self.leaves)


@dataclass
class AlternatingPath:
    """A simple path whose edges alternate between two colors.

    ``vertices`` has one more entry than ``edge_ids``.  As produced by
    :func:`maximal_alternating_path`, the first edge carries ``c1`` (the
    walk starts at a vertex missing ``c0``); after a flip the roles are
    exchanged.  A zero-length path is a single vertex and no edges.
    """

    vertices: list[int]
    edge_ids: list[int]
    c0: int
    c1: int

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]


def make_primed_fan(g: Graph, chi: PartialColoring, edge: int, center: int) -> Fan:
    """Grow a primed fan around ``center`` for the uncolored ``edge``.

    Follows the top of each leaf's free-color stack (which stays while it
    is free, then gives the latest release), so the result is
    deterministic given the coloring state.  Every iteration either
    returns or appends a previously unseen neighbor, so the loop runs at
    most ``d(center)`` times and the whole call is O(d(center)).
    """
    if chi.color[edge] != UNCOLORED:
        raise InvalidFanError(f"edge {edge} is colored; a fan starts at an uncolored edge")
    x0 = g.other_endpoint(edge, center)
    occ_center = chi.occupied[center]
    leaves = [x0]
    edge_ids = [edge]
    leaf_set = {x0}
    tip = x0
    while True:
        c1 = chi.some_missing_color(tip)
        next_edge = occ_center.get(c1)
        if next_edge is None:
            return Fan(center, leaves, edge_ids, c1, None)
        nxt = g.other_endpoint(next_edge, center)
        if nxt in leaf_set:
            # The edge colored c1 leads back into the fan, so c1 equals
            # the color of some fan edge (v, x_j); by the fan property it
            # is missing at the leaf before x_j.
            return Fan(center, leaves, edge_ids, c1, leaves.index(nxt) - 1)
        leaves.append(nxt)
        edge_ids.append(next_edge)
        leaf_set.add(nxt)
        tip = nxt


def maximal_alternating_path(
    g: Graph, chi: PartialColoring, start: int, c0: int, c1: int
) -> AlternatingPath:
    """Walk the maximal (c0, c1)-alternating path from ``start``.

    ``c0`` must be missing at ``start``, so the walk leaves along a
    ``c1`` edge if one exists (otherwise the path is empty) and then
    alternates.  On a proper coloring the walk cannot revisit a vertex -
    interior vertices are entered on one of the two colors and left on
    the other, and the start vertex has no ``c0`` edge to re-enter on.
    A corrupt index could still make it cycle, so a walk longer than the
    vertex count raises instead of hanging.  Runs in O(length).
    """
    if c0 == c1:
        raise ValueError("alternating path needs two distinct colors")
    if not chi.is_missing(start, c0):
        raise ValueError(f"color {c0} must be missing at start vertex {start}")
    occupied = chi.occupied
    n = g.n
    vertices = [start]
    edge_ids: list[int] = []
    cur = start
    want = c1
    while True:
        e = occupied[cur].get(want)
        if e is None:
            return AlternatingPath(vertices, edge_ids, c0, c1)
        nxt = g.other_endpoint(e, cur)
        vertices.append(nxt)
        if len(vertices) > n:
            raise RuntimeError(f"alternating walk from {start} revisits a vertex: "
                               "coloring is corrupt")
        edge_ids.append(e)
        cur = nxt
        want = c0 if want == c1 else c1


def _ends_path(chi: PartialColoring, vertex: int, edge: int, c0: int, c1: int) -> bool:
    """True when ``edge`` is the only edge at ``vertex`` colored ``c0`` or ``c1``."""
    c = chi.color[edge]
    occ = chi.occupied[vertex]
    return c in (c0, c1) and occ.get(c) == edge and (c1 if c == c0 else c0) not in occ


def extend_coloring(
    g: Graph, chi: PartialColoring, fan: Fan, path: AlternatingPath | None
) -> None:
    """Color the fan's uncolored edge, recoloring along fan and path.

    If the primed color is missing at the center, shift the whole fan
    and put the primed color on its last edge.  Otherwise it sits on fan
    edge ``j + 1``, where ``j`` is the fan's ``primed_index``: flip the
    path (which starts at the center on that very edge) and then, unless
    the path ended at leaf ``j``, shift only up to ``j`` before placing
    the primed color.

    The fan must come from :func:`make_primed_fan` and the path from
    :func:`maximal_alternating_path` on the same state, with the path's
    ``c1`` equal to the fan's primed color; the path is unused, and may
    be None, in the first case.  Exactly one more edge is colored
    afterwards.  Runs in O(fan size + path length).

    Before the first change it runs only O(1) checks: the first fan edge
    is uncolored and ``primed_index`` names a fan edge carrying the
    primed color (else :class:`InvalidFanError`), and the path starts at
    the center on that color and is maximal at both ends (else
    :class:`NotMaximalError`).  The shift moves each color through the
    conflict-checked ``unassign``/``assign``; the full O(length) checks
    of the path and the fan live in the test suite.
    """
    v = fan.center
    c1 = fan.primed_color
    color = chi.color
    eids = fan.edge_ids
    upto = len(eids) - 1
    if color[eids[0]] != UNCOLORED:
        raise InvalidFanError("first fan edge is no longer uncolored")
    if not chi.is_missing(v, c1):
        if path is None or path.c1 != c1 or path.start != v:
            raise NotMaximalError("primed color present at center but no matching path")
        j = fan.primed_index
        if j is None or not 0 <= j < upto or color[eids[j + 1]] != c1:
            raise InvalidFanError(f"primed color {c1} is neither missing at center {v} "
                                  "nor on a fan edge")
        # An empty path is maximal only where both colors are missing,
        # and c1 is present at the center.
        c0, peids = path.c0, path.edge_ids
        if not (peids and _ends_path(chi, v, peids[0], c0, c1)
                and _ends_path(chi, path.end, peids[-1], c0, c1)):
            raise NotMaximalError(f"({c0},{c1})-path from center {v} is not maximal")
        chi.swap_colors_along_path(path.vertices, peids, c0, c1)
        if path.end != fan.leaves[j]:
            upto = j
    for i in range(1, upto + 1):
        c = color[eids[i]]
        chi.unassign(eids[i])
        chi.assign(eids[i - 1], c)
    chi.assign(eids[upto], c1)
