"""Fans, alternating paths, and the single-edge extension step.

This module implements the local recoloring toolkit used to color one
more edge of a partially colored graph without ever exceeding a
``max_degree + 1`` palette:

* grow a *primed fan* around one endpoint of the uncolored edge;
* walk a *maximal alternating path* on two colors from that endpoint;
* *flip* the path and *shift* the fan so the primed color becomes legal
  on the last relevant fan edge.

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

    @property
    def internal_count(self) -> int:
        """Number of edges with both endpoints interior to the path."""
        return max(0, len(self.edge_ids) - 2)


def make_primed_fan(g: Graph, chi: PartialColoring, edge: int, center: int) -> Fan:
    """Grow a primed fan around ``center`` for the uncolored ``edge``.

    Follows the head of each leaf's free-color list, so the result is
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


def shift_fan(chi: PartialColoring, fan: Fan, upto: int) -> None:
    """Rotate fan-edge colors so ``(center, leaves[upto])`` becomes uncolored.

    Each fan edge up to index ``upto`` passes its color to the previous
    one.  The prefix of the fan must satisfy the fan invariants in the
    *current* coloring (a flip elsewhere may have invalidated the
    suffix, which is fine: only the prefix is touched).  ``upto == 0``
    is a no-op.  Properness is preserved at every intermediate step and
    the set of colors present at the center does not change.
    """
    if not (0 <= upto < len(fan.leaves)):
        raise InvalidFanError(f"shift index {upto} outside fan of size {len(fan.leaves)}")
    color = chi.color
    if color[fan.edge_ids[0]] != UNCOLORED:
        raise InvalidFanError("first fan edge is no longer uncolored")
    if len(set(fan.leaves[: upto + 1])) != upto + 1:
        raise InvalidFanError("fan leaves are not distinct")
    for i in range(1, upto + 1):
        c = color[fan.edge_ids[i]]
        if c == UNCOLORED:
            raise InvalidFanError(f"fan edge {i} is uncolored")
        if not chi.is_missing(fan.leaves[i - 1], c):
            raise InvalidFanError(
                f"color {c} of fan edge {i} is not missing at leaf {fan.leaves[i - 1]}"
            )
    for i in range(1, upto + 1):
        eid = fan.edge_ids[i]
        c = color[eid]
        chi.unassign(eid)
        chi.assign(fan.edge_ids[i - 1], c)


def maximal_alternating_path(
    g: Graph, chi: PartialColoring, start: int, c0: int, c1: int
) -> AlternatingPath:
    """Walk the maximal (c0, c1)-alternating path from ``start``.

    ``c0`` must be missing at ``start``, so the walk leaves along a
    ``c1`` edge if one exists (otherwise the path is empty) and then
    alternates.  The walk cannot revisit a vertex - interior vertices are
    entered on one of the two colors and left on the other, and the start
    vertex has no ``c0`` edge to re-enter on - but this is asserted
    rather than assumed, since it is exactly the property that makes the
    flip safe.  Runs in O(length).
    """
    if c0 == c1:
        raise ValueError("alternating path needs two distinct colors")
    if not chi.is_missing(start, c0):
        raise ValueError(f"color {c0} must be missing at start vertex {start}")
    occupied = chi.occupied
    vertices = [start]
    edge_ids: list[int] = []
    seen = {start}
    cur = start
    want = c1
    while True:
        e = occupied[cur].get(want)
        if e is None:
            return AlternatingPath(vertices, edge_ids, c0, c1)
        nxt = g.other_endpoint(e, cur)
        if nxt in seen:
            raise RuntimeError(
                f"alternating walk revisited vertex {nxt}; coloring state is corrupt"
            )
        vertices.append(nxt)
        edge_ids.append(e)
        seen.add(nxt)
        cur = nxt
        want = c0 if want == c1 else c1


def flip_path(chi: PartialColoring, path: AlternatingPath) -> None:
    """Exchange the two colors along a maximal alternating path.

    Verifies maximality on entry (:class:`NotMaximalError` otherwise):
    the edge colors must alternate between the path's two colors and
    each endpoint must carry exactly one of them.  Flipping twice
    restores the original coloring.  An empty path is a no-op provided
    both colors are missing at its single vertex.
    """
    c0, c1 = path.c0, path.c1
    verts = path.vertices
    eids = path.edge_ids
    if not eids:
        u = verts[0]
        if not (chi.is_missing(u, c0) and chi.is_missing(u, c1)):
            raise NotMaximalError(f"empty path at {u} but a path color is present there")
        return
    color = chi.color
    first = color[eids[0]]
    if first not in (c0, c1):
        raise NotMaximalError(f"first path edge has color {first}, not {c0} or {c1}")
    other = c1 if first == c0 else c0
    expected = first
    for i, e in enumerate(eids):
        if color[e] != expected:
            raise NotMaximalError(f"path edge {i} has color {color[e]}, expected {expected}")
        expected = other if expected == first else first
    last = color[eids[-1]]
    if chi.occupied[verts[0]].get(first) != eids[0] or not chi.is_missing(verts[0], other):
        raise NotMaximalError(f"path is not maximal at start vertex {verts[0]}")
    last_other = c1 if last == c0 else c0
    if chi.occupied[verts[-1]].get(last) != eids[-1] or not chi.is_missing(verts[-1], last_other):
        raise NotMaximalError(f"path is not maximal at end vertex {verts[-1]}")
    chi.swap_colors_along_path(verts, eids, c0, c1)


def extend_coloring(
    g: Graph, chi: PartialColoring, fan: Fan, path: AlternatingPath | None
) -> None:
    """Color the fan's uncolored edge, recoloring along fan and path.

    Two cases, checked against the live coloring state:

    * the primed color is missing at the center: shift the whole fan and
      put the primed color on its last edge;
    * otherwise the primed color sits on fan edge ``j + 1``, where ``j``
      is the fan's ``primed_index``; flip the path (which starts at the
      center on that very edge) and then, unless the path ended at leaf
      ``j``, shift only up to ``j`` before placing the primed color.

    The fan must come from :func:`make_primed_fan` and the path from
    :func:`maximal_alternating_path` on the same state, with the path's
    ``c1`` equal to the fan's primed color; the path is unused, and may
    be None, in the first case.  Exactly one more edge is colored
    afterwards.  Runs in O(fan size + path length).
    """
    v = fan.center
    c1 = fan.primed_color
    upto = len(fan.leaves) - 1
    if not chi.is_missing(v, c1):
        if path is None or path.c1 != c1 or path.start != v:
            raise NotMaximalError("primed color present at center but no matching path")
        j = fan.primed_index
        if j is None or not 0 <= j < upto or chi.color[fan.edge_ids[j + 1]] != c1:
            raise InvalidFanError(
                f"primed color {c1} is neither missing at center {v} nor on a fan edge"
            )
        flip_path(chi, path)
        if path.end != fan.leaves[j]:
            upto = j
    shift_fan(chi, fan, upto)
    chi.assign(fan.edge_ids[upto], c1)
