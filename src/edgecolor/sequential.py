"""Sequential edge coloring: color one random uncolored edge at a time.

:func:`color_edges` colors the uncolored edges in a uniformly random
order: it keeps them in a swap-removal list and each step draws one
uniformly from what is left.  A step grows a primed fan around the
edge's lower-degree endpoint and extends the coloring.  Only when the
fan's primed color is present at that endpoint does the step sample a
random missing color there and walk the corresponding maximal
alternating path; otherwise it just shifts the fan.  Centering the fan
on the lower-degree endpoint bounds the fan by the edge's weight, which
is what makes the total expected work scale with the graph weight rather
than with n * max_degree.

The deterministic variants make every choice by a fixed rule (lower
endpoint id, top of the free stack) and serve as the classical baseline:
same fan/path machinery, no randomness.
"""

from __future__ import annotations

from random import Random

from .coloring import PartialColoring, UNCOLORED
from .fanpath import extend_coloring, make_primed_fan, maximal_alternating_path
from .graph import Graph, randbelow


def _pipeline(
    g: Graph, chi: PartialColoring, edge: int, center: int, rng: Random | None
) -> tuple[int, int]:
    """Fan / path / extend for one edge; returns (fan size, path length).

    The path color c0 is chosen, and the path walked, only when the fan's
    primed color is present at the center: a random missing color drawn
    from ``rng``, or the top of the center's free stack when ``rng`` is
    None (the top stays while it is free; then the latest release).
    """
    fan = make_primed_fan(g, chi, edge, center)
    if fan.primed_index is None:
        extend_coloring(g, chi, fan, None)
        return fan.size, 0
    c0 = chi.some_missing_color(center) if rng is None else chi.random_missing_color(center, rng)
    path = maximal_alternating_path(g, chi, center, c0, fan.primed_color)
    extend_coloring(g, chi, fan, path)
    return fan.size, path.length


def color_one_edge(g: Graph, chi: PartialColoring, edge: int, rng: Random) -> tuple[int, int]:
    """Color an uncolored edge with random choices; returns (fan size, path length).

    Raises :class:`~edgecolor.fanpath.InvalidFanError` for a colored edge.
    """
    a, b = g.endpoints[edge]
    deg = g.degree
    # Center on the lower-degree endpoint, ties to the lower id, so the
    # fan size is bounded by the edge weight.
    center = a if (deg[a], a) <= (deg[b], b) else b
    return _pipeline(g, chi, edge, center, rng)


def color_edges(g: Graph, chi: PartialColoring, rng: Random) -> tuple[int, int, int]:
    """Color all uncolored edges by repeated random single-edge steps.

    Each step colors exactly its own edge, so the list of uncolored edges
    taken at the start stays exact when the step's edge is swap-removed
    from it.  Returns (steps, total fan size, total path length).
    """
    steps = fans = paths = 0
    unc = chi.uncolored
    while unc:
        i = randbelow(rng, len(unc))
        edge = unc[i]
        unc[i] = unc[-1]
        unc.pop()
        fan_size, path_length = color_one_edge(g, chi, edge, rng)
        steps += 1
        fans += fan_size
        paths += path_length
    return steps, fans, paths


def color_one_edge_deterministic(g: Graph, chi: PartialColoring, edge: int) -> tuple[int, int]:
    """Color a specific uncolored edge with deterministic choices.

    The center is the lower endpoint id and the path color is the top
    of the center's free stack.  Returns (fan size, path length).  Raises
    :class:`~edgecolor.fanpath.InvalidFanError` for a colored edge.
    """
    a, b = g.endpoints[edge]
    center = a if a < b else b
    return _pipeline(g, chi, edge, center, None)


def color_edges_deterministic(g: Graph, chi: PartialColoring) -> tuple[int, int, int]:
    """Deterministic full pass: edges in id order, fixed choices throughout.

    Returns (steps, total fan size, total path length).
    """
    steps = fans = paths = 0
    for edge in range(g.m):
        if chi.color[edge] == UNCOLORED:
            fan_size, path_length = color_one_edge_deterministic(g, chi, edge)
            steps += 1
            fans += fan_size
            paths += path_length
    return steps, fans, paths
