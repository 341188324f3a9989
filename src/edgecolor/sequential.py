"""Sequential edge coloring: color one random uncolored edge at a time.

Each step picks a uniformly random uncolored edge, grows a primed fan
around its lower-degree endpoint, samples a random missing color at that
endpoint, walks the corresponding maximal alternating path, and extends
the coloring.  Centering the fan on the lower-degree endpoint bounds the
fan by the edge's weight, which is what makes the total expected work
scale with the graph weight rather than with n * max_degree.

The deterministic variants make every choice by a fixed rule (lower
endpoint id, head of the free list) and serve as the classical baseline:
same fan/path machinery, no randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .coloring import AlreadyColoredError, PartialColoring, UNCOLORED
from .fanpath import extend_coloring, make_primed_fan, maximal_alternating_path
from .graph import Graph


@dataclass(frozen=True)
class StepTrace:
    """Record of one single-edge coloring step."""

    edge: int
    center: int
    fan_size: int
    path_length: int
    missing_color: int
    elapsed_us: int


def _pipeline(
    g: Graph, chi: PartialColoring, edge: int, center: int, c0: int
) -> tuple[int, int]:
    """Fan / path / extend for one edge; returns (fan size, path length)."""
    fan = make_primed_fan(g, chi, edge, center)
    c1 = fan.primed_color
    # c0 == c1 can only happen when c1 is missing at the center, where
    # the maximal path is empty and extend_coloring does not use it.
    path = maximal_alternating_path(g, chi, center, c0, c1) if c0 != c1 else None
    extend_coloring(g, chi, fan, path)
    return fan.size, 0 if path is None else path.length


def color_one_edge(
    g: Graph, chi: PartialColoring, rng: Random, trace: bool = False
) -> StepTrace | None:
    """Color one uniformly random uncolored edge.

    Raises ``NoUncoloredEdgesError`` when the coloring is already total.
    Returns a :class:`StepTrace` when ``trace`` is set, else None (the
    untraced path takes no timestamps and allocates nothing extra).
    """
    t0 = time.perf_counter_ns() if trace else 0
    edge = chi.random_uncolored_edge(rng)
    a, b = g.endpoints[edge]
    deg = g.degree
    # Center on the lower-degree endpoint, ties to the lower id, so the
    # fan size is bounded by the edge weight.
    center = a if (deg[a], a) <= (deg[b], b) else b
    c0 = chi.random_missing_color(center, rng)
    fan_size, path_length = _pipeline(g, chi, edge, center, c0)
    if not trace:
        return None
    elapsed_us = (time.perf_counter_ns() - t0) // 1000
    return StepTrace(edge, center, fan_size, path_length, c0, elapsed_us)


def color_edges(
    g: Graph, chi: PartialColoring, rng: Random, trace: bool = False
) -> list[StepTrace] | None:
    """Color all uncolored edges by repeated random single-edge steps.

    Returns one :class:`StepTrace` per step when ``trace`` is set, else None.
    """
    steps: list[StepTrace] | None = [] if trace else None
    while chi.uncolored:
        step = color_one_edge(g, chi, rng, trace)
        if steps is not None:
            steps.append(step)
    return steps


def color_one_edge_deterministic(g: Graph, chi: PartialColoring, edge: int) -> None:
    """Color a specific uncolored edge with deterministic choices.

    The center is the lower endpoint id and the path color is the head
    of the center's free list.  Raises :class:`AlreadyColoredError` for a
    colored edge.
    """
    if chi.color[edge] != UNCOLORED:
        raise AlreadyColoredError(edge, chi.color[edge])
    a, b = g.endpoints[edge]
    center = a if a < b else b
    c0 = chi.some_missing_color(center)
    _pipeline(g, chi, edge, center, c0)


def color_edges_deterministic(g: Graph, chi: PartialColoring) -> None:
    """Deterministic full pass: edges in id order, fixed choices throughout."""
    for edge in range(g.m):
        if chi.color[edge] == UNCOLORED:
            color_one_edge_deterministic(g, chi, edge)
