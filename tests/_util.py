"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

from random import Random

from hypothesis import strategies as st

from edgecolor.coloring import PartialColoring
from edgecolor.graph import Graph, build_graph
from edgecolor.oracles import sample_partial_coloring


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Arbitrary simple graph on at most ``max_n`` vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph([p for p, k in zip(pairs, keep) if k], n)


@st.composite
def colored_graphs(draw, min_n: int = 1, max_n: int = 8) -> tuple[Graph, PartialColoring]:
    """A graph plus a random proper partial coloring on max_degree + 1 colors."""
    g = draw(graphs(min_n=min_n, max_n=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    chi = sample_partial_coloring(g, Random(seed))
    return g, chi


def random_graph(n: int, m: int, rng: Random) -> Graph:
    """Seeded uniform graph with exactly ``m`` of the possible edges."""
    pairs = all_pairs(n)
    if m > len(pairs):
        raise ValueError(f"m={m} exceeds {len(pairs)} possible edges")
    rng.shuffle(pairs)
    return build_graph(pairs[:m], n)


def random_partial(g: Graph, rng: Random) -> PartialColoring:
    return sample_partial_coloring(g, rng)
