"""Randomized and deterministic full colorings, step traces."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import graphs, random_graph, random_partial
from edgecolor.bench import run_coloring
from edgecolor.coloring import (
    AlreadyColoredError,
    NoUncoloredEdgesError,
    PartialColoring,
    UNCOLORED,
    format_coloring,
    validate_structures,
    verify_proper,
)
from edgecolor.generators import (
    gen_erdos_renyi,
    gen_preferential_attachment,
    gen_star,
    gen_star_plus_forests,
)
from edgecolor.graph import build_graph, edge_weight, graph_weight
from edgecolor.sequential import (
    color_edges,
    color_edges_deterministic,
    color_one_edge,
    color_one_edge_deterministic,
)


def test_color_one_edge_single_edge_graph():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g, 2)
    step = color_one_edge(g, chi, Random(0), trace=True)
    assert (step.fan_size, step.path_length) == (1, 0)
    assert step.edge == 0 and step.center in (0, 1)
    assert chi.uncolored_count == 0
    assert verify_proper(g, chi).proper


def test_color_one_edge_requires_uncolored():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g, 2)
    chi.assign(0, 1)
    with pytest.raises(NoUncoloredEdgesError):
        color_one_edge(g, chi, Random(0))


def test_color_one_edge_decrements_and_traces_center_degree():
    rng = Random(5)
    g = random_graph(12, 25, rng)
    chi = PartialColoring(g, g.max_degree + 1)
    seen = chi.uncolored_count
    while chi.uncolored:
        step = color_one_edge(g, chi, rng, trace=True)
        seen -= 1
        assert chi.uncolored_count == seen
        # the chosen center realizes the edge weight (min endpoint degree)
        assert g.degree[step.center] == edge_weight(g, step.edge)
        assert step.fan_size <= g.degree[step.center] + 1
        assert step.path_length <= g.n - 1
        assert step.missing_color >= 1
    assert verify_proper(g, chi).proper


def test_center_tie_breaks_to_lower_id():
    g = build_graph([(1, 0)], 2)  # equal degrees
    chi = PartialColoring(g, 2)
    step = color_one_edge(g, chi, Random(9), trace=True)
    assert step.center == 0


def test_color_edges_empty_graph():
    g = build_graph([], 4)
    chi = PartialColoring(g, 1)
    assert color_edges(g, chi, Random(0)) is None
    assert chi.uncolored_count == 0


def test_color_edges_star():
    g = gen_star(101)
    chi = PartialColoring(g, 101)
    color_edges(g, chi, Random(1))
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.colors_used == 100  # a star needs exactly max_degree colors


def test_color_edges_er_fixture():
    g = gen_erdos_renyi(200, 1000, seed=4)
    chi = PartialColoring(g, g.max_degree + 1)
    steps = color_edges(g, chi, Random(7), trace=True)
    assert len(steps) == g.m
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1
    assert validate_structures(chi) == []


def test_color_edges_trace_toggle():
    g = gen_star(10)
    chi = PartialColoring(g, 10)
    assert color_edges(g, chi, Random(2)) is None


def test_color_edges_determinism():
    g = gen_erdos_renyi(60, 150, seed=8)
    runs = []
    for _ in range(2):
        chi = PartialColoring(g, g.max_degree + 1)
        steps = color_edges(g, chi, Random(33), trace=True)
        runs.append((chi.color[:], [(s.edge, s.center, s.missing_color) for s in steps]))
    assert runs[0] == runs[1]


def test_color_edges_from_partial_state():
    # repair-style use: start from a partial coloring, finish it
    rng = Random(13)
    g = random_graph(15, 40, rng)
    chi = random_partial(g, g.max_degree + 1, rng)
    color_edges(g, chi, rng)
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0


def test_deterministic_single_edge():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g, 2)
    color_one_edge_deterministic(g, chi, 0)
    assert chi.color[0] == 1  # head of the free list
    with pytest.raises(AlreadyColoredError):
        color_one_edge_deterministic(g, chi, 0)


@given(graphs(min_n=1, max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_deterministic_step_on_sampled_colorings(g, seed):
    chi = random_partial(g, g.max_degree + 1, Random(seed))
    if not chi.uncolored:
        return
    e = chi.uncolored[0]
    before = chi.uncolored_count
    color_one_edge_deterministic(g, chi, e)
    assert chi.uncolored_count == before - 1
    assert chi.color[e] != UNCOLORED
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


def test_deterministic_full_pass():
    g = gen_erdos_renyi(120, 500, seed=10)
    chi = PartialColoring(g, g.max_degree + 1)
    color_edges_deterministic(g, chi)
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1
    # rerun is identical: no randomness anywhere
    chi2 = PartialColoring(g, g.max_degree + 1)
    color_edges_deterministic(g, chi2)
    assert chi2.color == chi.color


def test_mean_step_work_tracks_weight_over_first_half():
    # while at least half the edges are uncolored, expected fan + path
    # work per step is O(1 + weight / uncolored); check the empirical
    # mean with slack 10 against the l >= m/2 bound
    g = gen_star_plus_forests(512, 2, seed=21)
    w = graph_weight(g)
    chi = PartialColoring(g, g.max_degree + 1)
    rng = Random(3)
    sizes = []
    while chi.uncolored_count > g.m // 2:
        step = color_one_edge(g, chi, rng, trace=True)
        sizes.append(step.fan_size + step.path_length)
    mean = sum(sizes) / len(sizes)
    assert mean <= 10 * (1 + 2 * w / g.m)


# sha256 of the coloring dump per sequential colorer, on the benchmark's
# hub graph and on a preferential-attachment graph.  Any change to the
# fan, the path walk, the extension or the free-list order that alters
# the output for a seed shows here.
GOLDEN_SEQUENTIAL = {
    "naive": (
        "0ed0c3571bfcc85f2ca9024c69822e6351e5154e410a1ab20f63ab525d519b44",
        "722763137ceccaebf338dbfe3553217fc7b306090cf13d60977c55f91e40409c",
    ),
    "color-edges": (
        "e66a7eab760331ae8aca5d80c78c4a23290a2c09a3ce6815fec77d473242f57c",
        "d032dbfd078410133668356ebd1a5a0e3d3a6a4a163ea545de71d8e6d169f465",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_SEQUENTIAL))
def test_sequential_golden_dump(algorithm):
    graphs = (gen_star_plus_forests(2**11, 2, seed=1), gen_preferential_attachment(1000, 10, seed=4))
    digests = tuple(
        hashlib.sha256(format_coloring(run_coloring(g, algorithm, 42).chi).encode()).hexdigest()
        for g in graphs
    )
    assert digests == GOLDEN_SEQUENTIAL[algorithm]
