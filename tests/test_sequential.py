"""Randomized and deterministic full colorings and the work they return."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecolor.sequential
from _util import graphs, random_graph, random_partial
from edgecolor.bench import run_coloring
from edgecolor.coloring import UNCOLORED, PartialColoring, format_coloring
from edgecolor.fanpath import InvalidFanError, make_primed_fan
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
from oracles import missing_colors, validate_structures, verify_proper


def _record_steps(monkeypatch) -> tuple[list[tuple[int, int]], list[int]]:
    """Record (edge, center) of every step, and every c0 drawn, from now on.

    Each drawn c0 is checked as it is drawn: a real color, missing at the
    center of the step that draws it.
    """
    steps, draws = [], []
    pipeline = edgecolor.sequential._pipeline
    draw = PartialColoring.random_missing_color

    def recording(g, chi, edge, center, rng):
        steps.append((edge, center))
        return pipeline(g, chi, edge, center, rng)

    def checked_draw(chi, vertex, rng):
        c0 = draw(chi, vertex, rng)
        assert vertex == steps[-1][1]
        assert c0 >= 1 and chi.is_missing(vertex, c0)
        draws.append(c0)
        return c0

    monkeypatch.setattr(edgecolor.sequential, "_pipeline", recording)
    monkeypatch.setattr(PartialColoring, "random_missing_color", checked_draw)
    return steps, draws


def test_color_one_edge_single_edge_graph(monkeypatch):
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    steps, draws = _record_steps(monkeypatch)
    assert color_one_edge(g, chi, 0, Random(0)) == (1, 0)
    [(edge, center)] = steps
    assert edge == 0 and center in (0, 1)
    assert draws == []  # the primed color is missing at the center
    assert chi.uncolored_count == 0
    assert verify_proper(g, chi).proper


def test_color_one_edge_requires_uncolored():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    chi.assign(0, 1)
    with pytest.raises(InvalidFanError):
        color_one_edge(g, chi, 0, Random(0))


def test_color_one_edge_decrements_and_traces_center_degree(monkeypatch):
    rng = Random(5)
    g = random_graph(12, 25, rng)
    chi = PartialColoring(g)
    steps, draws = _record_steps(monkeypatch)
    left = []

    def checked(g, chi, edge, rng):
        fan_size, path_length = color_one_edge(g, chi, edge, rng)
        left.append(chi.uncolored_count)
        assert steps[-1][0] == edge
        center = steps[-1][1]
        # the chosen center realizes the edge weight (min endpoint degree)
        assert g.degree[center] == edge_weight(g, edge)
        assert fan_size <= g.degree[center] + 1
        assert path_length <= g.n - 1
        return fan_size, path_length

    monkeypatch.setattr(edgecolor.sequential, "color_one_edge", checked)
    color_edges(g, chi, rng)
    assert left == list(range(g.m - 1, -1, -1))
    assert draws  # some step needed a path, and its c0 was checked
    assert verify_proper(g, chi).proper


def test_center_tie_breaks_to_lower_id(monkeypatch):
    g = build_graph([(1, 0)], 2)  # equal degrees
    chi = PartialColoring(g)
    steps, _draws = _record_steps(monkeypatch)
    color_one_edge(g, chi, 0, Random(9))
    assert steps[0][1] == 0


# One uncolored edge, 0 = (0, 1), centered on vertex 0 by either colorer
# (lower id, no higher degree), and the colors of edges 1, 2, ...  In the
# first graph the fan (1, 2) is primed by color 2, which is missing at the
# center; in the second the fan (1, 2, 3) is primed by color 1, which sits
# on fan edge (0, 2).
SHIFT_ONLY = ([(0, 1), (0, 2), (1, 3), (1, 4)], [1, 2, 3])
NEEDS_PATH = ([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], [1, 2, 2, 3])


@pytest.mark.parametrize("draw_name", ["random_missing_color", "some_missing_color"])
@pytest.mark.parametrize("edges, colors, primed_at_center",
                         [(*SHIFT_ONLY, False), (*NEEDS_PATH, True)],
                         ids=["shift-only", "needs-path"])
def test_step_draws_c0_and_walks_the_path_only_when_primed_color_is_at_center(
    monkeypatch, draw_name, edges, colors, primed_at_center
):
    g = build_graph(edges, 6)
    chi = PartialColoring(g)
    for e, c in enumerate(colors, start=1):
        chi.assign(e, c)
    assert (make_primed_fan(g, chi, 0, 0).primed_index is not None) == primed_at_center
    missing_before = set(missing_colors(chi, 0))
    draws, walks = [], []
    draw = getattr(PartialColoring, draw_name)
    walk = edgecolor.sequential.maximal_alternating_path

    def counted_draw(chi, vertex, *rng):
        c0 = draw(chi, vertex, *rng)
        if vertex == 0:  # the fan reads free stacks at its leaves only
            draws.append(c0)
        return c0

    def counted_walk(g, chi, start, c0, c1):
        walks.append((start, c0))
        return walk(g, chi, start, c0, c1)

    monkeypatch.setattr(PartialColoring, draw_name, counted_draw)
    monkeypatch.setattr(edgecolor.sequential, "maximal_alternating_path", counted_walk)
    if draw_name == "random_missing_color":
        color_one_edge(g, chi, 0, Random(4))
    else:
        color_one_edge_deterministic(g, chi, 0)
    if primed_at_center:
        [c0] = draws
        assert c0 in missing_before
        assert walks == [(0, c0)]
    else:
        assert draws == [] and walks == []
    assert chi.uncolored_count == 0
    assert verify_proper(g, chi).proper


def test_color_edges_empty_graph():
    g = build_graph([], 4)
    chi = PartialColoring(g)
    assert color_edges(g, chi, Random(0)) == (0, 0, 0)
    assert chi.uncolored_count == 0


def test_color_edges_star():
    g = gen_star(101)
    chi = PartialColoring(g)
    color_edges(g, chi, Random(1))
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.colors_used == 100  # a star needs exactly max_degree colors


def test_color_edges_er_fixture():
    g = gen_erdos_renyi(200, 1000, seed=4)
    chi = PartialColoring(g)
    steps, fans, _paths = color_edges(g, chi, Random(7))
    assert steps == g.m
    assert fans >= steps  # every fan holds at least the edge itself
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1
    assert validate_structures(chi) == []


def test_color_edges_returns_the_sums_of_its_steps(monkeypatch):
    g = gen_erdos_renyi(60, 150, seed=8)
    pairs = []
    step = edgecolor.sequential.color_one_edge

    def recording(*args):
        pairs.append(step(*args))
        return pairs[-1]

    monkeypatch.setattr(edgecolor.sequential, "color_one_edge", recording)
    totals = color_edges(g, PartialColoring(g), Random(2))
    assert totals == (len(pairs), sum(f for f, _ in pairs), sum(p for _, p in pairs))
    assert totals[0] == g.m
    star = gen_star(10)  # centered on the leaves: one-edge fans, empty paths
    assert color_edges(star, PartialColoring(star), Random(2)) == (9, 9, 0)


def test_each_step_colors_exactly_its_own_edge(monkeypatch):
    # color_edges samples from the uncolored list it took on entry and
    # swap-removes each step's edge from it, which stays exact only if
    # every step colors its own edge and uncolors none.
    step = edgecolor.sequential.color_one_edge
    edges = []

    def checked(g, chi, edge, rng):
        before = set(chi.uncolored)
        out = step(g, chi, edge, rng)
        assert set(chi.uncolored) == before - {edge} and edge in before
        edges.append(edge)
        return out

    monkeypatch.setattr(edgecolor.sequential, "color_one_edge", checked)
    rng = Random(17)
    for _ in range(20):
        g = random_graph(12, 30, rng)
        chi = random_partial(g, rng)
        entry = chi.uncolored_count
        edges.clear()
        assert color_edges(g, chi, rng)[0] == len(edges) == entry
        assert chi.uncolored_count == 0 and verify_proper(g, chi).proper


def test_color_edges_determinism(monkeypatch):
    g = gen_erdos_renyi(60, 150, seed=8)
    steps, draws = _record_steps(monkeypatch)
    runs = []
    for _ in range(2):
        chi = PartialColoring(g)
        start, drawn = len(steps), len(draws)
        totals = color_edges(g, chi, Random(33))
        runs.append((chi.color[:], steps[start:], draws[drawn:], totals))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == g.m


def test_color_edges_from_partial_state():
    # repair-style use: start from a partial coloring, finish it
    rng = Random(13)
    g = random_graph(15, 40, rng)
    chi = random_partial(g, rng)
    color_edges(g, chi, rng)
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0


def test_deterministic_single_edge():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    color_one_edge_deterministic(g, chi, 0)
    assert chi.color[0] == 1  # top of the free stack
    with pytest.raises(InvalidFanError):
        color_one_edge_deterministic(g, chi, 0)


@given(graphs(min_n=1, max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_deterministic_step_on_sampled_colorings(g, seed):
    chi = random_partial(g, Random(seed))
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
    chi = PartialColoring(g)
    steps, fans, _paths = color_edges_deterministic(g, chi)
    assert steps == g.m and fans >= steps
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1
    # rerun is identical: no randomness anywhere
    chi2 = PartialColoring(g)
    color_edges_deterministic(g, chi2)
    assert chi2.color == chi.color


def test_mean_step_work_tracks_weight_over_first_half(monkeypatch):
    # while at least half the edges are uncolored, expected fan + path
    # work per step is O(1 + weight / uncolored); check the empirical
    # mean with slack 10 against the l >= m/2 bound
    g = gen_star_plus_forests(512, 2, seed=21)
    w = graph_weight(g)
    step = edgecolor.sequential.color_one_edge
    sizes = []

    def recording(*args):
        fan_size, path_length = step(*args)
        sizes.append(fan_size + path_length)
        return fan_size, path_length

    monkeypatch.setattr(edgecolor.sequential, "color_one_edge", recording)
    color_edges(g, PartialColoring(g), Random(3))
    # the steps that start with more than m // 2 edges uncolored
    sizes = sizes[: g.m - g.m // 2]
    mean = sum(sizes) / len(sizes)
    assert mean <= 10 * (1 + 2 * w / g.m)


# sha256 of the coloring dump per sequential colorer, on the benchmark's
# hub graph and on a preferential-attachment graph.  Any change to the
# fan, the path walk, the extension or the free-stack order that alters
# the output for a seed shows here.
GOLDEN_SEQUENTIAL = {
    "naive": (
        "0ba49974c8ad3e80ce66dd9bdd8db334e950a9d38a9e33fddf242a3c5e795301",
        "5329c9ab3d01d17dfff3cc83ff3dc8cea9fa0ebe1cdbe5db388207bb55dbd5e7",
    ),
    "color-edges": (
        "79945b25eb4400f93e0b65327b7af0f66cd61edf4330e98df7d3dd6fccc0f667",
        "6e1c1b50bcbf347ff0232865270d4e9ec75a4c01bfafa086e7c12a97b4d71b95",
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
