"""Partial-coloring state: mutations, sampling, verification, dumps."""

import gc
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecolor.sequential
from _util import colored_graphs, graphs, random_partial
from edgecolor.bench import run_coloring
from edgecolor.coloring import (
    UNCOLORED,
    AlreadyColoredError,
    AlreadyUncoloredError,
    ColorConflictError,
    ColoringError,
    PartialColoring,
    format_coloring,
    parse_coloring,
    verify_colors,
)
from edgecolor.generators import GenSpec, gen_erdos_renyi, gen_preferential_attachment, generate
from edgecolor.graph import ParseError, build_graph
from edgecolor.sequential import color_edges
from oracles import enumerate_maximal_paths, missing_colors, validate_structures, verify_proper

TRIANGLE = build_graph([(0, 1), (1, 2), (2, 0)], 3)
SINGLE = build_graph([(0, 1)], 2)


def test_new_empty_triangle():
    chi = PartialColoring(TRIANGLE)
    assert chi.uncolored_count == 3
    assert all(chi.color[e] == UNCOLORED for e in range(3))
    for v in range(3):
        assert sorted(missing_colors(chi, v)) == [1, 2, 3]
        assert sorted(chi._free[v]) == [1, 2, 3]  # d(v)+1 = 3


def test_new_empty_single_edge():
    chi = PartialColoring(SINGLE)
    assert chi.uncolored_count == 1
    assert sorted(chi._free[0]) == [1, 2]  # clipped to d(v)+1 = 2


def test_assign_unassign_inverse():
    chi = PartialColoring(TRIANGLE)
    before_colors = chi.color[:]
    before_occ = [d.copy() for d in chi.occupied]
    chi.assign(0, 2)
    assert chi.uncolored_count == 2
    chi.unassign(0)
    assert chi.color == before_colors
    assert chi.occupied == before_occ
    assert chi.uncolored == [0, 1, 2]
    assert validate_structures(chi) == []


def test_assign_conflict():
    chi = PartialColoring(TRIANGLE)
    chi.assign(0, 1)  # edge (0,1)
    with pytest.raises(ColorConflictError) as err:
        chi.assign(1, 1)  # edge (1,2) shares vertex 1
    assert err.value.vertex == 1
    assert err.value.other_edge == 0
    assert chi.color[1] == UNCOLORED  # failed assign leaves no trace
    assert validate_structures(chi) == []


def test_assign_misuse():
    chi = PartialColoring(TRIANGLE)
    with pytest.raises(ColoringError):
        chi.assign(0, 4)  # outside palette
    with pytest.raises(ColoringError):
        chi.assign(0, 0)
    chi.assign(0, 1)
    with pytest.raises(AlreadyColoredError):
        chi.assign(0, 2)
    chi.unassign(0)
    with pytest.raises(AlreadyUncoloredError):
        chi.unassign(0)


def test_assign_decrements_uncolored_by_one():
    chi = PartialColoring(TRIANGLE)
    for i, (e, c) in enumerate([(0, 1), (1, 2), (2, 3)]):
        chi.assign(e, c)
        assert chi.uncolored_count == 2 - i


def test_some_missing_color():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    chi = PartialColoring(star)
    assert chi.k == 4  # max_degree + 1
    picks = [chi.some_missing_color(0)]
    for e, c in [(1, 2), (0, 1), (2, 3)]:
        chi.assign(e, c)
        picks.append(chi.some_missing_color(0))
    # 1 stays the pick while it is free; then the free stack gives d(0)+1,
    # which all of 1..d(0) occupied leaves as the only choice
    assert picks == [1, 1, 4, 4]
    chi.unassign(0)  # releases 1
    chi.unassign(2)  # releases 3
    assert chi.some_missing_color(0) == 4  # the top stays while it is free
    chi.assign(0, 4)
    assert chi.some_missing_color(0) == 3  # then the latest release
    chi.assign(2, 3)
    assert chi.some_missing_color(0) == 1  # then the one before it
    assert chi.is_missing(0, chi.some_missing_color(0))
    assert validate_structures(chi) == []


def test_free_stacks_stay_within_twice_their_low_colors():
    # Releases push without popping, so a stack that is seldom queried
    # grows until its rebuild; its cap is 2(d(v)+1) entries.
    g = gen_erdos_renyi(30, 200, 2)
    chi = PartialColoring(g)
    rng = Random(4)
    cap = [2 * (d + 1) for d in g.degree]
    for _ in range(5000):
        e = rng.randrange(g.m)
        if chi.color[e] != UNCOLORED:
            chi.unassign(e)
        else:
            u, v = g.tail[e], g.head[e]
            both = [c for c in missing_colors(chi, u) if chi.is_missing(v, c)]
            if both:
                chi.assign(e, rng.choice(both))
        x = rng.randrange(g.n)
        assert chi.is_missing(x, chi.some_missing_color(x))
        assert all(len(chi._free[v]) <= cap[v] for v in range(g.n))
    assert validate_structures(chi) == []


def test_random_missing_color_singleton():
    path = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(path)
    chi.assign(0, 1)
    chi.assign(1, 2)
    rng = Random(0)
    assert all(chi.random_missing_color(1, rng) == 3 for _ in range(100))


def test_random_missing_color_frequencies_dense_branch():
    # d(1) = 2 > k/2, so the missing set is materialized
    path = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(path)
    chi.assign(0, 3)
    rng = Random(1)
    counts = {1: 0, 2: 0}
    for _ in range(10000):
        counts[chi.random_missing_color(1, rng)] += 1
    for c in counts.values():
        assert 0.45 <= c / 10000 <= 0.55


def test_random_missing_color_frequencies_rejection_branch():
    # d(u) = 1 <= k/2 = 1, so rejection sampling runs
    chi = PartialColoring(SINGLE)
    rng = Random(2)
    counts = {1: 0, 2: 0}
    for _ in range(10000):
        counts[chi.random_missing_color(0, rng)] += 1
    for c in counts.values():
        assert 0.45 <= c / 10000 <= 0.55


class _StubbornRng:
    """Always proposes color 1 until asked for a pool index."""

    def __init__(self):
        self.draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return 0


def test_random_missing_color_rejection_cap_falls_back():
    star = build_graph([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    chi = PartialColoring(star)  # leaf 1: d=1, k=5, 2d <= k: rejection branch
    chi.assign(0, 1)
    rng = _StubbornRng()
    # every rejection draw proposes 1 (occupied); after the cap the pool
    # fallback returns the first missing color
    assert chi.random_missing_color(1, rng) == 2
    assert rng.draws == 65  # 64 rejections + 1 pool index


class _FirstStep(Exception):
    pass


def test_random_uncolored_edge(monkeypatch):
    # color_edges draws its first edge uniformly from the uncolored ones.
    # Each run stops at its first step, before anything is colored.
    firsts = []

    def first_step(g, chi, edge, rng):
        firsts.append(edge)
        raise _FirstStep

    monkeypatch.setattr(edgecolor.sequential, "color_one_edge", first_step)
    chi = PartialColoring(TRIANGLE)
    rng = Random(3)

    def first_edge():
        with pytest.raises(_FirstStep):
            color_edges(TRIANGLE, chi, rng)
        return firsts[-1]

    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(30000):
        counts[first_edge()] += 1
    for c in counts.values():
        assert 0.30 <= c / 30000 <= 0.37
    chi.assign(0, 1)
    chi.assign(1, 2)
    assert first_edge() == 2
    chi.assign(2, 3)
    assert color_edges(TRIANGLE, chi, rng) == (0, 0, 0)


def test_verify_colors_reports():
    chi = PartialColoring(TRIANGLE)
    rep = verify_proper(TRIANGLE, chi)
    assert rep.proper and rep.colors_used == 0 and rep.uncolored == 3

    for e, c in [(0, 1), (1, 2), (2, 3)]:
        chi.assign(e, c)
    rep = verify_proper(TRIANGLE, chi)
    assert rep.proper and rep.colors_used == 3 and rep.max_color == 3

    # inject a violation through the raw array
    rep = verify_colors(TRIANGLE, [1, 1, 2], palette=3)
    assert not rep.proper
    assert any(v.kind == "duplicate-color" and v.vertex == 1 for v in rep.violations)

    rep = verify_colors(TRIANGLE, [1, 2, 9], palette=3)
    assert not rep.proper
    assert any(v.kind == "color-out-of-range" for v in rep.violations)


def _peak_bytes_per_edge(g, algo):
    """tracemalloc peak of one ``run_coloring`` call over a built graph, per edge."""
    gc.collect()
    tracemalloc.start()
    try:
        run_coloring(g, algo, 1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / g.m


def test_color_edges_peaks_under_195_bytes_per_edge_on_the_flat_graph():
    # The coloring state and the run's own lists, over a built graph.  It
    # reads about 178 bytes per edge here; a second list per vertex beside
    # the free stack (about 29 bytes per edge) fails the bound.
    assert _peak_bytes_per_edge(gen_erdos_renyi(3_000, 15_000, 1), "color-edges") <= 195


@pytest.mark.parametrize(
    ("make", "bound"),
    [
        (lambda: generate(GenSpec(family="star-plus-forests", n=2**11, alpha=2, seed=1)), 650),
        (lambda: gen_preferential_attachment(3_000, 5, seed=1), 400),
    ],
    ids=["hub", "preferential-attachment"],
)
def test_recursive_holds_one_graph_per_level(make, bound):
    # Each node builds a child only when it recurses into it and keeps only
    # a finished child's color array: about 575 and 245 bytes per edge.
    # Holding both children's graphs per ancestor, and the finished left
    # child's coloring during the right recursion, takes 935 and 759.
    assert _peak_bytes_per_edge(make(), "recursive") <= bound


def test_recursive_peaks_under_450_bytes_per_edge_on_the_hub_graph():
    # Each child is built straight from its parent's flat int lists: about
    # 369 bytes per edge.  Graphs of per-edge tuples and per-vertex lists,
    # each child checked as input, took about 575.
    hub = generate(GenSpec(family="star-plus-forests", n=2**11, alpha=2, seed=1))
    assert _peak_bytes_per_edge(hub, "recursive") <= 450


def test_validate_structures_detects_drift():
    chi = PartialColoring(TRIANGLE)
    chi.assign(0, 1)
    assert validate_structures(chi) == []
    chi.color[0] = 2  # corrupt behind the structures' back
    assert validate_structures(chi) != []
    chi = PartialColoring(TRIANGLE)
    chi._free[0].remove(3)  # a free color missing from its stack
    assert validate_structures(chi) == ["free stack wrong at vertex 0"]
    chi._free[0].insert(0, 3)
    assert validate_structures(chi) == []
    chi._free[0].insert(0, 4)  # outside 1..d(0)+1
    assert validate_structures(chi) == ["free stack wrong at vertex 0"]
    chi._free[0][0] = 2  # a duplicate entry is fine, past the cap it is not
    assert validate_structures(chi) == []
    chi._free[0][:0] = [2, 2, 2]  # 7 entries, cap 2(d(0)+1) = 6
    assert validate_structures(chi) == ["free stack wrong at vertex 0"]


def test_swap_colors_along_single_edge_path():
    chi = PartialColoring(SINGLE)
    chi.assign(0, 2)
    chi.swap_colors_along_path([0, 1], [0], c0=1, c1=2)
    assert chi.color[0] == 1
    assert validate_structures(chi) == []
    chi.swap_colors_along_path([0, 1], [0], c0=1, c1=2)
    assert chi.color[0] == 2  # involution
    assert validate_structures(chi) == []


def test_swap_colors_along_longer_path():
    p4 = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    chi = PartialColoring(p4)
    for e, c in [(0, 1), (1, 2), (2, 1)]:
        chi.assign(e, c)
    chi.swap_colors_along_path([0, 1, 2, 3], [0, 1, 2], c0=2, c1=1)
    assert chi.color == [2, 1, 2]
    assert verify_proper(p4, chi).proper
    assert validate_structures(chi) == []


def _assigned(g, colors):
    """An empty coloring filled by checked assignment in edge-id order."""
    chi = PartialColoring(g)
    for e, c in enumerate(colors):
        if c != UNCOLORED:
            chi.assign(e, c)
    return chi


def _fields(chi):
    return [getattr(chi, name) for name in PartialColoring.__slots__]


TOUCHES = ("read", "unassign", "swap", "is_missing", "some_missing_color")


@given(colored_graphs(), st.booleans(), st.sampled_from(TOUCHES), st.data())
@settings(max_examples=150)
def test_from_colors_equals_checked_assignment(graph_and_coloring, total, touch, data):
    g, sampled = graph_and_coloring
    if total:
        color_edges(g, sampled, Random(0))
    colors = sampled.color[:]
    chi = PartialColoring.from_colors(g, colors[:])
    ref = _assigned(g, colors)
    # Only a total coloring leaves its index unbuilt.
    assert (type(chi) is PartialColoring) == (UNCOLORED in colors)
    v = data.draw(st.integers(0, g.n - 1))
    c = data.draw(st.integers(1, ref.k))
    colored = [e for e in range(g.m) if colors[e] != UNCOLORED]
    paths = enumerate_maximal_paths(g, ref)
    if touch == "read":
        assert chi.occupied == ref.occupied
    elif touch == "unassign" and colored:
        e = data.draw(st.sampled_from(colored))
        chi.unassign(e)
        ref.unassign(e)
    elif touch == "swap" and paths:
        p = data.draw(st.sampled_from(paths))
        chi.swap_colors_along_path(p.vertices, p.edge_ids, p.c0, p.c1)
        ref.swap_colors_along_path(p.vertices, p.edge_ids, p.c0, p.c1)
    elif touch == "is_missing":
        assert chi.is_missing(v, c) == ref.is_missing(v, c)
    elif touch == "some_missing_color":
        assert chi.some_missing_color(v) == ref.some_missing_color(v)
    else:
        chi.occupied  # no edge or path to touch with: read the index
    assert type(chi) is PartialColoring
    assert _fields(chi) == _fields(ref)
    assert validate_structures(chi) == []


def test_uncolored_is_read_from_the_colors_of_an_unindexed_coloring():
    chi = PartialColoring.from_colors(TRIANGLE, [1, 2, 3])
    assert type(chi) is not PartialColoring  # total: index unbuilt
    assert list(chi.uncolored) == [] and chi.uncolored_count == 0
    chi.unassign(1)
    assert chi.uncolored == [1] and chi.uncolored_count == 1
    assert validate_structures(chi) == []
    assert color_edges(TRIANGLE, chi, Random(0))[0] == 1
    assert chi.uncolored == [] and verify_proper(TRIANGLE, chi).proper


def test_from_colors_raises_what_checked_assignment_raises():
    for colors, error in (
        ([1, 1, 2], ColorConflictError),  # color 1 twice at vertex 1
        ([2, 3, 2], ColorConflictError),  # color 2 twice at vertex 0
        ([1, 2, 4], ColoringError),  # outside the palette 1..3
        ([1, -1, 2], ColoringError),
    ):
        with pytest.raises(error) as checked:
            _assigned(TRIANGLE, colors)
        with pytest.raises(error) as bulk:
            PartialColoring.from_colors(TRIANGLE, colors)
        assert str(bulk.value) == str(checked.value)
    with pytest.raises(ColoringError, match="^2 colors for 3 edges$"):
        PartialColoring.from_colors(TRIANGLE, [1, 2])


def test_partial_coloring_has_no_attribute_hook():
    # A __getattr__ or __getattribute__ on PartialColoring itself turns off
    # CPython 3.11's specialized attribute access for every coloring.  Even
    # a bare `raise AttributeError` hook made color-edges on erdos-renyi
    # n=3000 m=15000 1.33x slower (median of 10 interleaved calls, CPython
    # 3.11.7, 2 cores).  The lazy index hook lives on a private subclass.
    assert "__getattr__" not in vars(PartialColoring)
    assert PartialColoring.__getattribute__ is object.__getattribute__


@given(graphs(min_n=1), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_structures_survive_random_operations(g, seed):
    rng = Random(seed)
    chi = PartialColoring(g)
    k = chi.k
    for _ in range(3 * g.m):
        if chi.uncolored and (not rng.random() < 0.4 or chi.uncolored_count == g.m):
            e = rng.choice(chi.uncolored)
            u, v = g.tail[e], g.head[e]
            feasible = [
                c for c in range(1, k + 1) if chi.is_missing(u, c) and chi.is_missing(v, c)
            ]
            if feasible:
                chi.assign(e, rng.choice(feasible))
        else:
            colored = [e for e in range(g.m) if chi.color[e] != UNCOLORED]
            if colored:
                chi.unassign(rng.choice(colored))
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


@given(graphs(min_n=1), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_sampled_colorings_valid(g, seed):
    chi = random_partial(g, Random(seed))
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


def test_dump_round_trip():
    chi = PartialColoring(TRIANGLE)
    chi.assign(1, 3)
    text = format_coloring(chi)
    assert text == "0 0\n1 3\n2 0\n"
    assert parse_coloring(text, 3) == [0, 3, 0]


def test_parse_coloring_errors():
    with pytest.raises(ParseError):
        parse_coloring("0 1\n0 2\n", 3)  # duplicate edge id
    with pytest.raises(ParseError):
        parse_coloring("7 1\n", 3)  # edge id out of range
    with pytest.raises(ParseError):
        parse_coloring("0 one\n", 3)
    with pytest.raises(ParseError):
        parse_coloring("0 1 2\n", 3)
    # unlisted edges stay uncolored; comments allowed
    assert parse_coloring("# note\n1 2\n", 3) == [0, 2, 0]


def test_parse_coloring_errors_name_their_line():
    with pytest.raises(ParseError, match="^line 3: edge id 0 listed twice$"):
        parse_coloring("0 1\n\n0 2\n", 3)
    with pytest.raises(ParseError, match="^line 2: edge id 7 outside 0..2$"):
        parse_coloring("# c\n7 1\n", 3)
    with pytest.raises(ParseError, match="^line 1: negative color -1$"):
        parse_coloring("0 -1\n", 3)
    with pytest.raises(ParseError, match="^line 2: expected two integers"):
        parse_coloring("0 1\n1 2 3\n", 3)
    for bad in ("\u0661 \u0662", "+1 2", "1 0_2"):
        with pytest.raises(ParseError, match="^line 2: expected two integers, got "):
            parse_coloring(f"0 1\n{bad}\n", 3)


def test_parse_coloring_from_a_file(tmp_path):
    path = tmp_path / "d.colors"
    path.write_text("# dump\n0 0\n1 3\n\n2 1\n")
    with path.open() as fh:
        assert parse_coloring(fh, 3) == [0, 3, 1]
    path.write_text("0 1\n9 1\n")
    with path.open() as fh, pytest.raises(ParseError, match="^line 2: "):
        parse_coloring(fh, 3)
