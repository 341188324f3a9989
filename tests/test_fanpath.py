"""Fans, alternating paths, flips, and the single-edge extension."""

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import colored_graphs, random_graph, random_partial
from edgecolor.bench import ALGORITHMS, run_coloring
from edgecolor.coloring import UNCOLORED, ColoringError, PartialColoring
from edgecolor.fanpath import (
    AlternatingPath,
    InvalidFanError,
    NotMaximalError,
    extend_coloring,
    make_primed_fan,
    maximal_alternating_path,
)
from edgecolor.generators import gen_preferential_attachment
from edgecolor.graph import build_graph
from oracles import (
    check_fan,
    count_internal_memberships,
    enumerate_maximal_paths,
    incident_edges,
    missing_colors,
    validate_structures,
    verify_proper,
)

STAR4 = build_graph([(0, 1), (0, 2), (0, 3)], 4)  # center 0
P3 = build_graph([(0, 1), (1, 2)], 3)


def test_make_primed_fan_single_edge():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    fan = make_primed_fan(g, chi, 0, center=0)
    assert fan.leaves == [1]
    assert fan.primed_index is None  # primed at the center
    assert fan.primed_color == 1  # top of the free stack at the leaf
    assert check_fan(g, chi, fan) == []


def test_make_primed_fan_walks_the_star():
    # (0,1) uncolored; (0,2)=1 and (0,3)=2 force the fan through both
    # leaves until the primed color re-enters the fan.
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    chi.assign(2, 2)
    fan = make_primed_fan(STAR4, chi, 0, center=0)
    assert fan.leaves == [1, 2, 3]
    assert [chi.color[e] for e in fan.edge_ids[1:]] == [1, 2]
    assert fan.primed_color == 1
    assert fan.primed_index == 0  # color 1 is missing at leaf 1
    assert check_fan(STAR4, chi, fan) == []


def test_make_primed_fan_requires_uncolored_edge():
    chi = PartialColoring(STAR4)
    chi.assign(0, 1)
    with pytest.raises(InvalidFanError):
        make_primed_fan(STAR4, chi, 0, center=0)


@given(colored_graphs())
@settings(max_examples=150)
def test_every_fan_passes_independent_checker(pair):
    g, chi = pair
    for e in list(chi.uncolored):
        for center in (g.tail[e], g.head[e]):
            fan = make_primed_fan(g, chi, e, center)
            assert check_fan(g, chi, fan) == []
            assert fan.size <= g.degree[center] + 1


def test_fan_determinism():
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    f1 = make_primed_fan(STAR4, chi, 0, 0)
    f2 = make_primed_fan(STAR4, chi, 0, 0)
    assert (f1.leaves, f1.primed_color, f1.primed_index) == (
        f2.leaves,
        f2.primed_color,
        f2.primed_index,
    )


def test_shift_fan_noop_and_single_rotation():
    # a one-edge fan shifts nothing: its primed color goes on its edge
    chi = PartialColoring(STAR4)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    assert fan.size == 1 and fan.primed_index is None
    extend_coloring(STAR4, chi, fan, None)
    assert chi.color == [fan.primed_color, UNCOLORED, UNCOLORED]

    # (0,1) uncolored, (0,2)=1; leaf 2 misses 2, which the center misses too
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    assert (fan.leaves, fan.primed_color, fan.primed_index) == ([1, 2], 2, None)
    m_before = set(missing_colors(chi, 0))
    extend_coloring(STAR4, chi, fan, None)
    assert chi.color[:2] == [1, 2]  # color 1 shifted down, the primed 2 placed
    assert set(missing_colors(chi, 0)) == m_before - {2}
    assert verify_proper(STAR4, chi).proper
    assert validate_structures(chi) == []


@given(colored_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_extend_takes_one_missing_color_from_the_center(pair, seed):
    # the shift leaves the center's colors alone; only the newly
    # colored edge (and, after a flip, the path's first edge) change them
    g, chi = pair
    rng = Random(seed)
    if not chi.uncolored:
        return
    e = chi.uncolored[rng.randrange(len(chi.uncolored))]
    center = (g.tail[e], g.head[e])[rng.randrange(2)]
    m_before = set(missing_colors(chi, center))
    _run_pipeline(g, chi, e, center, rng)
    m_after = set(missing_colors(chi, center))
    assert m_after < m_before and len(m_before - m_after) == 1
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


@given(colored_graphs(max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_fan_prefix_stays_valid_after_the_flip(pair, seed):
    # The lemma that lets extend_coloring shift without re-checking the
    # fan: after the flip, each fan edge 1..upto still carries a color
    # missing at the previous leaf.
    g, chi = pair
    rng = Random(seed)
    if not chi.uncolored:
        return
    e = chi.uncolored[rng.randrange(len(chi.uncolored))]
    center = (g.tail[e], g.head[e])[rng.randrange(2)]
    c0 = chi.random_missing_color(center, rng)
    fan = make_primed_fan(g, chi, e, center)
    c1 = fan.primed_color
    upto = fan.size - 1
    if not chi.is_missing(center, c1):
        j = fan.primed_index
        path = maximal_alternating_path(g, chi, center, c0, c1)
        chi.swap_colors_along_path(path.vertices, path.edge_ids, c0, c1)
        if path.end != fan.leaves[j]:
            upto = j
    for i in range(1, upto + 1):
        c = chi.color[fan.edge_ids[i]]
        assert c != UNCOLORED and chi.is_missing(fan.leaves[i - 1], c)


def test_shift_fan_rejects_invalidated_fan():
    # fan checks are against the live coloring, so invalidate it live:
    # first by coloring the fan's uncolored edge, caught before any change...
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    chi.assign(0, 4)
    before = chi.color[:]
    with pytest.raises(InvalidFanError):
        extend_coloring(STAR4, chi, fan, None)
    assert chi.color == before

    # ...then by making a fan color present at the previous leaf, which
    # the checked shift refuses, leaving a proper partial coloring
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 3)], 4)
    chi = PartialColoring(g)
    chi.assign(1, 1)  # (0,2) = 1
    fan = make_primed_fan(g, chi, 0, 0)
    assert fan.leaves == [1, 2] and chi.color[fan.edge_ids[1]] == 1
    chi.assign(3, 1)  # (1,3) = 1: color 1 no longer missing at leaf 1
    with pytest.raises(ColoringError):
        extend_coloring(g, chi, fan, None)
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


def test_maximal_path_empty_when_second_color_missing():
    chi = PartialColoring(P3)
    p = maximal_alternating_path(P3, chi, 0, c0=1, c1=2)
    assert p.length == 0 and p.vertices == [0]


def test_maximal_path_forced_walk():
    chi = PartialColoring(P3)
    chi.assign(0, 1)
    chi.assign(1, 2)
    # on colors (2, 1) the walk is forced across both edges
    p = maximal_alternating_path(P3, chi, 0, c0=2, c1=1)
    assert p.vertices == [0, 1, 2]
    assert p.edge_ids == [0, 1]
    # on colors (3, 1) it stops at b: edge (b, c) carries neither color
    q = maximal_alternating_path(P3, chi, 0, c0=3, c1=1)
    assert q.vertices == [0, 1]


def test_maximal_path_preconditions():
    chi = PartialColoring(P3)
    chi.assign(0, 1)
    with pytest.raises(ValueError):
        maximal_alternating_path(P3, chi, 0, c0=1, c1=1)
    with pytest.raises(ValueError):
        maximal_alternating_path(P3, chi, 0, c0=1, c1=2)  # c0 not missing at 0


def test_maximal_path_raises_on_corrupt_index():
    # Vertex 2's index claims edge 1 for color 1 too, so the (2, 1) walk
    # would bounce between vertices 1 and 2 forever; it must raise instead.
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    chi = PartialColoring(g)
    chi.assign(0, 1)
    chi.assign(1, 2)
    chi.occupied[2][1] = 1
    with pytest.raises(RuntimeError, match="coloring is corrupt"):
        maximal_alternating_path(g, chi, 0, 2, 1)


def _assert_is_maximal(g, chi, p):
    """Independent maximality check straight from the definitions."""
    assert len(p.vertices) == len(p.edge_ids) + 1
    assert len(set(p.vertices)) == len(p.vertices)
    want = p.c1
    for e in p.edge_ids:
        assert chi.color[e] == want
        want = p.c0 if want == p.c1 else p.c1
    for endpoint, inner in ((p.vertices[0], p.c0), (p.vertices[-1], None)):
        incident = [
            eid
            for eid in incident_edges(g, endpoint)
            if chi.color[eid] in (p.c0, p.c1)
        ]
        assert len(incident) <= 1
        if p.edge_ids:
            boundary = p.edge_ids[0] if endpoint == p.vertices[0] else p.edge_ids[-1]
            assert incident == [boundary]
    if not p.edge_ids:
        assert chi.is_missing(p.vertices[0], p.c1)


@given(colored_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_maximal_path_is_maximal_and_unique(pair, seed):
    g, chi = pair
    rng = Random(seed)
    if g.n == 0 or chi.k < 2:
        return
    u = rng.randrange(g.n)
    missing = missing_colors(chi, u)
    if not missing:
        return
    c0 = rng.choice(missing)
    c1 = rng.choice([c for c in range(1, chi.k + 1) if c != c0])
    p = maximal_alternating_path(g, chi, u, c0, c1)
    _assert_is_maximal(g, chi, p)
    if p.length >= 1:
        # the oracle enumeration must contain this path (either direction)
        enumerated = enumerate_maximal_paths(g, chi)
        assert any(
            q.edge_ids == p.edge_ids or q.edge_ids == p.edge_ids[::-1]
            for q in enumerated
        )


def _star_primed_at_a_leaf():
    """STAR4 plus (2,4)=3: the fan is primed at leaf 0 by color 1, and the
    maximal (3,1)-path from the center runs 0-2-4."""
    g = build_graph([(0, 1), (0, 2), (0, 3), (2, 4)], 5)
    chi = PartialColoring(g)
    for e, c in [(1, 1), (2, 2), (3, 3)]:
        chi.assign(e, c)
    fan = make_primed_fan(g, chi, 0, 0)
    assert (fan.leaves, fan.primed_color, fan.primed_index) == ([1, 2, 3], 1, 0)
    return g, chi, fan


def test_flip_empty_path():
    # an empty path where both colors are missing is test_extend_single_edge_case_one;
    # where the primed color that must be flipped away is present, it is refused
    g, chi, fan = _star_primed_at_a_leaf()
    before = chi.color[:]
    with pytest.raises(NotMaximalError):
        extend_coloring(g, chi, fan, AlternatingPath([0], [], 3, 1))  # 1 present at 0
    assert chi.color == before


def test_flip_rejects_non_maximal():
    g, chi, fan = _star_primed_at_a_leaf()
    assert maximal_alternating_path(g, chi, 0, 3, 1).vertices == [0, 2, 4]
    before = chi.color[:]
    truncated = AlternatingPath([0, 2], [1], c0=3, c1=1)
    with pytest.raises(NotMaximalError):
        extend_coloring(g, chi, fan, truncated)  # vertex 2 still has color 3 on edge 3
    assert chi.color == before
    extend_coloring(g, chi, fan, maximal_alternating_path(g, chi, 0, 3, 1))
    assert chi.uncolored_count == 0 and verify_proper(g, chi).proper


def test_flip_two_edge_path():
    chi = PartialColoring(P3)
    chi.assign(0, 1)
    chi.assign(1, 2)
    p = maximal_alternating_path(P3, chi, 0, c0=2, c1=1)
    chi.swap_colors_along_path(p.vertices, p.edge_ids, p.c0, p.c1)
    assert chi.color == [2, 1]
    assert verify_proper(P3, chi).proper
    # after a nonempty flip, c1 enters M(u) and c0 leaves it
    assert chi.is_missing(0, 1) and not chi.is_missing(0, 2)


@given(colored_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_flip_is_involution(pair, seed):
    g, chi = pair
    rng = Random(seed)
    paths = enumerate_maximal_paths(g, chi)
    if not paths:
        return
    p = paths[rng.randrange(len(paths))]
    before = chi.color[:]
    chi.swap_colors_along_path(p.vertices, p.edge_ids, p.c0, p.c1)
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []
    chi.swap_colors_along_path(p.vertices, p.edge_ids, p.c0, p.c1)
    assert chi.color == before
    assert validate_structures(chi) == []


def test_extend_single_edge_case_one():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    fan = make_primed_fan(g, chi, 0, 0)
    extend_coloring(g, chi, fan, AlternatingPath([0], [], 2, fan.primed_color))
    assert chi.color[0] == fan.primed_color
    assert verify_proper(g, chi).proper


def test_extend_star_shift_case():
    # (0,1) uncolored, (0,2)=1; fan walks to leaf 2 and primes at the
    # center, so the whole fan shifts before coloring.
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    assert fan.primed_index is None
    c0 = 3
    p = maximal_alternating_path(STAR4, chi, 0, c0, fan.primed_color)
    extend_coloring(STAR4, chi, fan, p)
    assert chi.color[0] != UNCOLORED and chi.color[1] != UNCOLORED
    assert verify_proper(STAR4, chi).proper


def _run_pipeline(g, chi, e, center, rng):
    c0 = chi.random_missing_color(center, rng)
    fan = make_primed_fan(g, chi, e, center)
    c1 = fan.primed_color
    p = maximal_alternating_path(g, chi, center, c0, c1) if c0 != c1 else None
    extend_coloring(g, chi, fan, p)


@given(colored_graphs(max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_extend_pipeline_colors_one_more_edge(pair, seed):
    g, chi = pair
    rng = Random(seed)
    if not chi.uncolored:
        return
    e = chi.uncolored[rng.randrange(len(chi.uncolored))]
    center = (g.tail[e], g.head[e])[rng.randrange(2)]
    before = chi.uncolored_count
    colored_before = [i for i in range(g.m) if chi.color[i] != UNCOLORED]
    _run_pipeline(g, chi, e, center, rng)
    assert chi.uncolored_count == before - 1
    assert chi.color[e] != UNCOLORED
    assert all(chi.color[i] != UNCOLORED for i in colored_before)
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


def test_extend_rejects_missing_path():
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    chi.assign(2, 2)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    assert fan.primed_index is not None  # primed at a leaf
    with pytest.raises(NotMaximalError):
        extend_coloring(STAR4, chi, fan, None)


def test_extend_rejects_fan_whose_primed_index_misses_the_primed_color():
    # primed at leaf 0: color 1 sits on fan edge 1 and at the center
    chi = PartialColoring(STAR4)
    chi.assign(1, 1)
    chi.assign(2, 2)
    fan = make_primed_fan(STAR4, chi, 0, 0)
    path = maximal_alternating_path(STAR4, chi, 0, 3, fan.primed_color)
    before = chi.color[:]
    for j in (None, 1, 2, -1):  # center-primed, wrong edge, out of range
        with pytest.raises(InvalidFanError):
            extend_coloring(STAR4, chi, replace(fan, primed_index=j), path)
        assert chi.color == before


# (assign, unassign) calls per colorer on preferential-attachment n=1000
# degree 10, graph and colorer seed 42.  Every shifted fan color is one checked
# unassign plus one checked assign, so a shift that bypassed them would
# move these counts; the benchmark's assign.calls work count reads the same.
CHECKED_CALLS = {
    "naive": (20409, 10464),
    "color-edges": (13857, 3912),
    "recursive": (40962, 1182),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shifts_go_through_checked_assign_and_unassign(algorithm, monkeypatch):
    g = gen_preferential_attachment(1000, 10, seed=42)
    calls = {"assign": 0, "unassign": 0}
    for name in calls:
        method = getattr(PartialColoring, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(PartialColoring, name, counted)
    run_coloring(g, algorithm, 42)
    assert (calls["assign"], calls["unassign"]) == CHECKED_CALLS[algorithm]


def test_count_internal_memberships_examples():
    p4 = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    chi = PartialColoring(p4)
    for e, c in [(0, 1), (1, 2), (2, 1)]:
        chi.assign(e, c)
    assert count_internal_memberships(p4, chi, 0) == 0  # leaf endpoint
    assert count_internal_memberships(p4, chi, 1) == 1  # the (1,2)-path
    with pytest.raises(ValueError):
        chi2 = PartialColoring(p4)
        count_internal_memberships(p4, chi2, 0)  # uncolored edge


def test_count_internal_memberships_matches_enumeration():
    rng = Random(11)
    for _ in range(25):
        g = random_graph(7, rng.randrange(0, 15), rng)
        chi = random_partial(g, rng)
        tallies = {e: 0 for e in range(g.m)}
        for p in enumerate_maximal_paths(g, chi):
            for e in p.edge_ids[1:-1]:
                tallies[e] += 1
        for e in range(g.m):
            if chi.color[e] != UNCOLORED:
                assert count_internal_memberships(g, chi, e) == tallies[e]
