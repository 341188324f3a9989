"""Partial-coloring state: mutations, sampling, verification, dumps."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import graphs, random_partial
from edgecolor.coloring import (
    UNCOLORED,
    AlreadyColoredError,
    AlreadyUncoloredError,
    ColorConflictError,
    ColoringError,
    NoUncoloredEdgesError,
    PaletteTooSmallError,
    PartialColoring,
    format_coloring,
    parse_coloring,
    validate_structures,
    verify_colors,
    verify_proper,
)
from edgecolor.graph import ParseError, build_graph

TRIANGLE = build_graph([(0, 1), (1, 2), (2, 0)], 3)
SINGLE = build_graph([(0, 1)], 2)


def test_new_empty_triangle():
    chi = PartialColoring(TRIANGLE, 3)
    assert chi.uncolored_count == 3
    assert all(chi.color[e] == UNCOLORED for e in range(3))
    for v in range(3):
        assert sorted(chi.missing_colors(v)) == [1, 2, 3]
        assert sorted(chi._free[v]) == [1, 2, 3]  # d(v)+1 = 3


def test_new_empty_single_edge():
    chi = PartialColoring(SINGLE, 2)
    assert chi.uncolored_count == 1
    assert sorted(chi._free[0]) == [1, 2]  # clipped to d(v)+1 = 2


def test_palette_too_small():
    with pytest.raises(PaletteTooSmallError):
        PartialColoring(TRIANGLE, 2)


def test_assign_unassign_inverse():
    chi = PartialColoring(TRIANGLE, 3)
    before_colors = chi.color[:]
    before_occ = [d.copy() for d in chi.occupied]
    chi.assign(0, 2)
    assert chi.uncolored_count == 2
    chi.unassign(0)
    # the uncolored array is a set with arbitrary order; everything else
    # must match exactly
    assert chi.color == before_colors
    assert chi.occupied == before_occ
    assert sorted(chi.uncolored) == [0, 1, 2]
    assert validate_structures(chi) == []


def test_assign_conflict():
    chi = PartialColoring(TRIANGLE, 3)
    chi.assign(0, 1)  # edge (0,1)
    with pytest.raises(ColorConflictError) as err:
        chi.assign(1, 1)  # edge (1,2) shares vertex 1
    assert err.value.vertex == 1
    assert err.value.other_edge == 0
    assert chi.color[1] == UNCOLORED  # failed assign leaves no trace
    assert validate_structures(chi) == []


def test_assign_misuse():
    chi = PartialColoring(TRIANGLE, 3)
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
    chi = PartialColoring(TRIANGLE, 3)
    for i, (e, c) in enumerate([(0, 1), (1, 2), (2, 3)]):
        chi.assign(e, c)
        assert chi.uncolored_count == 2 - i


def test_some_missing_color():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    chi = PartialColoring(star, 5)
    assert chi.some_missing_color(0) in {1, 2, 3, 4}
    for e, c in [(0, 1), (1, 2), (2, 3)]:
        chi.assign(e, c)
    # all of 1..d(0) occupied, so the head of the free list is d(0)+1
    assert chi.some_missing_color(0) == 4
    assert chi.is_missing(0, chi.some_missing_color(0))


def test_random_missing_color_singleton():
    path = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(path, 3)
    chi.assign(0, 1)
    chi.assign(1, 2)
    rng = Random(0)
    assert all(chi.random_missing_color(1, rng) == 3 for _ in range(100))


def test_random_missing_color_frequencies_dense_branch():
    # d(1) = 2 > k/2, so the missing set is materialized
    path = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(path, 3)
    chi.assign(0, 3)
    rng = Random(1)
    counts = {1: 0, 2: 0}
    for _ in range(10000):
        counts[chi.random_missing_color(1, rng)] += 1
    for c in counts.values():
        assert 0.45 <= c / 10000 <= 0.55


def test_random_missing_color_frequencies_rejection_branch():
    # d(u) = 1 <= k/2 = 1, so rejection sampling runs
    chi = PartialColoring(SINGLE, 2)
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

    def randrange(self, stop):
        self.draws += 1
        return 0


def test_random_missing_color_rejection_cap_falls_back():
    star = build_graph([(0, 1), (0, 2)], 3)
    chi = PartialColoring(star, 5)  # d(0)=2, 2d <= k: rejection branch
    chi.assign(0, 1)
    rng = _StubbornRng()
    # every rejection draw proposes 1 (occupied); after the cap the pool
    # fallback returns the first missing color
    assert chi.random_missing_color(0, rng) == 2
    assert rng.draws == 65  # 64 rejections + 1 pool index


def test_random_uncolored_edge():
    chi = PartialColoring(TRIANGLE, 3)
    rng = Random(3)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(30000):
        counts[chi.random_uncolored_edge(rng)] += 1
    for c in counts.values():
        assert 0.30 <= c / 30000 <= 0.37
    chi.assign(0, 1)
    chi.assign(1, 2)
    assert chi.random_uncolored_edge(rng) == 2
    chi.assign(2, 3)
    with pytest.raises(NoUncoloredEdgesError):
        chi.random_uncolored_edge(rng)


def test_verify_colors_reports():
    chi = PartialColoring(TRIANGLE, 3)
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


def test_validate_structures_detects_drift():
    chi = PartialColoring(TRIANGLE, 3)
    chi.assign(0, 1)
    assert validate_structures(chi) == []
    chi.color[0] = 2  # corrupt behind the structures' back
    assert validate_structures(chi) != []


def test_swap_colors_along_single_edge_path():
    chi = PartialColoring(SINGLE, 2)
    chi.assign(0, 2)
    chi.swap_colors_along_path([0, 1], [0], c0=1, c1=2)
    assert chi.color[0] == 1
    assert validate_structures(chi) == []
    chi.swap_colors_along_path([0, 1], [0], c0=1, c1=2)
    assert chi.color[0] == 2  # involution
    assert validate_structures(chi) == []


def test_swap_colors_along_longer_path():
    p4 = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    chi = PartialColoring(p4, 3)
    for e, c in [(0, 1), (1, 2), (2, 1)]:
        chi.assign(e, c)
    chi.swap_colors_along_path([0, 1, 2, 3], [0, 1, 2], c0=2, c1=1)
    assert chi.color == [2, 1, 2]
    assert verify_proper(p4, chi).proper
    assert validate_structures(chi) == []


def test_copy_is_independent():
    chi = PartialColoring(TRIANGLE, 3)
    chi.assign(0, 1)
    dup = chi.copy()
    dup.assign(1, 2)
    assert chi.color[1] == UNCOLORED
    assert validate_structures(chi) == []
    assert validate_structures(dup) == []


@given(graphs(min_n=1), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_structures_survive_random_operations(g, seed):
    rng = Random(seed)
    k = g.max_degree + 1
    chi = PartialColoring(g, k)
    for _ in range(3 * g.m):
        if chi.uncolored and (not rng.random() < 0.4 or chi.uncolored_count == g.m):
            e = chi.random_uncolored_edge(rng)
            u, v = g.endpoints[e]
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
    chi = random_partial(g, g.max_degree + 1, Random(seed))
    assert verify_proper(g, chi).proper
    assert validate_structures(chi) == []


def test_dump_round_trip():
    chi = PartialColoring(TRIANGLE, 3)
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


def test_parse_coloring_from_a_file(tmp_path):
    path = tmp_path / "d.colors"
    path.write_text("# dump\n0 0\n1 3\n\n2 1\n")
    with path.open() as fh:
        assert parse_coloring(fh, 3) == [0, 3, 1]
    path.write_text("0 1\n9 1\n")
    with path.open() as fh, pytest.raises(ParseError, match="^line 2: "):
        parse_coloring(fh, 3)
