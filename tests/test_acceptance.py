"""Acceptance gate: one test per shipping criterion.

Each test prints one ``criterion NN <name>: PASS|FAIL`` line (visible
with ``pytest -s``; under plain ``pytest -v`` the test id serves as the
per-criterion line) and then asserts, so a red run names exactly the
criteria that broke.  Timing-sensitive tests use generous spreads so
they hold on loaded machines; correctness tests are exact.
"""

import json
import math
import statistics
import time
from random import Random

import pytest

from _util import random_graph
from edgecolor.bench import run_coloring
from edgecolor.cli import main
from edgecolor.coloring import PartialColoring, verify_colors
from edgecolor.generators import GenSpec, generate
from edgecolor.graph import graph_weight, randbelow
from edgecolor.oracles import (
    check_edge_membership_bounds,
    exhaustive_extend_suite,
    sample_partial_coloring,
)
from edgecolor.recursive import collect_level_stats, euler_partition, recursive_color_edges
from edgecolor.sequential import color_one_edge

THREE_ALGORITHMS = ("naive", "color-edges", "recursive")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")


def _spec_for(family: str, i: int, n: int) -> GenSpec:
    """The i-th benchmark instance of a family at size about n."""
    if family == "star":
        return GenSpec(family="star", n=n)
    if family == "forest-union":
        return GenSpec(family="forest-union", n=n, alpha=1 + i % 4, seed=i)
    if family == "star-plus-forests":
        return GenSpec(family="star-plus-forests", n=max(n, 3), alpha=2 + i % 3, seed=i)
    if family == "erdos-renyi":
        limit = n * (n - 1) // 2
        return GenSpec(family="erdos-renyi", n=n, m=min(n * (1 + i % 3), limit), seed=i)
    if family == "preferential-attachment":
        return GenSpec(family="preferential-attachment", n=max(n, 3), degree=1 + i % 5, seed=i)
    rows = math.isqrt(n)
    return GenSpec(family="grid", rows=rows, cols=max(1, n // rows))


FAMILY_NAMES = (
    "star",
    "forest-union",
    "star-plus-forests",
    "erdos-renyi",
    "preferential-attachment",
    "grid",
)

ALPHA_FAMILIES = ("star", "forest-union", "star-plus-forests", "grid")

# 100 sizes per family: dense coverage at small n, thinning out to 10^4.
SIZE_LADDER = (
    [round(16 * (400 / 16) ** (i / 84)) for i in range(85)]
    + [500 + 150 * i for i in range(10)]
    + [2500, 3500, 4500, 5500]
    + [10_000]
)


def test_criterion_01_exhaustive_pipeline_on_small_graphs():
    t0 = time.perf_counter()
    report = exhaustive_extend_suite(n_max=6)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 120.0 and report.instances > 100_000
    _report(1, "exhaustive single-edge pipeline, all graphs on 6 vertices", ok,
            f"{report.instances} pipelines in {elapsed:.1f}s")
    assert report.ok, report.violations[:5]
    assert elapsed < 120.0
    assert report.instances > 100_000


def test_criterion_02_three_algorithms_on_six_families():
    failures = []
    runs = 0
    for family in FAMILY_NAMES:
        for i, n in enumerate(SIZE_LADDER):
            g = generate(_spec_for(family, i, n))
            for algo in THREE_ALGORITHMS:
                result = run_coloring(g, algo, seed=i)
                verdict = verify_colors(g, result.chi.color, result.chi.k)
                runs += 1
                if not (
                    verdict.proper
                    and verdict.uncolored == 0
                    and verdict.max_color <= g.max_degree + 1
                ):
                    failures.append(f"{family} n={n} {algo} seed={i}")
    ok = not failures
    _report(2, "3 algorithms x 100 instances x 6 families, n up to 10^4", ok,
            f"{runs} runs, {len(failures)} failures")
    assert ok, failures[:10]
    assert runs == 3 * 100 * 6


def test_criterion_03_edge_membership_bounds_on_sampled_colorings():
    rng = Random(2024)
    violations = []
    instances = 0
    while instances < 500:
        n = rng.randrange(2, 21)
        m_cap = n * (n - 1) // 2
        g = random_graph(n, rng.randrange(1, m_cap + 1), rng)
        chi = sample_partial_coloring(g, rng)
        report = check_edge_membership_bounds(g, chi)
        instances += 1
        violations.extend(report.violations)
    ok = not violations
    _report(3, "internal-membership bounds on 500 sampled colorings, n <= 20", ok,
            f"{instances} colorings")
    assert ok, violations[:5]


def test_criterion_04_euler_partition_balance_exact():
    bad = []
    instances = 0
    for family in FAMILY_NAMES:
        for i in range(100):
            n = 10 + 6 * i
            g = generate(_spec_for(family, i, n))
            split = euler_partition(g)
            left, right = split.side_degrees()
            instances += 1
            for v in range(g.n):
                dl, dr = left.get(v, 0), right.get(v, 0)
                if dl + dr != g.degree[v] or abs(dl - dr) > 2:
                    bad.append(f"{family} i={i} vertex {v}: {dl}+{dr} vs {g.degree[v]}")
    ok = not bad
    _report(4, "Euler split degree balance, exact, 100 instances per family", ok,
            f"{instances} splits")
    assert ok, bad[:10]


@pytest.fixture(scope="module")
def traced_recursive_runs():
    configs = [
        (GenSpec(family="star-plus-forests", n=10_000, alpha=2, seed=3), 31),
        (GenSpec(family="star", n=8192), 32),
        (GenSpec(family="preferential-attachment", n=5000, degree=30, seed=7), 33),
        (GenSpec(family="erdos-renyi", n=3000, m=60_000, seed=9), 34),
    ]
    runs = []
    for spec, seed in configs:
        g = generate(spec)
        trace = []
        chi = recursive_color_edges(g, Random(seed), trace=trace)
        runs.append((spec.family, g, trace, chi))
    return runs


def test_criterion_05_recursion_level_invariants(traced_recursive_runs):
    violations = []
    levels_checked = 0
    for family, g, trace, _chi in traced_recursive_runs:
        for level in collect_level_stats(trace):
            levels_checked += 1
            violations.extend(f"{family}: {v}" for v in level["violations"])
    ok = not violations and levels_checked > 0
    _report(5, "per-level degree/weight invariants on traced runs, n up to 10^4", ok,
            f"{levels_checked} levels across {len(traced_recursive_runs)} runs")
    assert ok, violations[:10]


def test_criterion_06_prune_weight_bound_per_node(traced_recursive_runs):
    bad = []
    internal = 0
    for family, _g, trace, _chi in traced_recursive_runs:
        for node in trace:
            if node.is_base:
                continue
            internal += 1
            # exact integer form of: pruned weight <= 3 W / (max_degree + 4)
            if node.pruned_weight * (node.max_degree + 4) > 3 * node.weight:
                bad.append(
                    f"{family} level {node.level}: pruned {node.pruned_weight} "
                    f"of weight {node.weight} at max degree {node.max_degree}"
                )
    ok = not bad and internal >= 20
    _report(6, "pruned repair weight within 3W/(max_degree+4) at every split", ok,
            f"{internal} internal nodes")
    assert ok, bad[:10]


def test_criterion_07_weight_versus_density_bound():
    bad = []
    instances = 0
    for family in ALPHA_FAMILIES:
        for i in range(100):
            spec = _spec_for(family, i, 12 + 20 * i)
            alpha = spec.known_arboricity()
            g = generate(spec)
            instances += 1
            if graph_weight(g) > 2 * g.m * alpha:
                bad.append(f"{family} i={i}: W={graph_weight(g)} m={g.m} alpha={alpha}")
    ok = not bad
    _report(7, "graph weight at most 2 m alpha on known-arboricity families", ok,
            f"{instances} instances")
    assert ok, bad[:10]


def test_criterion_08_near_linear_scaling_on_sparse_family():
    ratios = []
    for exp in range(12, 18):
        n = 2**exp
        g = generate(GenSpec(family="star-plus-forests", n=n, alpha=2, seed=n))
        wall = statistics.median(
            run_coloring(g, "color-edges", seed=n).wall_us for _ in range(5)
        )
        ratios.append(wall / (g.m * math.log2(n)))
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    _report(8, "wall time per m*log2(n) flat within 3x, n from 2^12 to 2^17", ok,
            f"spread {spread:.2f}x")
    assert ok, f"ratios {ratios}"


def test_criterion_09_flat_cost_across_degree_sweep():
    m_target = 200_000
    n = 200_000
    walls = []
    degrees = []
    for star_leaves in (450, 20_000, n - 1):
        g = generate(
            GenSpec(
                family="star-plus-forests",
                n=n,
                alpha=2,
                seed=17,
                star_leaves=star_leaves,
                forest_edges=m_target - star_leaves,
            )
        )
        degrees.append(g.max_degree)
        assert abs(g.m - m_target) <= m_target // 100
        walls.append(
            statistics.median(run_coloring(g, "color-edges", seed=5).wall_us for _ in range(5))
        )
    spread = max(walls) / min(walls)
    ok = spread <= 2.0 and degrees[0] < 1000 and degrees[-1] == n - 1
    _report(9, "wall time within 2x while max degree sweeps sqrt(n) to n-1", ok,
            f"degrees {degrees}, spread {spread:.2f}x")
    assert degrees[-1] == n - 1
    assert degrees[0] < 1000
    assert ok, f"walls {walls}"


def test_criterion_10_step_cost_on_fully_uncolored_graph():
    g = generate(GenSpec(family="star-plus-forests", n=4096, alpha=2, seed=21))
    w = graph_weight(g)
    total = 0
    calls = 1000
    for i in range(calls):
        chi = PartialColoring(g)
        rng = Random(i)
        total += sum(color_one_edge(g, chi, randbelow(rng, g.m), rng))
    mean = total / calls
    bound = 10 * w / g.m
    ok = mean <= bound
    _report(10, "mean fan+path work on an empty coloring within 10 W/m", ok,
            f"mean {mean:.3f} vs bound {bound:.3f} over {calls} calls")
    assert ok


def test_criterion_11_byte_identical_determinism(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    assert main(["generate", "--family", "star-plus-forests", "--n", "300",
                 "--alpha", "2", "--seed", "5", "-o", str(graph_path)]) == 0
    mismatches = []
    for algo in THREE_ALGORITHMS:
        dumps = []
        reports = []
        for rep in range(3):
            dump = tmp_path / f"{algo}-{rep}.colors"
            report_path = tmp_path / f"{algo}-{rep}.json"
            rc = main(["color", str(graph_path), "--algo", algo, "--seed", "42",
                       "--dump", str(dump), "--report", str(report_path)])
            assert rc == 0
            dumps.append(dump.read_bytes())
            data = json.loads(report_path.read_text())
            data.pop("wall_us")
            reports.append(data)
        if not (dumps[0] == dumps[1] == dumps[2]):
            mismatches.append(f"{algo}: dumps differ")
        if not (reports[0] == reports[1] == reports[2]):
            mismatches.append(f"{algo}: reports differ beyond timing")
    capsys.readouterr()
    ok = not mismatches
    _report(11, "identical dumps and reports (timing aside) over 3 repeat runs", ok,
            "3 algorithms x 3 runs")
    assert ok, mismatches
