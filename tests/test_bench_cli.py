"""Benchmark harness and command-line interface, end to end."""

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecolor
from _util import graphs
from edgecolor.bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    BenchCell,
    build_report,
    load_manifest,
    run_bench,
    run_cell,
    run_coloring,
    summarize_steps,
    write_csv,
)
from edgecolor.cli import SEED_ENV, main
from edgecolor.coloring import validate_structures, verify_colors, verify_proper
from edgecolor.generators import GenSpec, gen_star_plus_forests
from edgecolor.graph import build_graph
from edgecolor.recursive import recursive_color_edges
from edgecolor.sequential import StepTrace


@pytest.fixture()
def small_graph():
    return gen_star_plus_forests(60, 2, seed=3)


def test_run_coloring_all_algorithms(small_graph):
    g = small_graph
    for algo in ALGORITHMS:
        result = run_coloring(g, algo, seed=5)
        assert result.algorithm == algo
        assert result.wall_us >= 0
        rep = verify_proper(g, result.chi)
        assert rep.proper and rep.uncolored == 0
        assert rep.max_color <= g.max_degree + 1


@given(graphs(max_n=10), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_every_algorithm_on_random_small_graphs(g, seed):
    # Graphs here with max degree >= 4 exceed the recursion threshold, so
    # the recursive colorers split, merge and prune on them.
    for algo in ALGORITHMS:
        chi = run_coloring(g, algo, seed).chi
        rep = verify_colors(g, chi.color, g.max_degree + 1)
        assert rep.proper and rep.uncolored == 0, algo
        assert validate_structures(chi) == [], algo


def test_run_coloring_traces(small_graph):
    g = small_graph
    seq = run_coloring(g, "color-edges", seed=1, trace=True)
    assert seq.step_traces is not None and len(seq.step_traces) == g.m
    rec = run_coloring(g, "recursive", seed=1, trace=True)
    assert rec.level_stats is not None
    assert all(level.violations == [] for level in rec.level_stats)


def test_run_coloring_rejects_bad_arguments(small_graph):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_coloring(small_graph, "greedy", seed=0)


def test_ablation_alias(small_graph):
    a = run_coloring(small_graph, "recursive-size-prune-ablation", seed=2)
    b = recursive_color_edges(small_graph, Random(2), prune_by="size")
    assert a.algorithm == "recursive-size-prune-ablation"
    assert a.chi.color == b.color


def test_report_determinism_modulo_timing(small_graph):
    g = small_graph
    dicts = []
    for _ in range(2):
        result = run_coloring(g, "color-edges", seed=9, trace=True)
        report = build_report(g, result, 9, {"path": "x"})
        d = report.to_dict()
        d.pop("wall_us")
        dicts.append(d)
    assert dicts[0] == dicts[1]
    assert dicts[0]["ok"] and dicts[0]["proper"]
    assert dicts[0]["schema_version"] == 1
    assert dicts[0]["step_summary"]["calls"] == g.m


def test_summarize_steps():
    steps = [
        StepTrace(edge=0, center=0, fan_size=1, path_length=0, missing_color=1, elapsed_us=5),
        StepTrace(edge=1, center=2, fan_size=3, path_length=4, missing_color=2, elapsed_us=7),
    ]
    assert summarize_steps(steps) == {
        "calls": 2,
        "mean_fan_size": 2.0,
        "mean_path_length": 2.0,
    }


def test_load_manifest_defaults():
    cells = load_manifest({"entries": [{"spec": {"family": "star", "n": 5}}]})
    assert cells == [BenchCell(GenSpec(family="star", n=5), "color-edges", 0, 5)]


def test_load_manifest_expansion():
    manifest = {
        "entries": [
            {
                "spec": {"family": "star", "n": 5},
                "algos": ["naive", "recursive"],
                "seeds": [1, 2, 3],
                "reps": 2,
            }
        ]
    }
    cells = load_manifest(manifest)
    assert len(cells) == 6
    assert [(c.algorithm, c.seed) for c in cells] == [
        ("naive", 1), ("naive", 2), ("naive", 3),
        ("recursive", 1), ("recursive", 2), ("recursive", 3),
    ]
    assert all(c.reps == 2 for c in cells)


@pytest.mark.parametrize(
    "manifest,match",
    [
        ({}, "entries"),
        ({"entries": [42]}, "not an object"),
        ({"entries": [{"spec": {"family": "star", "n": 3}, "speed": 9}]}, "unknown keys"),
        ({"entries": [{"algos": ["naive"]}]}, "missing 'spec'"),
        ({"entries": [{"spec": {"family": "star", "n": 3}, "algos": ["fast"]}]}, "algorithm"),
        (
            {"entries": [{"spec": {"family": "star", "n": 3}, "seeds": [1], "seed": 2}]},
            "not both",
        ),
        ({"entries": [{"spec": {"family": "star", "n": 3}, "reps": 0}]}, "reps"),
        ({"entries": [{"spec": {"family": "star", "n": 3}, "seeds": ["a"]}]}, "integers"),
    ],
)
def test_load_manifest_rejects(manifest, match):
    with pytest.raises(ValueError, match=match):
        load_manifest(manifest)


def test_run_cell_ok_row():
    cell = BenchCell(GenSpec(family="star", n=50), "color-edges", 3, 2)
    row = run_cell(cell)
    assert row["status"] == "ok"
    assert (row["family"], row["n"], row["m"]) == ("star", 50, 49)
    assert row["alpha_known"] == 1
    assert float(row["wall_ms"]) >= 0.0


def test_run_cell_flags_infeasible_spec():
    cell = BenchCell(GenSpec(family="erdos-renyi", n=4, m=99), "naive", 0, 1)
    row = run_cell(cell)
    assert row["status"] == "error:InfeasibleSpecError"
    assert row["family"] == "erdos-renyi"
    assert row["n"] == ""  # generation failed before stats


def test_run_bench_parallel_matches_serial():
    manifest = {
        "entries": [
            {"spec": {"family": "star", "n": 30}, "algos": ["naive", "recursive"], "reps": 1},
            {"spec": {"family": "grid", "rows": 4, "cols": 4}, "reps": 1},
        ]
    }
    serial = run_bench(manifest, jobs=1)
    parallel = run_bench(manifest, jobs=2)

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    assert strip(serial) == strip(parallel)
    assert len(serial) == 3


def test_run_bench_clamps_jobs(monkeypatch):
    """Workers never outnumber cells or CPUs; no real process is started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(edgecolor.bench, "ProcessPoolExecutor", RecordingPool)
    manifest = {"entries": [{"spec": {"family": "star", "n": 6},
                             "algos": ["naive", "color-edges"], "reps": 1}]}
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    rows = run_bench(manifest, jobs=10**6)
    assert started == [2]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert len(run_bench(manifest, jobs=10**6)) == 2
    assert started == [2]  # one CPU, or an unknown count: the cells ran in process


def test_csv_header_is_pinned():
    fh = io.StringIO()
    write_csv([], fh)
    assert fh.getvalue() == (
        "family,n,m,max_degree,alpha_known,degeneracy,weight,algo,seed,wall_ms,status\n"
    )
    assert tuple(CSV_COLUMNS) == (
        "family", "n", "m", "max_degree", "alpha_known", "degeneracy",
        "weight", "algo", "seed", "wall_ms", "status",
    )


# -- command-line interface ----------------------------------------------------


def _generate(tmp_path, *extra):
    graph_path = tmp_path / "g.edges"
    rc = main(["generate", "--family", "star-plus-forests", "--n", "40",
               "--alpha", "2", "--seed", "7", "-o", str(graph_path), *extra])
    assert rc == 0
    return graph_path


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_generate_color_verify(tmp_path, capsys, algo):
    graph_path = _generate(tmp_path)
    rc = main(["color", str(graph_path), "--algo", algo, "--seed", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["algorithm"] == algo
    dump = graph_path.with_suffix(".colors")
    assert dump.exists()
    rc = main(["verify", str(graph_path), str(dump)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("proper")


def test_cli_verify_flags_tampered_dump(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    assert main(["color", str(graph_path), "--seed", "1"]) == 0
    capsys.readouterr()
    dump = graph_path.with_suffix(".colors")
    lines = dump.read_text().splitlines()
    # force two edges at vertex 0 onto one color
    e0, c0 = lines[0].split()
    lines[1] = f"{int(e0) + 1} {c0}"
    dump.write_text("\n".join(lines) + "\n")
    rc = main(["verify", str(graph_path), str(dump)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violation: vertex" in out
    assert out.strip().endswith("improper")


def test_cli_verify_rejects_bad_dump(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    dump = tmp_path / "bad.colors"
    dump.write_text("9999 1\n")
    rc = main(["verify", str(graph_path), str(dump)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_palette_flag(tmp_path, capsys):
    g = build_graph([(0, 1), (0, 2)], 3)
    graph_path = tmp_path / "p.edges"
    from edgecolor.graph import write_edge_list

    graph_path.write_text(write_edge_list(g))
    dump = tmp_path / "p.colors"
    dump.write_text("0 1\n1 2\n")
    assert main(["verify", str(graph_path), str(dump)]) == 0
    assert main(["verify", str(graph_path), str(dump), "--palette", "1"]) == 1
    out = capsys.readouterr().out
    assert "out-of-range" in out


def test_cli_color_missing_input(tmp_path, capsys):
    rc = main(["color", str(tmp_path / "nope.edges")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_seed_env(tmp_path, capsys, monkeypatch):
    graph_path = _generate(tmp_path)
    monkeypatch.setenv(SEED_ENV, "123")
    assert main(["color", str(graph_path)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123
    assert main(["color", str(graph_path), "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4
    monkeypatch.setenv(SEED_ENV, "pi")
    assert main(["color", str(graph_path)]) == 2
    assert SEED_ENV in capsys.readouterr().err


def test_cli_color_report_and_dump_paths(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    dump = tmp_path / "custom.colors"
    report_path = tmp_path / "report.json"
    rc = main(["color", str(graph_path), "--seed", "2",
               "--dump", str(dump), "--report", str(report_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert report_path.read_text() == stdout
    assert dump.exists() and not graph_path.with_suffix(".colors").exists()


def test_cli_color_determinism(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    dumps = []
    for name in ("a", "b"):
        dump = tmp_path / f"{name}.colors"
        assert main(["color", str(graph_path), "--seed", "11", "--dump", str(dump)]) == 0
        dumps.append(dump.read_bytes())
    capsys.readouterr()
    assert dumps[0] == dumps[1]


def test_cli_trace_files(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    dump = tmp_path / "t.colors"
    assert main(["color", str(graph_path), "--algo", "color-edges",
                 "--seed", "5", "--dump", str(dump), "--trace"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonl = tmp_path / "t.colors.trace.jsonl"
    lines = jsonl.read_text().splitlines()
    assert len(lines) == report["m"]
    first = json.loads(lines[0])
    assert set(first) == {"edge", "center", "fan_size", "path_length",
                          "missing_color", "elapsed_us"}

    assert main(["color", str(graph_path), "--algo", "recursive",
                 "--seed", "5", "--dump", str(dump), "--trace"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["level_stats"] and "violations" in report["level_stats"][0]
    assert not (tmp_path / "t.colors.trace.json").exists()


def test_cli_bench_csv(tmp_path, capsys):
    manifest = {
        "entries": [
            {"spec": {"family": "grid", "rows": 3, "cols": 3},
             "algos": ["naive", "color-edges"], "reps": 1},
        ]
    }
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(json.dumps(manifest))
    out_path = tmp_path / "rows.csv"
    assert main(["bench", str(manifest_path), "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_cli_bench_bad_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(json.dumps({"entries": [{"reps": 1}]}))
    assert main(["bench", str(manifest_path)]) == 2
    assert "missing 'spec'" in capsys.readouterr().err


def test_installed_script_runs():
    # The console script only exists after an install, so run the same entry
    # point in a fresh interpreter and check the script's wiring separately.
    src_dir = str(Path(edgecolor.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "edgecolor", "generate", "--family", "star", "--n", "5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "5 4"

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["edgecolor"]
    assert target == "edgecolor.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
