"""Tests of the benchmark itself, on graphs small enough to run in seconds.

Run from the repository root:

    python3 -m pytest -q edgebench/test_run.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run  # first: it puts src/ on sys.path

import edgecolor.cli  # noqa: E402
from edgecolor.generators import GenSpec  # noqa: E402
from edgecolor.graph import graph_weight  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = dict(family="star-plus-forests", n=64, alpha=2)


@pytest.fixture()
def loop(tmp_path):
    g = run.Setup(GenSpec(seed=3, **TINY), tmp_path / "graph.txt").rep()
    return run.Loop(g, tmp_path, seed=3)


def test_clean_calls_pass_their_check_and_restore_the_library(loop):
    original = edgecolor.cli.read_edge_list
    for algo in run.ALGOS:
        tracer = loop.call(algo, layers=True)
        assert tracer is not None, loop.failures
    assert loop.attempted == 3 and loop.failures == []
    assert edgecolor.cli.read_edge_list is original


def _corrupt_dump(chi):
    return "".join(f"{e} 1\n" for e in range(chi.g.m))


def _raise(*args, **kwargs):
    raise RuntimeError("colorer crashed")


@pytest.mark.parametrize("attr, fake", [("format_coloring", _corrupt_dump),
                                        ("run_coloring", _raise)])
def test_a_bad_run_is_counted_as_failed(loop, monkeypatch, attr, fake):
    # A dump with every edge on color 1 passes the CLI's own report (which
    # checks the in-memory coloring) but not the benchmark's re-check.
    monkeypatch.setattr(edgecolor.cli, attr, fake)
    assert loop.call("color-edges", layers=False) is None
    assert loop.attempted == 1 and len(loop.failures) == 1


def test_traced_counts_repeat_and_match_the_graph(loop):
    g = loop.g
    for algo in run.ALGOS:
        first = run.layer_metrics(loop.call(algo, layers=True))[1]
        second = run.layer_metrics(loop.call(algo, layers=True))[1]
        assert first == second
        assert first["sequential.steps"] == g.m + first["recursive.repair.steps"]
    tracer = loop.call("color-edges", layers=True)
    counts = run.layer_metrics(tracer)[1]
    assert counts["coloring.missing_color.calls"] == g.m
    assert tracer.counts["wm_steps"] == pytest.approx(graph_weight(g))


def test_self_time_subtracts_child_spans():
    t = Tracer(0)
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    incl, own, calls = t.totals()
    assert own["outer"] == incl["outer"] - incl["inner"]
    assert own["inner"] == incl["inner"]
    assert calls == {"outer": 1, "inner": 1}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_exactly_the_declared_metrics(tmp_path, monkeypatch, trace, key):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SLICE_NS", 0)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = json.loads((tmp_path / f"tiny-seed1-trace{trace}" / "record.json").read_text())
    assert len(record["setup_ns"]) >= 2  # set-up reps also run between rounds
