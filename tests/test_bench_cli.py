"""Timed runs, their reports and the command-line interface, end to end."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecolor
from _util import graphs
from edgecolor.bench import ALGORITHMS, build_report, run_coloring
from edgecolor.cli import main
from edgecolor.coloring import validate_structures, verify_colors, verify_proper
from edgecolor.generators import gen_star_plus_forests
from edgecolor.graph import build_graph, write_edge_list


@pytest.fixture()
def small_graph():
    return gen_star_plus_forests(60, 2, seed=3)


def test_run_coloring_all_algorithms(small_graph):
    g = small_graph
    for algo in ALGORITHMS:
        result = run_coloring(g, algo, seed=5)
        assert result.algorithm == algo and result.seed == 5
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
    for algo in ("naive", "color-edges"):
        seq = run_coloring(g, algo, seed=1, trace=True)
        assert seq.step_summary["calls"] == g.m and seq.level_stats is None
        assert run_coloring(g, algo, seed=1).step_summary is None
    rec = run_coloring(g, "recursive", seed=1, trace=True)
    assert rec.level_stats is not None and rec.step_summary is None
    assert all(level["violations"] == [] for level in rec.level_stats)


def test_run_coloring_rejects_bad_arguments(small_graph):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_coloring(small_graph, "greedy", seed=0)


def test_report_determinism_modulo_timing(small_graph):
    g = small_graph
    dicts = []
    for _ in range(2):
        result = run_coloring(g, "color-edges", seed=9, trace=True)
        d = build_report(g, result, {"path": "x"})
        d.pop("wall_us")
        dicts.append(d)
    assert dicts[0] == dicts[1]
    assert dicts[0]["ok"] and dicts[0]["proper"]
    assert dicts[0]["schema_version"] == 1
    assert dicts[0]["seed"] == 9
    assert dicts[0]["step_summary"]["calls"] == g.m


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


def test_cli_verify_rejects_a_negative_palette(tmp_path, capsys):
    graph_path = tmp_path / "p.edges"
    dump = tmp_path / "p.colors"
    for g, text in ((build_graph([], 2), ""), (build_graph([(0, 1), (0, 2)], 3), "0 1\n1 2\n")):
        graph_path.write_text(write_edge_list(g))
        dump.write_text(text)
        assert main(["verify", str(graph_path), str(dump), "--palette", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --palette must be non-negative, got -3\n"
    # An empty palette is still a palette: it passes only an edgeless graph.
    graph_path.write_text(write_edge_list(build_graph([], 2)))
    dump.write_text("")
    assert main(["verify", str(graph_path), str(dump), "--palette", "0"]) == 0


def test_cli_color_missing_input(tmp_path, capsys):
    rc = main(["color", str(tmp_path / "nope.edges")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_seed_comes_from_the_flag_only(tmp_path, capsys, monkeypatch):
    graph_path = _generate(tmp_path)
    monkeypatch.setenv("EDGECOLOR_SEED", "123")
    assert main(["color", str(graph_path)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert main(["color", str(graph_path), "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["color", str(graph_path), "--algo", "recursive-size-prune-ablation"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_color_refuses_to_overwrite_its_input(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    text = graph_path.read_text()
    colors_input = tmp_path / "g.colors"  # its default dump path is itself
    colors_input.write_text(text)
    link = tmp_path / "link.edges"
    link.symlink_to(graph_path)
    other = str(tmp_path / "d.colors")
    for argv in (
        [str(colors_input)],
        [str(graph_path), "--dump", str(graph_path)],
        [str(graph_path), "--dump", str(link)],
        [str(graph_path), "--dump", other, "--report", str(graph_path)],
    ):
        assert main(["color", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: output path \S+ would overwrite the input file\n",
                            captured.err)
        assert Path(argv[0]).read_text() == text
    assert not list(tmp_path.glob("d.colors*"))


def test_cli_color_refuses_outputs_that_name_one_file(tmp_path, capsys):
    graph_path = _generate(tmp_path)
    out = tmp_path / "out"
    kept = tmp_path / "kept.colors"
    kept.write_text("kept\n")
    hard = tmp_path / "hard.json"
    os.link(kept, hard)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(out)  # resolves to a dump that does not exist yet
    for argv, clash in (
        (["--dump", str(out), "--report", str(out)], "the dump"),
        (["--dump", str(out), "--report", str(dangling)], "the dump"),
        (["--dump", str(kept), "--report", str(hard)], "the dump"),
    ):
        assert main(["color", str(graph_path), *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: output path \S+ would overwrite {clash}\n", captured.err)
        assert not out.exists()
        assert kept.read_text() == "kept\n"


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


def test_cli_color_names_the_line_of_undecodable_bytes(tmp_path, capsys):
    graph_path = tmp_path / "latin1.edges"
    graph_path.write_bytes(b"3 2\n0 1\n# caf\xe9\n1 2\n")
    assert main(["color", str(graph_path)]) == 2
    assert capsys.readouterr().err == "error: line 3: not valid UTF-8\n"
    graph_path.write_bytes("3 2\n0 1\n# caf\u00e9\n1 2\n".encode())
    assert main(["color", str(graph_path), "--dump", str(tmp_path / "d.colors")]) == 0
    dump = tmp_path / "bad.colors"
    dump.write_bytes(b"0 1\n1 \xff\n")
    assert main(["verify", str(graph_path), str(dump)]) == 2
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8\n"


def test_cli_has_no_bench_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "x.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


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
    # --trace only adds to the report: it writes no file of its own.
    graph_path = _generate(tmp_path)
    dump = tmp_path / "t.colors"
    for algo in ("naive", "color-edges"):
        assert main(["color", str(graph_path), "--algo", algo,
                     "--seed", "5", "--dump", str(dump), "--trace"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["step_summary"]["calls"] == report["m"], algo
        assert report["step_summary"]["mean_fan_size"] >= 1, algo

    assert main(["color", str(graph_path), "--algo", "recursive",
                 "--seed", "5", "--dump", str(dump), "--trace"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["level_stats"] and "violations" in report["level_stats"][0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "t.colors"]


# sha256 of `edgecolor color` stdout (wall_us zeroed) and of the coloring
# dump, on star-plus-forests n=300, alpha=2, seed 5, colorer seed 1.  The
# dump digest is one per algorithm: --trace leaves the dump unchanged.
REPORT_DIGESTS = {
    ("naive", False): (
        "2135930f71d6d308f8cee13d49437002752b9e05d559ba994eaf94488f24febe",
        "47be8d85a962e52b7b4ce41e14e74d0a43608b3e5f717068e943bcebb21aea67",
    ),
    ("naive", True): (
        "094c0b1eb1b25bb625ef95989ac1f28985a14dac84c548693cd46a1f154b462e",
        "47be8d85a962e52b7b4ce41e14e74d0a43608b3e5f717068e943bcebb21aea67",
    ),
    ("color-edges", False): (
        "b43c3cef3355407feecd5663f28a4af05e8eaec8827849cffa027b6951e0398e",
        "bd144108382368c819211cdae700a69fc95647847cc2fa999f07ab2d4312c102",
    ),
    ("color-edges", True): (
        "eb3a9fd434e95a7d07235602b9f7d9cc575c8929ae1232e961ca11177fdb6116",
        "bd144108382368c819211cdae700a69fc95647847cc2fa999f07ab2d4312c102",
    ),
    ("recursive", False): (
        "9d84d4acc10b8ddadf6e460f88f2a1e5e7dfcca5d429e8fb320237b7d15dbc33",
        "1030be547bd6b12df95395ea69966e9a68d3da0649dbd3079079206d28c7bda7",
    ),
    ("recursive", True): (
        "4990058bd5335e90283ba8802a986e6af1a12bacecd0b7c287c38eb6fa8ce73d",
        "1030be547bd6b12df95395ea69966e9a68d3da0649dbd3079079206d28c7bda7",
    ),
}


def test_cli_report_and_trace_bytes_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the input by this relative path
    assert main(["generate", "--family", "star-plus-forests", "--n", "300",
                 "--alpha", "2", "--seed", "5", "-o", "g.edges"]) == 0
    got = {}
    for algo, traced in REPORT_DIGESTS:
        argv = ["color", "g.edges", "--algo", algo, "--seed", "1"]
        assert main(argv + ["--trace"] * traced) == 0
        out = re.sub(r'"wall_us": \d+', '"wall_us": 0', capsys.readouterr().out)
        if (algo, traced) == ("naive", True):
            report = json.loads(out)
            assert report["step_summary"]["calls"] == report["m"]
        dump = (tmp_path / "g.colors").read_bytes()
        got[algo, traced] = tuple(hashlib.sha256(b).hexdigest() for b in (out.encode(), dump))
    assert got == REPORT_DIGESTS


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
