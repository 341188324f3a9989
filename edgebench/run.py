"""Benchmark of the ``edgecolor color`` command, end to end and per layer.

Usage, from the repository root:

    python3 edgebench/run.py --workload hub --seed 1 --seconds 58 --trace 0

The workload graph is generated from ``--seed`` and written as an
edge-list file (set-up).  Then one caller runs a closed loop, in this one
process and thread: for each of ``naive``, ``color-edges`` and
``recursive`` it calls ``edgecolor.cli.main(["color", FILE, ...])``, checks
the output, and starts the next call only when the previous one ended.
Rounds over the three algorithms repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics; only the stage calls of the
CLI are wrapped.  ``--trace 1`` runs each algorithm once untraced and once
with every layer wrapped, and reports per-layer metrics.  The last line
of standard output is one JSON object; a run record and the spans go to
``.bench_out/`` in the repository root.  See ``edgebench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import edgecolor  # noqa: E402
import edgecolor.cli  # noqa: E402
from edgecolor.coloring import parse_coloring, verify_colors  # noqa: E402
from edgecolor.generators import GenSpec, generate  # noqa: E402
from edgecolor.graph import Graph, graph_weight, write_edge_list  # noqa: E402

from spans import Tracer  # noqa: E402

ALGOS = ("naive", "color-edges", "recursive")

# Why each workload exists is written out in edgebench/README.md.
WORKLOADS = {
    "hub": dict(family="star-plus-forests", n=2**11, alpha=2),
    "flat": dict(family="erdos-renyi", n=3_000, m=15_000),
}

SLICE_NS = 1_000_000_000
OUT_DIR = ROOT / ".bench_out"

_clock = time.perf_counter_ns


def workload_spec(name: str, seed: int) -> GenSpec:
    return GenSpec(seed=seed, **WORKLOADS[name])


# -- one checked CLI call ------------------------------------------------------


def check_output(g: Graph, code, stdout: str, dump_path: Path) -> str | None:
    """Why a finished ``edgecolor color`` call failed, or None if it did not.

    Requires exit code 0 and ``ok: true`` in the report, then re-reads
    the dump and verifies it against the input graph with palette
    ``max_degree + 1``.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("ok") is not True:
        return "report says ok: false"
    try:
        colors = parse_coloring(dump_path.read_text(), g.m)
    except (ValueError, OSError) as exc:
        return f"dump unreadable: {exc}"
    verdict = verify_colors(g, colors, g.max_degree + 1)
    if not verdict.proper or verdict.uncolored:
        return (f"dump fails re-check: {len(verdict.violations)} violations, "
                f"{verdict.uncolored} uncolored")
    return None


def run_call(g: Graph, graph_path: Path, dump_path: Path, algo: str, seed: int,
             tracer: Tracer, layers: bool) -> str | None:
    """One in-process ``edgecolor color`` call under ``tracer``, then its check.

    The whole call is the root span ``cli``.  Returns the failure reason,
    or None when the call succeeded and its output checks out.
    """
    argv = ["color", str(graph_path), "--algo", algo, "--seed", str(seed),
            "--dump", str(dump_path)]
    out = io.StringIO()
    gc.collect()
    try:
        tracer.install_stages()
        if layers:
            tracer.install_layers()
        with contextlib.redirect_stdout(out):
            root = tracer.open("cli")
            try:
                code = edgecolor.cli.main(argv)
            finally:
                tracer.close(root)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a failed run is counted, the loop goes on
        return traceback.format_exc()
    finally:
        tracer.restore()
    return check_output(g, code, out.getvalue(), dump_path)


# -- metrics ----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times and work counts of one traced call.

    Times are self times (span minus child spans), except for spans
    without traced children, where both agree, and for the recursive base
    and repair phases, which are whole ``color_edges`` calls.
    """
    incl, own, calls = tracer.totals()
    c = tracer.counts
    steps = calls["sequential.step"]
    missing = calls["coloring.missing_color"]
    s = 1e-9
    times = {
        "graph.read_s": incl["graph.read"] * s,
        "graph.stats_s": incl["graph.stats"] * s,
        "graph.build_s": incl["graph.build"] * s,
        "coloring.init_s": incl["coloring.init"] * s,
        "coloring.missing_color_s": incl["coloring.missing_color"] * s,
        "coloring.verify_s": incl["coloring.verify"] * s,
        "coloring.dump_s": incl["coloring.dump"] * s,
        "fanpath.fan_s": own["fanpath.fan"] * s,
        "fanpath.path_s": own["fanpath.path"] * s,
        "fanpath.extend_s": own["fanpath.extend"] * s,
        "sequential.step_s": own["sequential.step"] * s,
        "recursive.split_s": own["recursive.split"] * s,
        "recursive.merge_s": own["recursive.merge"] * s,
        "recursive.prune_s": own["recursive.prune"] * s,
        "recursive.base_s": incl["recursive.base"] * s,
        "recursive.repair_s": incl["recursive.repair"] * s,
        "cli.other_s": own["cli"] * s,
    }
    counts = {
        "graph.build.calls": calls["graph.build"],
        "coloring.init.calls": calls["coloring.init"],
        "coloring.assign.calls": c["assign.calls"],
        "coloring.missing_color.calls": missing,
        "coloring.missing_color.pool_frac": c["missing_color.pool"] / missing if missing else 0.0,
        "fanpath.fan_size.sum": c["fan.sum"],
        "fanpath.fan_size.mean": c["fan.sum"] / steps if steps else 0.0,
        "fanpath.fan_size.max": c["fan.max"],
        "fanpath.path_length.sum": c["path.sum"],
        "fanpath.path_length.mean": c["path.sum"] / steps if steps else 0.0,
        "fanpath.path_length.max": c["path.max"],
        "sequential.steps": steps,
        "sequential.work_over_wm": (
            (c["fan.sum"] + c["path.sum"]) / c["wm_steps"] if c["wm_steps"] else 0.0
        ),
        "recursive.nodes": calls["recursive.node"],
        "recursive.depth": c["depth"],
        "recursive.repair.steps": c["repair.steps"],
        "recursive.pruned_weight_over_bound": c["pruned_weight_over_bound"],
    }
    return times, counts


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".step_us." in name:
        return "us"
    if name.endswith(("_frac", "_over_wm", "_over_bound", "_ratio")):
        return "ratio"
    return "count"


# -- the run ----------------------------------------------------------------------


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Setup:
    """Set-up reps: generate the workload graph and write its edge list.

    The first rep runs before the loop; one more runs between rounds, so
    set-up reps are spread over the whole run like the calls.  Every rep
    must write the same file.
    """

    def __init__(self, spec: GenSpec, graph_path: Path):
        self.spec = spec
        self.graph_path = graph_path
        self.generate_ns: list[int] = []
        self.setup_ns: list[int] = []
        self.text: str | None = None

    def rep(self) -> Graph:
        gc.collect()
        t0 = _clock()
        g = generate(self.spec)
        t1 = _clock()
        text = write_edge_list(g)
        self.graph_path.write_text(text)
        t2 = _clock()
        self.generate_ns.append(t1 - t0)
        self.setup_ns.append(t2 - t0)
        if self.text is None:
            self.text = text
        elif text != self.text:
            raise RuntimeError("the generator gave two graphs for one seed")
        return g


class Loop:
    """Closed-loop rounds over the algorithms, with failures counted."""

    def __init__(self, g: Graph, work: Path, seed: int):
        self.g = g
        self.graph_path = work / "graph.txt"
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []
        self.run_id = 0

    def call(self, algo: str, layers: bool) -> Tracer | None:
        """One checked call; its tracer, or None when it failed."""
        tracer = Tracer(self.run_id)
        self.run_id += 1
        self.attempted += 1
        dump = self.work / f"{algo}.colors"
        error = run_call(self.g, self.graph_path, dump, algo, self.seed, tracer, layers)
        if error is not None:
            self.failures.append({"algo": algo, "run": tracer.run_id, "error": error})
            return None
        return tracer


def schedule(deadline: int, setup: Setup):
    """Algorithms in closed-loop rounds until the deadline.

    The first round always completes, so every algorithm runs at least
    once; after that no call starts past the deadline.  A set-up rep
    runs between rounds.
    """
    first = True
    while True:
        for algo in ALGOS:
            if not first and _clock() >= deadline:
                return
            yield algo
        first = False
        if _clock() < deadline:
            setup.rep()


def measure_end_to_end(loop: Loop, setup: Setup, deadline: int) -> tuple[dict, dict]:
    """Untraced rounds until the deadline: e2e and colorer times per algorithm."""
    samples = {a: {"e2e_ns": [], "run_coloring_ns": [], "stages_ns": []} for a in ALGOS}
    for algo in schedule(deadline, setup):
        # Repeat fast calls within a round so that every algorithm gets
        # at least SLICE_NS of calls, spread over the whole run.
        spent = 0
        while True:
            tracer = loop.call(algo, layers=False)
            if tracer is None:
                break
            incl, _, _ = tracer.totals()
            spent += incl["cli"]
            samples[algo]["e2e_ns"].append(incl["cli"])
            samples[algo]["run_coloring_ns"].append(incl["run_coloring"])
            samples[algo]["stages_ns"].append(dict(incl))
            if spent >= SLICE_NS:
                break
    # Means over the run, not medians: the machine's speed switches
    # between a fast and a slow level for seconds at a time, and the
    # median of a run jumps with whichever level held for most of it,
    # while the mean moves in proportion (edgebench/README.md).
    m = loop.g.m
    metrics, counts = {}, {}
    for algo in ALGOS:
        e2e = samples[algo]["e2e_ns"]
        color = samples[algo]["run_coloring_ns"]
        metrics[f"{algo}.e2e_s"] = (sum(e2e) / len(e2e) * 1e-9 if e2e else 0.0, "s")
        edges_per_s = m * len(color) / (sum(color) * 1e-9) if color else 0.0
        metrics[f"{algo}.edges_per_s"] = (edges_per_s, "edges/s")
        counts[f"{algo}.e2e_s"] = len(e2e)
        counts[f"{algo}.edges_per_s"] = len(color)
    return metrics, {"samples": counts, "raw": samples}


def measure_layers(loop: Loop, setup: Setup, deadline: int, out: Path) -> tuple[dict, dict]:
    """Rounds of one untraced and one traced call per algorithm.

    Times are medians over rounds; work counts come from the first round
    and must repeat exactly in every later round.  Step latencies pool
    the step spans of all rounds.  The first round's spans are written.
    """
    rounds = {a: {"times": [], "counts": [], "untraced_ns": [], "traced_ns": []} for a in ALGOS}
    step_us = {a: [] for a in ALGOS}
    mismatches = []
    first_tracers = {}
    for algo in schedule(deadline, setup):
        plain = loop.call(algo, layers=False)
        traced = loop.call(algo, layers=True)
        if plain is None or traced is None:
            continue
        times, counts = layer_metrics(traced)
        r = rounds[algo]
        if r["counts"] and counts != r["counts"][0]:
            mismatches.append({"algo": algo, "round": len(r["counts"]), "counts": counts})
        r["times"].append(times)
        r["counts"].append(counts)
        r["untraced_ns"].append(plain.durations("run_coloring")[0])
        r["traced_ns"].append(traced.durations("run_coloring")[0])
        step_us[algo].extend(d / 1000 for d in traced.durations("sequential.step"))
        first_tracers.setdefault(algo, traced)
    for algo, tracer in first_tracers.items():
        tracer.write(out / f"spans-{algo}.tsv.gz")

    metrics, samples = {}, {}
    for algo in ALGOS:
        r = rounds[algo]
        n = len(r["times"])
        for key in r["times"][0] if n else ():
            metrics[f"{algo}.{key}"] = median([t[key] for t in r["times"]])
            samples[f"{algo}.{key}"] = n
        for key, value in (r["counts"][0] if n else {}).items():
            metrics[f"{algo}.{key}"] = value
            samples[f"{algo}.{key}"] = n
        lat = sorted(step_us[algo])
        for label, q in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999)):
            metrics[f"{algo}.sequential.step_us.{label}"] = percentile(lat, q)
            samples[f"{algo}.sequential.step_us.{label}"] = len(lat)
        ratio = median(r["traced_ns"]) / median(r["untraced_ns"]) if n else 0.0
        metrics[f"{algo}.trace.overhead_ratio"] = ratio
        samples[f"{algo}.trace.overhead_ratio"] = n
    return ({k: (v, unit_of(k)) for k, v in metrics.items()},
            {"samples": samples, "count_mismatches": mismatches,
             "counts": {a: rounds[a]["counts"][:1] for a in ALGOS}})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(edgecolor.__file__).resolve().parents:
        print(f"edgecolor was imported from {edgecolor.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    started = time.time()

    spec = workload_spec(args.workload, args.seed)
    setup = Setup(spec, work / "graph.txt")
    g = setup.rep()
    loop = Loop(g, work, args.seed)
    deadline = _clock() + int(args.seconds * 1e9)
    if args.trace:
        metrics, detail = measure_layers(loop, setup, deadline, out)
        metrics["generators.generate_s"] = (median(setup.generate_ns) * 1e-9, "s")
        detail["samples"]["generators.generate_s"] = len(setup.generate_ns)
        metrics["failed_frac"] = (len(loop.failures) / loop.attempted, "ratio")
        detail["samples"]["failed_frac"] = loop.attempted
        consistent = not detail["count_mismatches"]
    else:
        metrics, detail = measure_end_to_end(loop, setup, deadline)
        metrics["setup_s"] = (median(setup.setup_ns) * 1e-9, "s")
        detail["samples"]["setup_s"] = len(setup.setup_ns)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
        detail["samples"]["peak_rss_mb"] = 1
        consistent = True
    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    failed = len(loop.failures)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": spec.to_dict(),
        "graph": {"n": g.n, "m": g.m, "max_degree": g.max_degree,
                  "weight_per_edge": graph_weight(g) / g.m if g.m else 0.0},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(),
        "started_unix": started,
        "setup_ns": setup.setup_ns,
        "generate_ns": setup.generate_ns,
        "failures": loop.failures,
        "result": result,
        **detail,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    samples = detail["samples"]
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:>16.6g} {unit:8s} n={samples[name]}")
    print(f"record: {out / 'record.json'}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
