"""In-memory spans and counters, attached to the library from outside.

The benchmark never edits the library.  It replaces module-level names
that the library looks up at call time (``edgecolor.cli.read_edge_list``,
``edgecolor.sequential.make_primed_fan``, ...) and methods on
``PartialColoring`` with wrappers that record a span or bump a counter,
and puts the originals back afterwards.

A span is one row of five parallel arrays: name id, start and end
(``perf_counter_ns``), parent span index (-1 for a root) and run id.
Spans stay in memory until the run ends; :meth:`Tracer.write` then dumps
them.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path

import edgecolor.bench
import edgecolor.cli
import edgecolor.recursive
import edgecolor.sequential
from edgecolor.coloring import PartialColoring
from edgecolor.graph import edge_weight, graph_weight

_clock = time.perf_counter_ns


class Tracer:
    """Spans and counters of one in-process ``edgecolor color`` call."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    def spanned(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs outside it.

        ``name`` is a span name, or a function of the call's arguments
        that returns one.
        """
        fixed = None if callable(name) else self.name_id(name)
        names, starts, ends, parents, runs = self.name, self.start, self.end, self.parent, self.run
        stack, run_id, name_id = self.stack, self.run_id, self.name_id

        # open() and close() inlined: this runs once per span in the hot loop.
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(fixed if fixed is not None else name_id(name(args)))
            parents.append(stack[-1])
            runs.append(run_id)
            ends.append(0)
            stack.append(i)
            starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install_stages(self) -> None:
        """Spans around the stages of ``cmd_color``: about six per call."""
        for owner, attr, name in (
            (edgecolor.cli, "read_edge_list", "graph.read"),
            (edgecolor.cli, "run_coloring", "run_coloring"),
            (edgecolor.cli, "build_report", "report"),
            (edgecolor.bench, "graph_stats", "graph.stats"),
            (edgecolor.bench, "verify_colors", "coloring.verify"),
            (edgecolor.cli, "format_coloring", "coloring.dump"),
        ):
            self.patch(owner, attr, lambda fn, name=name: self.spanned(name, fn))

    def install_layers(self) -> None:
        """Spans and counters inside the colorers (traced runs only)."""
        counts = self.counts
        seq, rec = edgecolor.sequential, edgecolor.recursive

        def count(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def note_max(key, value):
            if value > counts[key]:
                counts[key] = value

        def colorer(fn):
            # Each step colors one uncolored edge, so the steps of this
            # call number chi.uncolored_count; weigh W/m of the graph the
            # steps run on by that count.
            def wrapper(g, chi, *args, **kwargs):
                if g.m:
                    counts["wm_steps"] += graph_weight(g) / g.m * chi.uncolored_count
                return fn(g, chi, *args, **kwargs)
            return wrapper

        def after_fan(args, fan):
            counts["fan.sum"] += fan.size
            note_max("fan.max", fan.size)

        def after_path(args, path):
            counts["path.sum"] += path.length
            note_max("path.max", path.length)

        def after_missing(args, color):
            chi, vertex = args[0], args[1]
            if 2 * chi.g.degree[vertex] > chi.k:
                counts["missing_color.pool"] += 1

        def after_node(args, chi):
            note_max("depth", args[5])

        def after_prune(args, chi):
            g = args[0]
            pruned = sum(edge_weight(g, e) for e in chi.uncolored)
            bound = 3 * graph_weight(g) / (g.max_degree + 4)
            note_max("pruned_weight_over_bound", pruned / bound)

        def base_or_repair(args):
            chi = args[1]
            if chi.uncolored_count == chi.g.m:
                return "recursive.base"
            counts["repair.steps"] += chi.uncolored_count
            return "recursive.repair"

        self.patch(PartialColoring, "__init__", lambda fn: self.spanned("coloring.init", fn))
        self.patch(PartialColoring, "assign", lambda fn: count("assign.calls", fn))
        self.patch(PartialColoring, "random_missing_color",
                   lambda fn: self.spanned("coloring.missing_color", fn, after_missing))
        for attr in ("color_edges", "color_edges_deterministic"):
            self.patch(edgecolor.bench, attr, colorer)
        self.patch(seq, "color_one_edge", lambda fn: self.spanned("sequential.step", fn))
        self.patch(seq, "color_one_edge_deterministic",
                   lambda fn: self.spanned("sequential.step", fn))
        self.patch(seq, "make_primed_fan", lambda fn: self.spanned("fanpath.fan", fn, after_fan))
        self.patch(seq, "maximal_alternating_path",
                   lambda fn: self.spanned("fanpath.path", fn, after_path))
        self.patch(seq, "extend_coloring", lambda fn: self.spanned("fanpath.extend", fn))
        self.patch(rec, "_recurse", lambda fn: self.spanned("recursive.node", fn, after_node))
        self.patch(rec, "euler_partition", lambda fn: self.spanned("recursive.split", fn))
        self.patch(rec, "build_graph", lambda fn: self.spanned("graph.build", fn))
        self.patch(rec, "merge_colorings", lambda fn: self.spanned("recursive.merge", fn))
        self.patch(rec, "prune_min_weight_colors",
                   lambda fn: self.spanned("recursive.prune", fn, after_prune))
        self.patch(rec, "color_edges",
                   lambda fn: colorer(self.spanned(base_or_repair, fn)))

    # -- aggregation --------------------------------------------------------

    def durations(self, name: str) -> list[int]:
        """Inclusive durations in ns of every span with this name."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        start, end = self.start, self.end
        return [end[i] - start[i] for i, n in enumerate(self.name) if n == nid]

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: inclusive ns, self ns and span count."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        incl: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i in range(len(start)):
            key = self.names[name[i]]
            d = end[i] - start[i]
            incl[key] += d
            own[key] += d - child[i]
            calls[key] += 1
        return incl, own, calls

    def write(self, path: Path) -> None:
        """Dump every span as gzipped TSV: index, name, start, end, parent, run."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\trun\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{s}\t{e}\t{p}\t{r}\n"
                for i, (n, s, e, p, r) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.run)
                )
            )
