"""Record the benchmark's numbers for one change as ``BENCH_<pr>.json``.

Usage, from the repository root:

    python3 tools/bench_record.py --pr 26
    python3 tools/bench_record.py --pr 26 --baseline ../parent

The first form runs ``edgebench/run.py`` on every workload of
``BENCHMARK.json`` (``hub`` and ``flat``) at seed 1 for the benchmark's
``run_seconds``, ten times untraced and once traced, and writes
``BENCH_<pr>.json``: the commit, the median of each end-to-end metric and
the traced run's work counts per workload.  It then prints each
end-to-end median's ratio to the newest earlier ``BENCH_*.json``; that is
a report, not a gate.

With ``--baseline <checkout>`` each untraced run of this checkout is
paired with one of the baseline checkout, the baseline first in even
pairs, and each pair is printed as it ends.  The pairs and the baseline's
commit are kept in the file too.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
E2E = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SEED = 1
SECONDS = float(BENCHMARK["run_seconds"])
RUNS = 10  # untraced runs per workload, or pairs with --baseline


def run(checkout: Path, workload: str, trace: int) -> dict:
    """One ``edgebench/run.py`` run in ``checkout``: its result line and commit."""
    cmd = [sys.executable, "edgebench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} trace {trace} failed: {result}")
    record = checkout / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}" / "record.json"
    values = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    return {"values": values, "units": units,
            "commit": json.loads(record.read_text())["git_commit"]}


def better(name: str, new: float, old: float) -> bool:
    return new < old if E2E[name] == "lower" else new > old


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in E2E if name in runs[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--baseline", type=Path, help="checkout to pair each run with")
    args = p.parse_args(argv)

    bench = {"pr": args.pr, "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        mine: list[dict] = []
        pairs = []
        base_commit = None
        for i in range(RUNS):
            if args.baseline is None:
                mine.append(run(ROOT, workload, 0)["values"])
                continue
            sides = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
            got = {side: run(ROOT if side == "change" else args.baseline, workload, 0)
                   for side in sides}
            base_commit = got["baseline"]["commit"]
            got = {side: r["values"] for side, r in got.items()}
            mine.append(got["change"])
            pairs.append(got)
            print(f"{workload} pair {i + 1}/{RUNS}", flush=True)
            for name in E2E:
                old, new = got["baseline"][name], got["change"][name]
                print(f"  {name:26s} {old:12.6g} {new:12.6g}  ratio {new / old:.3f}",
                      flush=True)
        traced = run(ROOT, workload, 1)
        bench["commit"] = traced["commit"]
        entry = {
            "e2e_median": medians(mine),
            "e2e_runs": len(mine),
            "work": {k: v for k, v in sorted(traced["values"].items())
                     if traced["units"][k] == "count"},
        }
        if pairs:
            entry["baseline"] = {"commit": base_commit, "pairs": pairs}
            base = medians([pair["baseline"] for pair in pairs])
            print(f"{workload}: median over {len(pairs)} pairs, baseline -> change")
            for name, new in entry["e2e_median"].items():
                wins = sum(better(name, pair["change"][name], pair["baseline"][name])
                           for pair in pairs)
                print(f"  {name:26s} {base[name]:12.6g} {new:12.6g}  "
                      f"ratio {new / base[name]:.3f}  better in {wins}/{len(pairs)}")
        bench["workloads"][workload] = entry

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    numbered = {int(f.stem[6:]): f for f in ROOT.glob("BENCH_*.json") if f.stem[6:].isdigit()}
    earlier = [pr for pr in numbered if pr < args.pr]
    if earlier:
        prev_path = numbered[max(earlier)]
        prev = json.loads(prev_path.read_text())
        print(f"ratios to {prev_path.name} (a report, not a gate):")
        for workload, entry in bench["workloads"].items():
            old = prev["workloads"].get(workload, {}).get("e2e_median", {})
            for name, new in entry["e2e_median"].items():
                if old.get(name):
                    print(f"  {workload:6s} {name:26s} {new / old[name]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
