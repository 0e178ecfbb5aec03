"""Run the benchmark over several seeds and report how much each metric spreads.

Run from the repository root::

    python3 perfbench/spread.py --workloads small-lp-stream --seeds 1-10 --out a.json
    python3 perfbench/spread.py --workloads small-lp-stream --seeds 11-20 --compare a.json

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  ``--compare`` adds how far the
median moved, in the metric's worse direction, from an earlier ``--out``
file.  It also checks that the deterministic counters repeat exactly.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    values: dict = {}
    ok = True
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        counts = set()
        for seed in args.seeds:
            report, result = run_once(workload, seed, bench["run_seconds"])
            counts.add(json.dumps(report["counts"], sort_keys=True))
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} failed {report['failures'][:3]}")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        values[workload] = per_metric
        print(f"\n{workload}: counters {'repeat exactly' if len(counts) == 1 else 'DIFFER'}")
        ok &= len(counts) == 1
        print(f"{'metric':18} {'median':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for name, series in per_metric.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            moved, notes = "", []
            if name != "setup_s" and spread > bound / 3:
                notes.append("spread above bound/3")
                ok &= spread <= bound
            before = earlier.get(workload, {}).get(name)
            if before:
                old = statistics.median(before)
                sign = 1 if bounds[name]["better"] == "lower" else -1
                worse = sign * (median - old) / old
                moved = f"{worse:8.3f}"
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
                    ok = False
            print(f"{name:18} {median:12.6g} {spread:8.3f} {bound:6.2f} {moved:>8}  {' '.join(notes)}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
