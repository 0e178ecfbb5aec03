"""boxcert benchmark: one workload per process, its result on the last line.

Run from the repository root::

    python3 perfbench/run.py --workload small-lp-stream --seed 1 --seconds 25 --trace 0

A run

1. times the set-up (import boxcert and build the vertex tables the
   workload uses) in ``SETUP_REPS`` fresh interpreters and keeps the median;
2. runs the workload's seeded requests one at a time until the next one
   would end after ``--seconds`` (at least one request), with no spans,
   moving before each request to the CPU where a probe loop runs fastest;
3. sums the deterministic counters over a fixed reference prefix: the
   first requests of seed ``REFERENCE_SEED``, taken from step 2 when the
   inputs are the same and run once more otherwise;
4. with ``--trace 1``, installs span wrappers and replays the reference
   prefix, checks that outputs and counters equal the untraced ones, and
   reports per-layer self times and the tracing overhead.

Every request checks its outputs against references computed outside the
solver.  The line before the last is a full report (environment, sample
counts, counters, failures); the last line is the JSON result with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5
PROBE_LOOPS = 10_000  # under a millisecond of pure-Python work
CPUS = sorted(os.sched_getaffinity(0))[:4]  # the CPUs a run may move between
REQUEST_FIELDS = ("wall_s", "verdict_ms", "farkas_s", "witness_s", "emit_s", "verify_s")

SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
start = perf_counter()
import boxcert
import boxcert.cli
from boxcert import vertices
for name in sys.argv[2:]:
    getattr(vertices, name)()
print(perf_counter() - start)
"""


def load_boxcert() -> None:
    """Import boxcert from this checkout's ``src``, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import boxcert
        import boxcert.cli  # noqa: F401  (loaded before wrappers are installed)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import boxcert from {SRC}: {exc}")
    if Path(boxcert.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: boxcert was imported from {boxcert.__file__}, not {SRC}")


load_boxcert()
from instrument import COUNT_TARGETS, SELF_TIME_METRICS, TARGETS, Counts, Instrument  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Context, ItemResult  # noqa: E402


def host_probe() -> float:
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return perf_counter() - start


def move_to_quiet_cpu() -> None:
    """Pin this process to the CPU on which a probe loop runs fastest.

    Other machines on the host load its cores unevenly, and the load moves
    from core to core within seconds: the same loop runs up to 1.5x slower
    on one CPU than on the other.  Choosing again before every request keeps
    the run on the quieter CPU.  Only this process's affinity changes.
    """
    if len(CPUS) < 2:
        return
    probes = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = host_probe()
    os.sched_setaffinity(0, {min(probes, key=probes.get)})


def measure_setup(tables) -> list[float]:
    samples = []
    for _ in range(SETUP_REPS):
        move_to_quiet_cpu()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *tables],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Runs a workload's requests one at a time, each as a numbered request."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.next_request = 1  # request 0 is the traced set-up

    def request(self, stream, index: int):
        move_to_quiet_cpu()
        inst = self.ctx.inst
        counts = inst.begin(self.next_request)
        self.next_request += 1
        start = perf_counter()
        try:
            res = self.workload.run_item(stream, index, self.ctx)
        except Exception as exc:  # a crash fails the request's operations; the run goes on
            traceback.print_exc(file=sys.stderr)
            ops = self.workload.ops_per_item
            res = ItemResult(ops=ops, failures=[f"crash: {exc!r}"] * ops, crashed=True)
        finally:
            wall = perf_counter() - start
            inst.end()
        counts.cert_bytes = res.cert_bytes
        res.counts, res.wall_s = counts, wall
        return res

    def timed(self, seed: int, seconds: float):
        """Requests until the next one would end after ``seconds``; at least one."""
        stream = self.workload.new_stream(seed, self.ctx)
        results = []
        start = perf_counter()
        while True:
            results.append(self.request(stream, len(results)))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                return results

    def fixed(self, seed: int, count: int):
        stream = self.workload.new_stream(seed, self.ctx)
        return [self.request(stream, index) for index in range(count)]


def end_to_end(results, setup_samples) -> dict:
    ok = [r for r in results if not r.crashed]
    latencies = [ms for r in ok for ms in r.verdict_ms]
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verdicts_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
        "verdict_p50_ms": (statistics.median(latencies), "ms"),
        "verdict_p99_ms": (p99, "ms"),
        # Means, not medians: under host load each of these short operations
        # takes one of two durations, and a median flips between them.
        "oracle_farkas_s": (statistics.fmean(r.farkas_s for r in ok), "s"),
        "oracle_witness_s": (statistics.fmean(r.witness_s for r in ok), "s"),
        "emit_s": (statistics.fmean(r.emit_s for r in ok), "s"),
        "verify_s": (statistics.fmean(r.verify_s for r in ok), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "verdict_samples": len(latencies),
        "samples_beyond_p99": sum(1 for ms in latencies if ms > p99),
        "requests": len(results),
    }


def summed_counts(results):
    total = Counts()
    for r in results:
        total.add(r.counts)
    return total


def traced_replay(runner, workload, reference, reference_counts):
    """Replay the reference prefix without spans, then with spans.

    The untraced replay runs warm and right before the traced one, so the
    ratio of their times is the tracing overhead.  Returns the per-layer
    metrics, a summary for the report, the replayed results, and the
    self-checks: outputs and counters equal those of the untraced run.
    """
    inst = runner.ctx.inst
    untraced = runner.fixed(REFERENCE_SEED, workload.reference_items)
    vertices = sys.modules["boxcert.vertices"]
    caches = [
        getattr(vertices, name)
        for name in ("local_vertices_2x2", "pr_vertices", "ns_vertices_2x2", "broadcast_local_vertices")
    ]
    inst.install(TARGETS, tracing=True)
    for cache in caches:
        cache.cache_clear()
    inst.begin(0)
    for name in workload.tables:
        getattr(vertices, name)()
    inst.end()
    first = runner.next_request
    traced = runner.fixed(REFERENCE_SEED, workload.reference_items)
    inst.uninstall()

    requests = range(first, runner.next_request)
    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    counts = summed_counts(traced)
    self_times = inst.self_times(requests)
    metrics = {
        metric: (self_times.get(span, 0.0), "s") for span, metric in SELF_TIME_METRICS.items()
    }
    metrics["vertices.table_s"] = (inst.inclusive_time("vertices", [0]), "s")
    for name, value in counts.as_metrics().items():
        metrics[name] = (value, "bytes" if name == "certificates.bytes" else "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    outputs = [r.fingerprint for r in reference]
    checks = {
        "outputs_match": [r.fingerprint for r in traced] == outputs
        and [r.fingerprint for r in untraced] == outputs,
        "counts_match": counts == reference_counts == summed_counts(untraced),
    }
    info = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_ratio": traced_s / untraced_s,
        "spans": len(inst.spans),
        **checks,
    }
    return metrics, info, untraced + traced, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    vertices = sys.modules["boxcert.vertices"]
    for name in workload.tables:
        getattr(vertices, name)()
    setup_samples = measure_setup(workload.tables)
    digests = json.loads((HERE / "digests.json").read_text())

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        inst = Instrument()
        runner = Runner(workload, Context(tmp, digests, inst))
        inst.install(COUNT_TARGETS, tracing=False)
        timed = runner.timed(args.seed, args.seconds)
        n_ref = workload.reference_items
        if workload.reference_in_stream(args.seed) and len(timed) >= n_ref:
            reference, extra = timed[:n_ref], []
        else:
            reference = extra = runner.fixed(REFERENCE_SEED, n_ref)
        reference_counts = summed_counts(reference)
        runs = timed + extra
        trace_info = None
        if args.trace:
            layer_metrics, trace_info, replayed, checks = traced_replay(
                runner, workload, reference, reference_counts
            )
            runs += replayed
        inst.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.ops for r in runs)
    failures = [f for r in runs for f in r.failures]
    if trace_info is not None:
        attempted += len(checks)
        failures += [f"traced replay: {name} is false" for name, ok in checks.items() if not ok]
        inst.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    requests = [{key: getattr(r, key) for key in REQUEST_FIELDS} for r in timed]
    (OUT / f"requests-{workload.name}-seed{args.seed}.json").write_text(json.dumps(requests))
    if all(r.crashed for r in timed):
        print("error: every timed request crashed", file=sys.stderr)
        return 1
    e2e, samples = end_to_end(timed, setup_samples)

    report = {
        "report": "boxcert-perfbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
        },
        **samples,
        "setup_samples_s": setup_samples,
        "end_to_end": {name: value for name, (value, _) in e2e.items()},
        "failed_ratio": len(failures) / attempted,
        "reference": {"seed": REFERENCE_SEED, "requests": n_ref},
        "counts": reference_counts.as_metrics(),
        "failures": failures[:20],
        "trace_replay": trace_info,
    }
    print(json.dumps(report))
    metrics = layer_metrics if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
