"""Benchmark of zqu: whole operations end to end and, traced, layer by layer.

    python3 perfbench/run.py --workload {enumerate,analyze,distance} \
        --seed N --seconds S --trace {0,1} [--smoke]

Runs the workload in a closed loop with one caller, single-threaded, in whole
rounds until S seconds have passed (and at least the workload's MIN_ROUNDS),
and checks every output.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, times in ref units (see reference.py); with --trace 1 it runs
each round once untraced and once traced and reports the per-layer metrics,
with the tracing overhead, and writes the spans to .bench_out/.  --smoke runs
one small round.  The last stdout line is the JSON result; the line before it
holds details: environment, output digest, tail percentile, slowest items,
errors and the end-to-end times in seconds.  Exits 2 without a result when
the checkout has no zqu sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import OUT, ROOT, MissingSourceError, child_env, import_zqu
from reference import probe_seconds
from tracer import Tracer, layer_metrics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETUP_RUNS = 3
SLOWEST = 3
MAX_ERRORS = 5
PROBE_WINDOW = 5


def tail(values: list[float]) -> tuple[float, dict]:
    """The value at the highest percentile with at least TAIL_BEYOND samples
    above it (the median when there are too few samples), and its label."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        k = (len(ordered) - 1) // 2
    else:
        k = len(ordered) - TAIL_BEYOND - 1
    label = {"percentile": 100.0 * (k + 1) / len(ordered), "samples": len(ordered),
             "beyond": len(ordered) - k - 1}
    return ordered[k], label


def setup_seconds(pairs, runs: int) -> list[float]:
    """Import plus cold caches, each run in a fresh interpreter."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py"))]
    probe += [f"{n},{p},{s}" for n, p, s in pairs]
    times = []
    for _ in range(runs):
        proc = subprocess.run(probe, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Outcomes:
    """Latencies, reference-probe times, failures and outputs of one leg
    (untraced or traced) of a run."""

    def __init__(self, probe: str = ""):
        self.probe = probe
        if probe:
            probe_seconds(probe)  # the first call pays one-off costs
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.items: list = []
        self.texts: list = []
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, workload, item, tracer) -> None:
        if self.probe:
            self.probes.append(probe_seconds(self.probe))
        start = time.perf_counter()
        try:
            text, context = workload.execute(item, tracer)
            latency = time.perf_counter() - start
            workload.check(item, text, context)
        except Exception:  # an item that fails is counted and the run goes on
            latency = time.perf_counter() - start
            text = None
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{item.describe()}: {traceback.format_exc(limit=3)}")
        self.latencies.append(latency)
        self.items.append(item)
        self.texts.append(text)

    def relative(self) -> list[float]:
        """Each latency in ref units: divided by the median of the probes timed
        just before it and the PROBE_WINDOW // 2 items on either side."""
        half = PROBE_WINDOW // 2
        return [lat / statistics.median(self.probes[max(0, i - half):i + half + 1])
                for i, lat in enumerate(self.latencies)]

    def slowest(self) -> list[dict]:
        top = sorted(range(len(self.items)), key=lambda i: self.latencies[i], reverse=True)
        return [{"latency_ms": self.latencies[i] * 1000, **self.items[i].describe()}
                for i in top[:SLOWEST]]


def round_throughput(values: list[float], round_size: int) -> float:
    """Items per unit of time of a round whose item at each position takes
    that position's median latency over the rounds run.  Rounds share one
    composition, so the median discards rounds slowed by a passing load."""
    rounds = [values[i:i + round_size] for i in range(0, len(values), round_size)]
    medians = [statistics.median(column) for column in zip(*rounds)]
    return len(medians) / sum(medians)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(b"\0" if text is None else text.encode() + b"\n")
    return h.hexdigest()


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    workload.prepare()
    plain = Outcomes("" if trace else workload.PROBE)
    traced = Outcomes()
    tracer = Tracer() if trace else None
    min_rounds = 1 if trace or workload.smoke else workload.MIN_ROUNDS
    rounds = 0
    start = time.perf_counter()
    while True:
        batch = workload.draw(rng)
        for item in batch:
            plain.attempt(workload, item, None)
        if trace:
            with workload.tracing(tracer):
                for item in batch:
                    tracer.item = len(traced.latencies)
                    traced.attempt(workload, item, tracer)
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= min_rounds:
            break
    elapsed = time.perf_counter() - start
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    errors = plain.errors + traced.errors
    details = {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "items": len(plain.latencies),
        "digest": {"sha256": digest(plain.texts[:len(batch)]), "items": len(batch)},
        "slowest": plain.slowest(),
    }
    if trace:
        mismatched = sum(a != b for a, b in zip(plain.texts, traced.texts))
        if mismatched:
            failed += mismatched
            errors.append(f"{mismatched} traced outputs differ from untraced ones")
        metrics = layer_metrics(tracer.spans, len(traced.latencies))
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
        metrics["trace.overhead"] = overhead
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
        trace_file.write_text(json.dumps(tracer.to_json()))
        details["trace"] = {
            "file": str(trace_file.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "items": len(traced.latencies),
            "overhead": overhead,
            "kernels.lookups": "computed as words scanned x n, not counted by the kernel",
        }
    else:
        setups = setup_seconds(workload.pairs, 1 if workload.smoke else SETUP_RUNS)
        relative = plain.relative()
        tail_ref, tail_label = tail(relative)
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_kref": 1000 * round_throughput(relative, len(batch)),
            "latency_p50_ref": statistics.median(relative),
            "latency_tail_ref": tail_ref,
            "peak_rss_mb": peak_rss_mb,
        }
        details["setup_runs_s"] = setups
        details["latency_tail"] = tail_label
        details["seconds"] = {
            "probe": {"kind": workload.PROBE, "median_ms": statistics.median(plain.probes) * 1000},
            "items_per_s": round_throughput(plain.latencies, len(batch)),
            "latency_p50_ms": statistics.median(plain.latencies) * 1000,
            "latency_tail_ms": tail(plain.latencies)[0] * 1000,
        }
    details["error_rate"] = failed / attempted
    details["errors"] = errors
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details}


def environment(seed: int) -> dict:
    import numpy
    from zqu import kernels

    backend = getattr(kernels, "backend_name", None)
    return {
        "backend": backend() if backend else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one small round, one set-up run")
    args = parser.parse_args(argv)
    try:
        import_zqu()
    except MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in declared_metrics(bool(args.trace))}
    details = {"environment": environment(args.seed), **result["details"]}
    for name, m in metrics.items():
        print(f"{args.workload:>9} {name:<28} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    extra = {"error_rate": details["error_rate"], **details.get("seconds", {})}
    extra["probe_ms"] = extra.pop("probe", {}).get("median_ms")
    for name, value in extra.items():
        if value is not None:
            print(f"{args.workload:>9} {name:<28} {value:>14.6g} (details)", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    raise SystemExit(main())
