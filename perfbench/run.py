"""ringlab benchmark: one closed-loop workload per run, one process, one
thread, one client.

    python3 perfbench/run.py --workload snf-euclid --seed 1 --seconds 30 --trace 0

Imports ringlab from ``src/`` next to this directory and exits with status 2,
printing no result, when it is not there.  ``--trace 0`` sets up, then
runs whole passes of operations until ``--seconds`` of operation time have
elapsed, setting up again at evenly spaced points of that time, and prints
the end-to-end metrics with the median set-up time.  ``--trace 1`` runs one
fixed set of operations untraced and then traced, and prints the per-layer
metrics.  Every output is checked by an oracle that does not use ringlab; a
failed check counts as a failed operation.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# A shared host runs this process at speeds up to 1.4x apart, switching
# within seconds or holding one for whole runs, and ringlab's operations slow
# down with a fixed pure-Python task (the reference) by the same ratio.  So
# the run times the reference between operations, every REFERENCE_EVERY_S of
# operation time and around each set-up, and scales each time it reports by
# REFERENCE_S over the mean reference time measured around it: the times are
# those of a machine on which the reference takes REFERENCE_S.
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_ringlab():
    """Import ringlab afresh from SRC, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "ringlab" or n.startswith("ringlab.")]:
        del sys.modules[name]
    ringlab = importlib.import_module("ringlab")
    cli = importlib.import_module("ringlab.cli")
    if Path(ringlab.__file__).resolve().parent != SRC / "ringlab":
        raise ImportError(f"ringlab was imported from {ringlab.__file__}, not {SRC}")
    return ringlab, cli


def set_up(name: str, seed: int):
    """Import ringlab, build the workload's inputs and warm it up; returns
    the workload and the seconds that took."""
    gc.collect()
    start = time.perf_counter()
    ringlab, cli = import_ringlab()
    workload = workloads.WORKLOADS[name](ringlab, cli, seed)
    for item in workload.warm_up_items():
        with contextlib.suppress(Exception):  # the timed phase counts failures
            workload.run(item)
    return workload, time.perf_counter() - start


def reference_task() -> int:
    table = {}
    for i in range(8000):
        table[i * 7919 % 10007] = i * i
    return len(table)


def reference() -> float:
    """Seconds the reference task takes now: the least of three runs, with
    the garbage collector off so that ringlab's heap does not enter it."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        gc.enable()


def scale(seconds: float, references: list[float]) -> float:
    """`seconds` at the speed where the reference takes REFERENCE_S, given
    the reference times measured around them."""
    return seconds * REFERENCE_S / statistics.fmean(references)


def scaled_set_up(name: str, seed: int):
    """set_up, with its time measured (raw) and scaled by the reference
    just before and after it; (workload, raw, scaled)."""
    before = reference()
    workload, seconds = set_up(name, seed)
    return workload, seconds, scale(seconds, [before, reference()])


def scale_operations(samples: list[float], references: list[tuple[float, float]]) -> list[float]:
    """Scale each operation time by the references measured within one
    operation length of it, and at least the last before and the first after
    it: a long operation spans many swings of speed, a short one few.
    `references` holds (operation time elapsed when taken, seconds) in order,
    from one at the start to one at the end."""
    positions = [position for position, _ in references]
    scaled, start = [], 0.0
    for elapsed in samples:
        end = start + elapsed
        lo = min(bisect.bisect_left(positions, start - elapsed), bisect.bisect_right(positions, start) - 1)
        hi = max(bisect.bisect_right(positions, end + elapsed), bisect.bisect_left(positions, end) + 1)
        scaled.append(scale(elapsed, [seconds for _, seconds in references[lo:hi]]))
        start = end
    return scaled


def run_op(workload, item) -> tuple[float, str | None]:
    """Time one operation, then check its output; (seconds, failure)."""
    start = time.perf_counter()
    try:
        out = workload.run(item)
    except Exception as exc:  # an operation that raises has failed
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(item, out)
    except Exception as exc:  # a malformed output fails the check
        return elapsed, f"check raised {exc!r}"


def measure(workload, seconds: float, setups: list[tuple[float, float]]):
    """Closed loop over whole passes until `seconds` of operation time;
    (samples, scaled samples, failures, operation time of each pass,
    references between operations).

    Between operations it sets up again, appending (raw, scaled) times to
    `setups`, each time another 1/SETUP_REPEATS of `seconds` has passed, so
    that set-up time is sampled across the run like the operations are."""
    samples: list[float] = []
    failures: list[str] = []
    pass_times: list[float] = []
    # (operation time elapsed, reference seconds)
    references = [(0.0, reference())]
    since_reference = 0.0
    passes = workload.passes()

    def set_up_when_due(spent: float) -> None:
        while len(setups) < SETUP_REPEATS and spent >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(scaled_set_up(workload.name, workload.seed)[1:])

    while sum(pass_times) < seconds:
        spent, pass_time = sum(pass_times), 0.0
        for item in next(passes):
            set_up_when_due(spent + pass_time)
            if since_reference >= REFERENCE_EVERY_S:
                references.append((spent + pass_time, reference()))
                since_reference = 0.0
            elapsed, failure = run_op(workload, item)
            samples.append(elapsed)
            pass_time += elapsed
            since_reference += elapsed
            if failure:
                failures.append(failure)
        pass_times.append(pass_time)
    references.append((sum(pass_times), reference()))
    set_up_when_due(float("inf"))
    return samples, scale_operations(samples, references), failures, pass_times, references


def run_items(workload, items, tracer=None) -> tuple[list[float], list[str]]:
    """Run a fixed list of operations; (samples, failures)."""
    samples, failures = [], []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        elapsed, failure = run_op(workload, item)
        samples.append(elapsed)
        if failure:
            failures.append(failure)
    return samples, failures


def tail(samples: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.
    Under 10 * TAIL_BEYOND samples that percentile falls below p90 and is no
    tail, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], f"max of n={n} (under {10 * TAIL_BEYOND} samples)"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100 * (index + 1) / n:.2f} of n={n}, {TAIL_BEYOND} beyond"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def timings(samples: list[float], setups: list[float], done: int) -> dict:
    """The timed end-to-end metrics from operation and set-up times."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / sum(samples),
        "latency_p50_ms": statistics.median(samples) * 1000,
        "latency_tail_ms": tail(samples)[0] * 1000,
    }


def end_to_end(workload, seconds: float, setups: list[tuple[float, float]]) -> tuple[dict, int, int]:
    gc.collect()
    raw, samples, failures, pass_times, references = measure(workload, seconds, setups)
    rss = peak_rss_mb()
    failures += workload.finish()
    attempted, failed = len(samples), len(failures)
    values = timings(samples, [s for _, s in setups], attempted - failed)
    values["peak_rss_mb"] = rss
    unscaled = timings(raw, [r for r, _ in setups], attempted - failed)
    print(f"setup_s: median of {len(setups)} set-ups spread over the run")
    print(f"timed phase: {attempted} operations in {sum(raw):.3f} s of operation time")
    print(f"pass times (s): {' '.join(f'{t:.3f}' for t in pass_times)}")
    print(f"latency_p50_ms: median of n={attempted}")
    print(f"latency_tail_ms: {tail(samples)[1]}")
    times = sorted(seconds * 1000 for _, seconds in references)
    print(
        f"times scaled to a {REFERENCE_S * 1000:g} ms reference, measured n={len(times)} times"
        f" between operations (median {statistics.median(times):.4f} ms, from {times[0]:.4f}"
        f" to {times[-1]:.4f}) and around each set-up; as measured:"
    )
    for key, value in unscaled.items():
        print(f"  {key}: {value:.6g} (scaled {values[key]:.6g})")
    print(f"failed_ops_ratio: {failed}/{attempted} = {failed / attempted:.6f}")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    for key, value in sorted(workload.stats.items()):
        print(f"{key}: {value}")
    if "over_str_limit" in workload.stats:
        print(
            f"  ({workload.stats['over_str_limit']} outputs hold an integer over Python's default"
            f" {sys.int_info.default_max_str_digits}-digit str limit; `ringlab snf --emit-witness`"
            " fails on those unless the limit is raised)"
        )
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed


def per_layer(workload) -> tuple[dict, int, int]:
    items = workload.trace_items()
    gc.collect()
    untraced, failures = run_items(workload, items)
    for key in workload.stats:
        workload.stats[key] = 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        gc.collect()
        traced, traced_failures = run_items(workload, items, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures + workload.finish()
    values = tracer.metrics(len(items))
    untraced_s, traced_s = sum(untraced), sum(traced)
    values["trace.overhead_ratio"] = traced_s / untraced_s
    for stat in ("witness_bits_max", "witness_degree_max"):
        values[f"matrices.{stat}"] = workload.stats.get(stat, 0)
    values["matrices.witness_over_str_limit"] = workload.stats.get("over_str_limit", 0)
    values["counterexamples.candidates_examined"] = workload.stats.get(
        "candidates_examined", 0
    )
    for name, _ in workloads.CliSuite.COMMANDS:
        walls = [s for item, s in zip(items, untraced) if item[0] == name]
        values[f"cli.{name}.wall_s"] = statistics.median(walls) if walls else 0.0
    print(f"trace set: {len(items)} operations, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print(f"spans recorded: {len(tracer.spans)}")
    attempted = 2 * len(items)
    print(f"failed_ops_ratio: {len(failures)}/{attempted}")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return metrics, attempted, len(failures)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "candidates_examined", "over_str_limit")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("degree_max"):
        return "degree"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"error: no ringlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu_model()}")
    print(f"load average at start: {load()}")
    workload, *first = scaled_set_up(args.workload, args.seed)
    setups = [tuple(first)]
    if args.trace:
        metrics, attempted, failed = per_layer(workload)
    else:
        metrics, attempted, failed = end_to_end(workload, args.seconds, setups)
    print(f"load average at end: {load()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
