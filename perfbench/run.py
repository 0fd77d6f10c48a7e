"""Benchmark for ncindep: end-to-end metrics, or per-layer metrics from a
traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload free-sweep --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of that checkout.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  Traced runs also write their spans to
``perfbench/out/``.  Exit codes: 0 every op completed and was correct;
1 some op raised or returned a wrong result, or there is no ncindep source
to benchmark; 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import tracing
from workloads import WORKLOADS, op_order, rounds_for

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
# failing ops, and problems per op, echoed to stderr
MAX_REPORTED = 3


def tail(sorted_values):
    """The highest order statistic with at least ten values beyond it."""
    return sorted_values[max(0, len(sorted_values) - 11)]


def set_up(workload):
    """Set the workload up SETUP_REPEATS times, each from a collected heap;
    the median is ``setup_s``."""
    if not os.path.isfile(os.path.join(SRC, "ncindep", "__init__.py")):
        raise SystemExit("perfbench: no ncindep source under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        # drop the last set-up's inputs and modules, so that the set-ups'
        # memory does not pile up into the peak resident set
        vars(workload).clear()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    loaded = os.path.abspath(sys.modules["ncindep"].__file__)
    if not loaded.startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported ncindep from %s, not from %s" % (loaded, SRC))
    return statistics.median(times)


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def time_op(workload, seed, tracer, times):
    """Run one op, appending its time to ``times`` when it completes.
    Returns its output and None, or None and the problem when it raised."""
    span = tracer.open("op") if tracer else None
    start = time.perf_counter()
    try:
        output = workload.run_op(seed)
    except Exception as exc:  # an op that raises is counted as failed
        return None, ["raised %s: %s" % (type(exc).__name__, exc)]
    else:
        times.append(time.perf_counter() - start)
        return output, None
    finally:
        if tracer:
            tracer.close(span)


def check_op(workload, seed, output, tracer):
    """The problems the workload's check finds in one op's output."""
    if tracer:  # keep the check route's counts apart from the op's
        op_counts, tracer.counts = tracer.counts, {}
        span = tracer.open("check")
    try:
        return workload.check(seed, output)
    except Exception as exc:  # output the check cannot read is wrong
        return ["check raised %s: %s" % (type(exc).__name__, exc)]
    finally:
        if tracer:
            tracer.close(span)
            tracer.counts = op_counts


def run(workload, seeds, tracer):
    """Time every op and check its output.  The ops of the first round all
    run before any of them is checked, and the peak resident set is read
    then: it holds set-up, the ops and their outputs, but not the memory
    of the check route.  Later ops are checked one by one.  Returns the
    times of the ops that completed, the number of ops that raised or were
    wrong, and that peak in KiB."""
    times, failed, peak_kb, pending = [], 0, None, []
    first_round = min(len(workload.seeds), len(seeds))
    for done, seed in enumerate(seeds, 1):
        pending.append((seed,) + time_op(workload, seed, tracer, times))
        if done < first_round:
            continue
        if peak_kb is None:
            peak_kb = peak_rss_kb()
        for op_seed, output, problems in pending:
            if problems is None:
                problems = check_op(workload, op_seed, output, tracer)
            failed += bool(problems)
            if problems and failed <= MAX_REPORTED:
                for problem in problems[:MAX_REPORTED]:
                    print("perfbench: %s op seed %d: %s" % (workload.name, op_seed, problem),
                          file=sys.stderr)
        pending.clear()
    return times, failed, peak_kb


def end_to_end(setup_s, times, peak_kb):
    ordered = sorted(times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_tail_ms": (tail(ordered) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(tracer, ops, times):
    self_times = tracer.self_times()
    metrics = {}
    for name in [metric for _, _, metric in tracing.COUNTS] + list(tracing.DERIVED_COUNTS):
        metrics[name] = (tracer.counts.get(name, 0) / ops, "count")
    for _, _, name in tracing.SPANS:
        metrics[name] = (self_times.get(name, 0.0) * 1e3 / ops, "ms")
    metrics["trace.op_p50_ms"] = (statistics.median(times) * 1e3, "ms")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    setup_s = set_up(workload)
    # per-layer metrics are per-op means over whole rounds, so one round
    # gives the same counts as a full untraced run
    rounds = 1 if args.trace else rounds_for(workload, args.seconds)
    seeds = op_order(workload, args.seed, rounds)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    times, failed, peak_kb = run(workload, seeds, tracer)
    if not times:
        raise SystemExit("perfbench: no op of %s completed" % workload.name)

    if tracer:
        metrics = per_layer(tracer, len(seeds), times)
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s.csv" % workload.name))
    else:
        metrics = end_to_end(setup_s, times, peak_kb)
    result = {
        "correct": failed == 0,
        "attempted": len(seeds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
