"""Benchmark entry point.

    python3 perfbench/run.py --workload des-cold --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and all scratch files live under ``.perfbench_work/``.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it records
the run (host steal ticks, versions, source digest, unscaled timings and
probe figures, workload details).

``--tiny`` shrinks every op list for the self-test, and ``--corrupt``
perturbs one expected value so the output checks must fail.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import calib
import common
import workloads

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "work_s": "s",
    "op_gmean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def end_to_end(outcome: workloads.Outcome) -> dict[str, float]:
    per_op = calib.scaled(outcome.clock)
    return {
        "work_s": sum(per_op.values()),
        "op_gmean_ms": common.geomean(per_op.values()) * 1e3,
        "setup_s": calib.scaled_median(outcome.setup_s),
        "peak_rss_mb": outcome.rss_kb / 1024.0,
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
    }


def clock_record(clock: dict) -> dict:
    """Unscaled figures of the run, to tell host noise from the program."""
    samples = clock["samples"].values()
    return {
        "ops": len(samples),
        "repeats": min(len(pairs) for pairs in samples),
        "probes": len(clock["probes"]),
        "probe_best_ms": min(clock["probes"]) * 1e3,
        "probe_p50_ms": common.median(clock["probes"]) * 1e3,
        "work_best_unscaled_s": sum(min(op for op, _ in pairs)
                                    for pairs in samples),
        "work_p50_unscaled_s": sum(common.median([op for op, _ in pairs])
                                   for pairs in samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    try:
        ws = common.Workspace(root, args.workload)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run = workloads.Run(ws, args.seed, args.seconds, bool(args.trace),
                        tiny=args.tiny, corrupt=args.corrupt)
    steal_before = common.steal_ticks()
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    except (common.BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        ws.close()
    steal_after = common.steal_ticks()

    if args.trace:
        values = outcome.layers
        units = workloads.PER_LAYER
    else:
        values = end_to_end(outcome)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steal_ticks": steal_after - steal_before,
        "host": common.host_record(root),
        "setup_samples_s": outcome.setup_s,
        "clock": clock_record(outcome.clock),
        "end_to_end": end_to_end(outcome),
        "detail": outcome.detail,
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
