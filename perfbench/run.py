"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The output is a stamp line (commit, host, seed and raw
samples as JSON), one line per metric with its unit, and last a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, BenchError, stamp  # noqa: E402

WORKLOADS = ("coest", "serve", "cluster")


def _units(trace: bool) -> dict:
    """Name -> unit of the metrics a run must print, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Turn SIGTERM into SystemExit so the workloads' cleanup stops any
    # server they started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    trace = bool(args.trace)
    units = _units(trace)

    try:
        if args.workload == "coest":
            import coest

            result = coest.run(args.seed, args.seconds, trace)
        else:
            import serving

            result = serving.run(args.workload, args.seed, args.seconds,
                                 trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if trace:
        metrics["bench.failed_share"] = result["failed"] / result["attempted"]
    if set(metrics) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    correct = result["failed"] == 0
    header = dict(stamp(args.workload, args.seed, args.seconds, trace),
                  derived=result.get("derived", {}),
                  samples=result["samples"])
    print(json.dumps(header, sort_keys=True))
    for name in sorted(metrics):
        print("%-40s %16.6f %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
