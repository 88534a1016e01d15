#!/usr/bin/env python3
"""Run the control-loop benchmark and print its metrics.

    python3 perfbench/run.py --workload flow_setup --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
adds a traced run and prints the per-layer metrics.  ``--workload all`` runs
every workload both ways and prints every metric.  Each metric is printed on
its own line with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: The metrics BENCHMARK.json lists, in its order.
END_TO_END = ("setup_s", "flow_setups_per_s", "delivered_pps", "flow_setup_sim_ms_mean", "rss_mb")
#: Runtime checkers that patch ``Syscalls`` and would distort every timing.
MONITOR_ENV = ("YANCSAN", "YANCRACE", "YANCSEC")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def run_workload(loop, spans, workload: str, seed: int, seconds: float, trace: bool, both: bool = False) -> dict:
    """One workload: untraced repetitions, plus a traced run when asked.

    The result's metrics are the end-to-end ones, the per-layer ones when
    ``trace`` is set, or all of them when ``both`` is.
    """
    size = loop.size_for(loop.WORKLOADS[workload], seconds)
    result = loop.run(workload, seed, size)
    e2e = loop.end_to_end(result)
    host = loop.host_metrics(result)
    problems = loop.failures(result)
    _print_metrics(f"{workload} seed={seed} flows={size.flows} end to end", e2e)
    _print_metrics(f"{workload} host (raw, not normalised)", host)
    layers: dict[str, tuple[float, str]] = {}
    if trace:
        traced, trace_data = spans.traced_run(workload, seed, size, loop.ROOT / ".perfbench_out")
        problems += loop.failures(traced)
        problems += spans.behaviour_changes(result, traced)
        layers = spans.layer_metrics(result, traced, trace_data)
        _print_metrics(f"{workload} per layer", layers)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    wanted = {**e2e, **host, **layers}
    names = (*END_TO_END, *spans.PER_LAYER) if both else spans.PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": result.datagrams_offered,
        "failed": result.datagrams_lost,
        "metrics": {name: {"value": wanted[name][0], "unit": wanted[name][1]} for name in names if name in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="flow_setup, packet_in_fanout, steady_forwarding or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    monitors = [name for name in MONITOR_ENV if os.environ.get(name)]
    if monitors:
        return _fail(f"refusing to run with {', '.join(monitors)} set: the monitors patch Syscalls and distort timing")
    try:
        import loop
        import spans
    except ImportError as exc:
        return _fail(f"cannot load the program under test ({exc})")
    if args.workload != "all" and args.workload not in loop.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(loop.WORKLOADS)} or all")

    if args.workload == "all":
        results = {name: run_workload(loop, spans, name, args.seed, args.seconds, True, both=True) for name in loop.WORKLOADS}
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{name}": v for wl, r in results.items() for name, v in r["metrics"].items()},
        }
    else:
        out = run_workload(loop, spans, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
