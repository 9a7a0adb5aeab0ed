"""Per-layer host-time table: ``python3 perfbench/table.py``.

Usage::

    python3 perfbench/table.py [--seed N]
    python3 perfbench/table.py --wrapped

For each workload, one traced benchmark run (``run.py --trace 1`` with
one untraced and one traced worker; the seed defaults to the default
seed of ``pins.json``): every layer's self time, its share of the traced wall time, its calls,
the named parts of each layer, the cache ratios with their bases, the
time no span covers, and the tracing overhead (traced wall time over
untraced wall time).  ``--wrapped`` lists every binding the tracer
replaces and the span key it records under, so a path the tracer misses
shows up as ``unattributed_ms`` and can be found here.
"""

from __future__ import annotations

import argparse
import sys

import run

LAYERS = ("crypto", "tpm", "hw", "osim", "core", "sim", "dist", "vtpm",
          "apps", "analysis")


def format_table(workload: str, metrics: dict) -> str:
    """The per-layer table of one traced run's metrics."""
    wall = metrics["traced_wall_ms"]
    lines = [f"## {workload}: traced wall {wall:.1f} ms, tracing overhead "
             f"x{metrics['trace_overhead_ratio']:.2f}",
             f"{'layer / part':<28} {'self ms':>10} {'share':>7} {'calls':>9}"]

    def row(name, self_ms, calls=""):
        lines.append(f"{name:<28} {self_ms:10.1f} {self_ms / wall:7.1%} "
                     f"{calls!s:>9}")

    for layer in LAYERS:
        row(layer, metrics[f"{layer}.self_ms"], metrics[f"{layer}.calls"])
        for name in sorted(metrics):
            if (name.startswith(layer + ".") and name.endswith(".self_ms")
                    and name.count(".") == 2 and metrics[name]):
                part = name[:-len(".self_ms")]
                row("  " + part, metrics[name], metrics.get(part + ".calls", ""))
    row("unattributed", metrics["unattributed_ms"])
    lines.append("counts (zeros left out) and ratios:")
    shown = {f"{layer}.calls" for layer in LAYERS} | {"trace_overhead_ratio"}
    for name in sorted(metrics):
        if (not name.endswith("_ms") and name not in shown
                and (metrics[name] or name.endswith("ratio"))):
            lines.append(f"  {name:<44} {metrics[name]:g}")
    analysis = sorted(n for n in metrics if n.startswith("analysis.")
                      and n.endswith("_ms") and not n.endswith("self_ms"))
    if any(metrics[n] for n in analysis):
        lines.append("analysis parts and rules (ms):")
        for name in analysis:
            lines.append(f"  {name:<44} {metrics[name]:10.1f}")
    return "\n".join(lines)


def list_wrapped() -> int:
    import worker  # puts src/ on sys.path
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(worker.PROBES)
    try:
        for binding, key in tracer.wrapped:
            print(f"{binding}  ->  {key or '(probe only)'}")
        print(f"{len(tracer.wrapped)} bindings wrapped")
    finally:
        tracer.restore()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/table.py")
    parser.add_argument("--seed", type=int,
                        default=run.load_pins()["default_seed"])
    parser.add_argument("--wrapped", action="store_true")
    args = parser.parse_args(argv)
    if args.wrapped:
        return list_wrapped()
    for workload in run.WORKLOADS:
        # One second: the run stops after its first traced worker.
        result, lines, _, _ = run.measure(workload, args.seed, 1.0, trace=True)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        print(format_table(workload, metrics))
        print("\n".join(lines[:1] + [line for line in lines
                                     if "digest" in line or "PROBLEM" in line]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
