"""Fleet throughput report: ``python -m repro.tools.fleet_report``.

Runs the §6.2 distributed-factoring project concurrently on a
:class:`~repro.core.fleet.FlickerFleet` and prints per-machine plus
aggregate throughput — sessions per virtual second, utilization, and
network traffic.  Deterministic: the same seed and fleet shape print the
same bytes on every run and every machine.

Options::

    --machines N          client machines in the fleet (default 4)
    --units-per-client N  work units dispatched to each client (default 2)
    --slice-ms MS         Flicker session slice length (default 2000)
    --range-per-unit N    divisors per work unit (default 400)
    --seed N              fleet seed (default 2008)
    --jitter-ms MS        seeded gaussian network jitter (default 0)
    --shard-size N        split fleets larger than N machines into groups
                          run as separate cells, merged byte-identically
    --workers N           process-pool size for sharded runs (0 = auto)
    --json PATH           also write the full report dict as JSON
    --chrome PATH         also write a per-machine-track Chrome trace
                          (implies observability; load in Perfetto)
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.apps.distributed import FleetProject, FleetProjectReport
from repro.core.fleet import FlickerFleet
from repro.tools import render_table

#: The demonstration composite: 3*5*7*11*13 times a prime.
DEFAULT_N = 15015 * 1_000_003


def run_fleet(
    machines: int = 4,
    units_per_client: int = 2,
    slice_ms: float = 2000.0,
    range_per_unit: int = 400,
    seed: int = 2008,
    jitter_ms: float = 0.0,
    observability: bool = False,
    n: int = DEFAULT_N,
    index_base: int = 0,
    clients: Optional[int] = None,
):
    """Build the fleet, run the project; returns ``(fleet, report)``.

    ``index_base`` numbers this fleet's machines globally (a sharded
    sweep runs each machine group as its own fleet); ``clients`` limits
    participation to the first N machines of a lazily built fleet.
    """
    fleet = FlickerFleet(
        num_machines=machines,
        seed=seed,
        jitter_ms=jitter_ms,
        observability=observability,
        index_base=index_base,
    )
    project = FleetProject(
        fleet, n=n, units_per_client=units_per_client,
        slice_ms=slice_ms, range_per_unit=range_per_unit,
        clients=clients,
    )
    return fleet, project.run()


def _sweep_cell(config: dict) -> dict:
    """One fleet run for the sweep executor — module-level so worker
    processes can unpickle it.  Returns the report as a plain dict."""
    _, report = run_fleet(**config)
    return report.to_dict()


def merge_group_reports(groups: Sequence[dict]) -> dict:
    """Merge per-group report dicts from one sharded fleet run.

    Counters and times sum, the makespan is the slowest group's, and the
    two rates are recomputed from the merged totals — every input is in
    the group dicts, so the merge is exact, not an average of averages.
    The groups arrive in ``index_base`` order (``map_seeded`` preserves
    input order), which keeps the merged ``per_machine`` list — and the
    whole dict — byte-identical at any worker count.
    """
    if len(groups) == 1:
        return groups[0]
    merged = {
        "fleet_size": sum(g["fleet_size"] for g in groups),
        "units_issued": sum(g["units_issued"] for g in groups),
        "units_accepted": sum(g["units_accepted"] for g in groups),
        "units_rejected": sum(g["units_rejected"] for g in groups),
        "makespan_ms": max(g["makespan_ms"] for g in groups),
        "total_sessions": sum(g["total_sessions"] for g in groups),
        "total_busy_ms": round(sum(g["total_busy_ms"] for g in groups), 6),
        "useful_ms": round(sum(g["useful_ms"] for g in groups), 6),
        "network_bytes": sum(g["network_bytes"] for g in groups),
        "network_messages": sum(g["network_messages"] for g in groups),
        "per_machine": [m for g in groups for m in g["per_machine"]],
        "shards": len(groups),
    }
    busy = merged["total_busy_ms"]
    merged["efficiency"] = round(merged["useful_ms"] / busy if busy else 0.0, 6)
    makespan = merged["makespan_ms"]
    merged["sessions_per_virtual_second"] = round(
        merged["total_sessions"] / (makespan / 1000.0) if makespan > 0 else 0.0,
        6)
    return merged


def run_fleet_sweep(configs, workers: int = 1, shard_size: Optional[int] = None):
    """Run many independent fleet simulations, optionally in parallel.

    Each config is a keyword dict for :func:`run_fleet`.  A fleet run is
    a single discrete-event schedule and cannot itself be parallelized
    without breaking determinism, but the *sweep* over fleet shapes and
    seeds shards perfectly: with ``workers > 1`` the runs spread over a
    process pool and merge back in config order, so the list of report
    dicts is byte-identical to a serial sweep (``0`` = one worker per
    CPU).

    ``shard_size`` additionally shards *within* a config: a fleet larger
    than ``shard_size`` machines is partitioned into contiguous machine
    groups (:func:`repro.sim.parallel.shard_groups`), each group runs as
    its own fleet cell — globally numbered via ``index_base``, so group
    ``g`` simulates exactly the machines ``g*shard_size..`` of the flat
    fleet — and the group reports merge via :func:`merge_group_reports`.
    The planning is :func:`repro.sim.parallel.sharded_sweep`'s, so the
    merged output is byte-identical at any worker count.  This is how the
    10,000-machine sweep runs: 10k machines never fit one schedule's
    working set, but ~40 groups of 256 pipeline through a worker pool.
    """
    from repro.sim.parallel import sharded_sweep

    return sharded_sweep(
        _sweep_cell, [{"machines": 4, **c} for c in configs],
        merge=lambda _, groups: merge_group_reports(groups),
        workers=workers, shard_size=shard_size, split=_split_clients)


def _split_clients(config: dict, base: int, count: int) -> dict:
    """One machine group's cell.  Participation is global ("the first N
    machines"), so each group gets its overlap with ``[0, clients)``."""
    cell = {**config, "machines": count, "index_base": base}
    if config.get("clients") is not None:
        cell["clients"] = max(0, min(config["clients"], base + count) - base)
    return cell


def build_report_dict(report: dict, seed: int,
                      extra_rows: Sequence[Sequence] = ()) -> str:
    """The printable report from a plain report *dict* — the shape both
    :meth:`FleetProjectReport.to_dict` and :func:`merge_group_reports`
    produce, so flat and sharded runs render identically."""
    machine_rows = [
        (
            m["machine_id"],
            m["sessions"],
            f"{m['units_accepted']}/{m['units_accepted'] + m['units_rejected']}",
            f"{m['busy_ms']:.1f}",
            f"{m['utilization']:.4f}",
            m["net_messages"],
            m["net_bytes"],
        )
        for m in report["per_machine"]
    ]
    machine_rows.extend(extra_rows)
    aggregate_rows = [
        ("client machines", report["fleet_size"]),
        ("units accepted / issued",
         f"{report['units_accepted']} / {report['units_issued']}"),
        ("makespan (virtual ms)", f"{report['makespan_ms']:.1f}"),
        ("total sessions", report["total_sessions"]),
        ("sessions / virtual second",
         f"{report['sessions_per_virtual_second']:.3f}"),
        ("fleet efficiency (useful/busy)", f"{report['efficiency']:.3f}"),
        ("network messages", report["network_messages"]),
        ("network bytes", report["network_bytes"]),
    ]
    if "shards" in report:
        aggregate_rows.append(("shard groups", report["shards"]))
    return "\n".join([
        "# Flicker fleet — distributed factoring (§6.2, concurrent)",
        f"(seed {seed}; all times are deterministic virtual-time results)",
        render_table(
            "Per-machine activity",
            ["Machine", "Sessions", "Units ok", "Busy (ms)",
             "Utilization", "Msgs", "Bytes"],
            machine_rows,
        ),
        render_table("Aggregate throughput", ["Quantity", "Value"], aggregate_rows),
    ])


def build_report(fleet: FlickerFleet, report: FleetProjectReport) -> str:
    """The printable report for one finished flat (unsharded) fleet run —
    includes the server machine's row, which only exists when the whole
    fleet ran in this process."""
    server = fleet.machine_reports()[-1]
    server_row = (
        server.machine_id, "-", "-", f"{server.busy_ms:.1f}",
        f"{server.utilization:.4f}", server.net_messages, server.net_bytes,
    )
    return build_report_dict(report.to_dict(), fleet.seed,
                             extra_rows=[server_row])


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fleet_report",
        description="Concurrent multi-machine Flicker fleet throughput report.",
    )
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--units-per-client", type=int, default=2)
    parser.add_argument("--slice-ms", type=float, default=2000.0)
    parser.add_argument("--range-per-unit", type=int, default=400)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--jitter-ms", type=float, default=0.0)
    parser.add_argument("--shard-size", type=int, default=None,
                        help="split fleets larger than N machines into "
                             "contiguous groups run as separate cells")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for sharded runs "
                             "(0 = one per CPU)")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--chrome", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    config = dict(
        machines=args.machines,
        units_per_client=args.units_per_client,
        slice_ms=args.slice_ms,
        range_per_unit=args.range_per_unit,
        seed=args.seed,
        jitter_ms=args.jitter_ms,
        observability=args.chrome is not None,
    )
    if args.shard_size is not None or args.workers != 1:
        if args.chrome:
            parser.error("--chrome requires a flat run "
                         "(drop --shard-size/--workers)")
        [report_dict] = run_fleet_sweep([config], workers=args.workers,
                                        shard_size=args.shard_size)
        fleet = None
        print(build_report_dict(report_dict, args.seed))
    else:
        fleet, report = run_fleet(**config)
        report_dict = report.to_dict()
        print(build_report(fleet, report))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            fh.write(json.dumps(report_dict, sort_keys=True,
                                separators=(", ", ": ")) + "\n")
        print(f"\nwrote JSON report to {args.json}")
    if args.chrome:
        from repro.obs import export_fleet_chrome_trace

        with open(args.chrome, "w") as fh:
            fh.write(export_fleet_chrome_trace(fleet.hubs(), fleet.traces()))
        print(f"wrote Chrome trace to {args.chrome} (load in Perfetto)")


if __name__ == "__main__":
    main()
