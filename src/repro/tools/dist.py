"""Work-distribution report: ``python -m repro.tools.dist``.

Runs the BOINC-grade distribution service
(:class:`~repro.dist.service.WorkDistributionService`) on a
:class:`~repro.core.fleet.FlickerFleet` and prints the quorum,
reputation, and throughput outcome.  Deterministic: the same seed and
shape print the same bytes on every run and every machine.

Options::

    --machines N          client machines in the fleet (default 8)
    --units N             total work units in the job (default 32)
    --quorum K            vote target for untrusted clients (default 3)
    --trusted-quorum K    vote target for trusted clients (default 1)
    --behaviors SPEC      comma list of INDEX:KIND[:DELAY_MS] client
                          behaviors (kinds: honest lazy forge dropout
                          flaky); unlisted machines are honest
    --faults SPEC         comma list of INDEX:KIND[:MAGNITUDE] fault
                          specs installed per machine (e.g.
                          "2:slb-bit-flip:64,5:tpm-transient")
    --timeout-ms MS       per-assignment response deadline (default 60000)
    --seed N              fleet + job seed (default 2008)
    --shard-size N        split fleets larger than N machines into groups,
                          each its own service, and print the merged cell
                          as JSON (refuses --report and --dump-db)
    --workers N           process-pool size for sharded runs (0 = auto)
    --report              print the human-readable report (default when
                          no other output is selected)
    --json PATH           write the report dict as canonical JSON
    --dump-db PATH        write the byte-canonical job-database dump
    --replay PATH         rebuild the report from a dump instead of
                          running the simulation (proves the report is a
                          pure function of the database)
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.dist import (
    JobDatabase,
    JobSpec,
    QuorumPolicy,
    ReputationPolicy,
    WorkDistributionService,
    build_report,
    parse_behaviors,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.tools import render_table
from repro.tools.fleet_report import DEFAULT_N


def parse_faults(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a CLI fault spec into a per-machine :class:`FaultPlan`.

    Entries are ``INDEX:KIND`` or ``INDEX:KIND:MAGNITUDE``; each becomes
    a :class:`FaultSpec` addressed to ``client-INDEX``::

        >>> plan = parse_faults("2:slb-bit-flip:64,5:tpm-transient")
        >>> (plan.specs[0].machine, plan.specs[0].magnitude)
        ('client-02', 64)
        >>> parse_faults("").specs
        ()
    """
    specs = []
    if spec:
        for entry in spec.split(","):
            parts = entry.strip().split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault entry {entry!r}; want INDEX:KIND[:MAGNITUDE]"
                )
            index = int(parts[0])
            magnitude = int(parts[2]) if len(parts) == 3 else 0
            specs.append(FaultSpec(
                kind=parts[1], magnitude=magnitude,
                machine=f"client-{index:02d}",
            ))
    return FaultPlan(seed=seed, specs=tuple(specs))


def run_dist(
    machines: int = 8,
    units: int = 32,
    quorum: int = 3,
    trusted_quorum: int = 1,
    behaviors: str = "",
    faults: str = "",
    timeout_ms: float = 60_000.0,
    slice_ms: float = 2000.0,
    range_per_unit: int = 400,
    batch_size: int = 16,
    promote_after: int = 3,
    spot_check_every: int = 4,
    seed: int = 2008,
    observability: bool = False,
    n: int = DEFAULT_N,
    index_base: int = 0,
):
    """Build fleet + service, install faults, run; returns
    ``(service, report)``.  ``index_base`` numbers the machines globally
    (a sharded sweep runs each machine group as its own service)."""
    from repro.core.fleet import FlickerFleet

    fleet = FlickerFleet(num_machines=machines, seed=seed,
                         observability=observability,
                         index_base=index_base)
    plan = parse_faults(faults, seed=seed)
    for host in fleet.hosts:
        sub = plan.for_machine(host.machine_id)
        if sub.specs:
            FaultInjector(sub).install(host.platform)
    service = WorkDistributionService(
        fleet,
        JobSpec(n=n, total_units=units, range_per_unit=range_per_unit,
                batch_size=batch_size, slice_ms=slice_ms,
                timeout_ms=timeout_ms),
        quorum=QuorumPolicy(base_quorum=quorum,
                            trusted_quorum=trusted_quorum),
        reputation=ReputationPolicy(promote_after=promote_after,
                                    spot_check_every=spot_check_every),
        behaviors=parse_behaviors(behaviors),
    )
    return service, service.run()


def _sweep_cell(config: dict) -> dict:
    """One service run for the sweep executor — module-level so worker
    processes can unpickle it.  Returns the report dict plus the job
    database's dump digest (the replay-identity witness)."""
    from repro.crypto.sha1 import sha1

    service, report = run_dist(**config)
    cell = report.to_dict()
    cell["db_sha1"] = sha1(service.db.dump_json().encode()).hex()
    return cell


def merge_group_cells(groups: List[dict]) -> dict:
    """Merge per-group report cells from one sharded distribution run.

    Counters sum, the makespan is the slowest group's, and the three
    rates are recomputed from merged totals.  ``db_sha1`` becomes the
    digest of the concatenated group digests (in ``index_base`` order) —
    still a replay-identity witness, now for the whole group set.
    """
    from repro.crypto.sha1 import sha1

    if len(groups) == 1:
        return groups[0]
    merged = {"schema": groups[0].get("schema"), "shards": len(groups)}
    for key in ("fleet_size", "total_units", "units_validated",
                "units_abandoned", "units_unresolved", "units_flagged",
                "assignments", "resends", "timeouts", "late", "failures",
                "rejected_attestation", "rejected_state", "total_sessions",
                "verify_count"):
        merged[key] = sum(g[key] for g in groups)
    merged["verify_busy_ms"] = round(sum(g["verify_busy_ms"]
                                         for g in groups), 6)
    merged["makespan_ms"] = max(g["makespan_ms"] for g in groups)
    merged["max_verify_queue_depth"] = max(g["max_verify_queue_depth"]
                                           for g in groups)
    merged["resend_rate"] = round(
        merged["resends"] / merged["assignments"]
        if merged["assignments"] else 0.0, 6)
    merged["sessions_per_virtual_second"] = round(
        merged["total_sessions"] / (merged["makespan_ms"] / 1000.0)
        if merged["makespan_ms"] > 0 else 0.0, 6)
    merged["verify_throughput_per_vsec"] = round(
        merged["verify_count"] / (merged["verify_busy_ms"] / 1000.0)
        if merged["verify_busy_ms"] > 0 else 0.0, 6)
    merged["found"] = sorted(set(f for g in groups for f in g["found"]))
    merged["per_client"] = [c for g in groups for c in g["per_client"]]
    merged["group_db_sha1"] = [g["db_sha1"] for g in groups]
    merged["db_sha1"] = sha1(
        "".join(g["db_sha1"] for g in groups).encode()).hex()
    return merged


def run_dist_sweep(configs, workers: int = 1,
                   shard_size: Optional[int] = None):
    """Run many independent service simulations, optionally in parallel.

    Each config is a keyword dict for :func:`run_dist`.  One run is a
    single discrete-event schedule, but the sweep shards perfectly:
    ``workers > 1`` spreads the runs over a process pool and merges in
    config order, byte-identical to a serial sweep.

    ``shard_size`` additionally shards *within* a config: a fleet larger
    than ``shard_size`` machines splits into contiguous machine groups
    (:func:`repro.sim.parallel.sharded_sweep`), each with its own service
    instance and a proportional share of the work units (an exact
    partition — group shares always sum to the config's ``units``).
    Groups whose share rounds to zero units are skipped; their machines
    stay idle and are reported in the merged cell's ``machines_idle``.
    The partition depends only on ``shard_size``, never the worker
    count, so merged output is byte-identical at any worker count.
    """
    from repro.sim.parallel import sharded_sweep

    return sharded_sweep(
        _sweep_cell, [{"machines": 8, "units": 32, **c} for c in configs],
        merge=_merge_config, workers=workers, shard_size=shard_size,
        split=_split_units)


def _split_units(config: dict, base: int, count: int) -> Optional[dict]:
    """One machine group's cell with its exact proportional unit share
    (cumulative-quota differencing), or ``None`` if the share is zero."""
    units, machines = config["units"], config["machines"]
    share = units * (base + count) // machines - units * base // machines
    if share == 0:
        return None
    return {**config, "machines": count, "units": share, "index_base": base}


def _merge_config(config: dict, groups: List[dict]) -> dict:
    """Merge one config's group cells; machines in groups that
    :func:`_split_units` left idle are counted in ``machines_idle``."""
    cell = merge_group_cells(groups)
    idle = config["machines"] - sum(g["fleet_size"] for g in groups)
    if idle:
        cell["machines_idle"] = idle
    return cell


def format_report(report) -> str:
    """The printable report for one finished (or replayed) run."""
    client_rows = [
        (
            c["client"],
            c["issued"],
            c["returned"],
            c["valid"],
            c["outvoted"],
            c["rejected"],
            c["timeouts"],
            c["late"],
            c["spot_checks"],
            "yes" if c["trusted"] else "no",
        )
        for c in report.per_client
    ]
    aggregate_rows = [
        ("client machines", report.fleet_size),
        ("units validated / total",
         f"{report.units_validated} / {report.total_units}"),
        ("units abandoned", report.units_abandoned),
        ("units flagged (ever)", report.units_flagged),
        ("assignments (resends)",
         f"{report.assignments} ({report.resends})"),
        ("resend rate", f"{report.resend_rate:.4f}"),
        ("rejected: attestation / state",
         f"{report.rejected_attestation} / {report.rejected_state}"),
        ("timeouts / late / failures",
         f"{report.timeouts} / {report.late} / {report.failures}"),
        ("makespan (virtual ms)", f"{report.makespan_ms:.1f}"),
        ("sessions / virtual second",
         f"{report.sessions_per_virtual_second:.3f}"),
        ("verify throughput (/vsec)",
         f"{report.verify_throughput_per_vsec:.1f}"),
        ("max verify queue depth", report.max_verify_queue_depth),
        ("factors found", " ".join(str(f) for f in report.found)),
    ]
    return "\n".join([
        "# Flicker work distribution — quorum over attested results",
        "(all times are deterministic virtual-time results)",
        render_table(
            "Per-client outcomes",
            ["Client", "Issued", "Ret", "Valid", "Outvoted", "Rej",
             "T/O", "Late", "Spot", "Trusted"],
            client_rows,
        ),
        render_table("Aggregate", ["Quantity", "Value"], aggregate_rows),
    ])


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.dist",
        description="BOINC-grade work distribution with quorum validation "
                    "of attested results.",
    )
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--units", type=int, default=32)
    parser.add_argument("--quorum", type=int, default=3)
    parser.add_argument("--trusted-quorum", type=int, default=1)
    parser.add_argument("--behaviors", default="")
    parser.add_argument("--faults", default="")
    parser.add_argument("--timeout-ms", type=float, default=60_000.0)
    parser.add_argument("--slice-ms", type=float, default=2000.0)
    parser.add_argument("--range-per-unit", type=int, default=400)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--shard-size", type=int, default=None,
                        help="split fleets larger than this into machine "
                             "groups, each its own service instance")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sharded groups "
                             "(0 = one per CPU)")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--dump-db", metavar="PATH", default=None)
    parser.add_argument("--replay", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    if args.shard_size is not None and not args.replay:
        import json

        if args.report or args.dump_db:
            parser.error("--report and --dump-db require a flat run "
                         "(drop --shard-size)")
        config = dict(
            machines=args.machines, units=args.units, quorum=args.quorum,
            trusted_quorum=args.trusted_quorum, behaviors=args.behaviors,
            faults=args.faults, timeout_ms=args.timeout_ms,
            slice_ms=args.slice_ms, range_per_unit=args.range_per_unit,
            batch_size=args.batch_size, seed=args.seed,
        )
        [cell] = run_dist_sweep([config], workers=args.workers,
                                shard_size=args.shard_size)
        payload = json.dumps(cell, sort_keys=True,
                             separators=(",", ": ")) + "\n"
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"wrote JSON report to {args.json}")
        else:
            print(payload, end="")
        return

    if args.replay:
        with open(args.replay) as fh:
            db = JobDatabase.from_json(fh.read())
        report = build_report(db)
        service = None
        print(f"(replayed from {args.replay}; no simulation ran)")
    else:
        service, report = run_dist(
            machines=args.machines,
            units=args.units,
            quorum=args.quorum,
            trusted_quorum=args.trusted_quorum,
            behaviors=args.behaviors,
            faults=args.faults,
            timeout_ms=args.timeout_ms,
            slice_ms=args.slice_ms,
            range_per_unit=args.range_per_unit,
            batch_size=args.batch_size,
            seed=args.seed,
        )

    if args.report or not (args.json or args.dump_db):
        print(format_report(report))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True,
                                separators=(",", ": ")) + "\n")
        print(f"wrote JSON report to {args.json}")
    if args.dump_db:
        if service is None:
            raise SystemExit("--dump-db needs a live run, not --replay")
        with open(args.dump_db, "w") as fh:
            fh.write(service.db.dump_json())
        print(f"wrote job-database dump to {args.dump_db}")


if __name__ == "__main__":
    main()
