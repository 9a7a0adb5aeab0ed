"""Fleet scaling — aggregate session throughput vs fleet size.

The fleet's figure of merit: N client machines running the §6.2
distributed-factoring workload *concurrently* complete ~N× the Flicker
sessions of one machine in the same virtual interval, because each
machine's TPM-dominated session cost is paid in parallel while the
server's per-result verification (three RSA public ops, well under a
millisecond) stays negligible.

Three sections:

* ``virtual.sweep`` — the classic scaling sweep (byte-pinned by the
  committed baseline).
* ``virtual.tenk`` — a 10,000-machine fleet: lazily materialized,
  sharded into machine groups (:func:`repro.sim.parallel.shard_groups`),
  with a sparse active client set.  The full per-machine report (10k
  rows) is too large to commit, so the baseline pins the aggregates plus
  ``report_sha1``, the digest of the canonical full report — any
  behavior drift in any of the 10,000 rows changes the digest.
* ``wall`` — measured wall-clock costs: sweep and 10k-sweep durations,
  the headline **sessions per wall-clock second** for the 10k fleet, and
  the template-vs-eager construction comparison (the ``speedup_x``
  acceptance metric: lazy 10k fleet construction vs eager per-machine
  construction, sampled and extrapolated).

Registered with the unified runner as ``fleet``; the committed
``BENCH_fleet.json`` baseline is produced by
``python -m repro.tools.bench --quick`` (see docs/BENCHMARKS.md for the
refresh procedure).  The sweep itself runs through
:func:`repro.tools.fleet_report.run_fleet_sweep`, so ``workers > 1``
shards the cells across processes with byte-identical results.
"""

import json
import time

from repro.bench import register
from repro.tools.fleet_report import run_fleet_sweep

FLEET_SIZES = (1, 4, 16, 64)
QUICK_SIZES = (1, 4, 16)

#: Machines in the big-fleet cell (the ISSUE-8 scale target).
TENK_MACHINES = 10_000
#: Machines per shard group for the big-fleet cell.
TENK_SHARD = 256
#: Active clients: nightly full mode works a whole shard's worth...
TENK_CLIENTS = 256
#: ...while the committed quick baseline keeps CI fast with 16.
TENK_CLIENTS_QUICK = 16

#: Machines timed per construction mode (eager construction of all 10k
#: would take minutes; the per-machine cost is flat, so a sample
#: extrapolates faithfully and the sample size is recorded).
CONSTRUCTION_SAMPLE = 8


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "))


def _tenk_cell(seed, units_per_client, slice_ms, range_per_unit,
               big_machines, big_clients, big_shard, workers):
    """Run the sharded big-fleet sweep; returns (virtual-dict, seconds)."""
    from repro.crypto.sha1 import sha1

    config = dict(machines=big_machines, units_per_client=units_per_client,
                  slice_ms=slice_ms, range_per_unit=range_per_unit,
                  seed=seed, clients=big_clients)
    start = time.perf_counter()
    [report] = run_fleet_sweep([config], workers=workers,
                               shard_size=big_shard)
    elapsed = time.perf_counter() - start
    digest = sha1(_canonical(report).encode()).hex()
    cell = {k: v for k, v in report.items() if k != "per_machine"}
    cell["active_clients"] = big_clients
    cell["report_sha1"] = digest
    return cell, elapsed


def _construction_wall(big_machines, sample):
    """Template/lazy vs eager per-machine construction, wall-clock.

    The eager baseline uses ``eager_identity`` clones on fresh seeds
    (disjoint from every cache) — the pre-template construction path,
    where each machine pays keygen and AIK enrolment up front.
    """
    from repro.core.fleet import FlickerFleet, derive_machine_seed
    from repro.core.session import FlickerPlatform

    start = time.perf_counter()
    fleet = FlickerFleet(num_machines=big_machines, seed=2008)
    lazy_fleet_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(sample):
        fleet.hosts[i].platform.tqd.aik_certificate  # noqa: B018
    lazy_per_machine = (time.perf_counter() - start) / sample

    template = FlickerPlatform.template()
    seeds = [derive_machine_seed(0xE5CA1ADE, i) for i in range(sample)]
    start = time.perf_counter()
    for i, seed in enumerate(seeds):
        template.clone(seed=seed, machine_id=f"eager-{i:02d}",
                       eager_identity=True)
    eager_per_machine = (time.perf_counter() - start) / sample

    eager_extrapolated = eager_per_machine * big_machines
    return {
        "lazy_fleet_seconds": round(lazy_fleet_seconds, 6),
        "lazy_active_per_machine_seconds": round(lazy_per_machine, 6),
        "eager_per_machine_seconds": round(eager_per_machine, 6),
        "eager_extrapolated_s": round(eager_extrapolated, 3),
        "sample_machines": sample,
        "speedup_x": round(eager_extrapolated / lazy_fleet_seconds, 1)
        if lazy_fleet_seconds > 0 else float("inf"),
    }


def run_bench(sizes=FLEET_SIZES, seed=2008, units_per_client=1,
              slice_ms=2000.0, range_per_unit=400, workers=1,
              big_machines=TENK_MACHINES, big_clients=TENK_CLIENTS,
              big_shard=TENK_SHARD, construction_sample=CONSTRUCTION_SAMPLE):
    """Registered entry point: scaling sweep + 10k fleet + wall costs."""
    from repro.crypto.rsa import keygen_cache_info

    configs = [
        dict(machines=size, units_per_client=units_per_client,
             slice_ms=slice_ms, range_per_unit=range_per_unit, seed=seed)
        for size in sizes
    ]
    start = time.perf_counter()
    reports = run_fleet_sweep(configs, workers=workers)
    sweep_seconds = time.perf_counter() - start

    tenk, tenk_seconds = _tenk_cell(
        seed, units_per_client, slice_ms, range_per_unit,
        big_machines, big_clients, big_shard, workers)
    construction = _construction_wall(big_machines, construction_sample)

    sessions_per_wall = (tenk["total_sessions"] / tenk_seconds
                         if tenk_seconds > 0 else 0.0)

    # Every unit on every fleet size verifies.
    for size, report in zip(sizes, reports):
        assert report["units_accepted"] == size * units_per_client
        assert report["units_rejected"] == 0
    # The scaling claim: 16 machines deliver >= 10x the aggregate virtual
    # throughput of one machine (near-linear; the gap is network latency
    # plus the server's serialized verification work), and every larger
    # fleet delivers more.
    throughput = dict(zip(sizes, (r["sessions_per_virtual_second"]
                                  for r in reports)))
    if 1 in throughput and 16 in throughput:
        assert throughput[16] >= 10.0 * throughput[1]
    ordered = [throughput[size] for size in sorted(sizes)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    # The 10k fleet: every dispatched unit verifies, all machines are
    # accounted for, and template/lazy construction beats eager
    # per-machine construction by the required 50x margin.
    assert tenk["fleet_size"] == big_machines
    assert tenk["units_accepted"] == big_clients * units_per_client
    assert tenk["units_rejected"] == 0
    assert construction["speedup_x"] >= 50.0

    return {
        "virtual": {
            "sweep": {str(size): report
                      for size, report in zip(sizes, reports)},
            "tenk": tenk,
        },
        "wall": {
            "sweep_seconds": round(sweep_seconds, 3),
            "tenk_sweep_seconds": round(tenk_seconds, 3),
            # The headline: attested Flicker sessions simulated per
            # wall-clock second on the 10,000-machine fleet.
            "tenk_sessions_per_wall_sec": round(sessions_per_wall, 1),
            "construction": construction,
            "keygen_cache": keygen_cache_info(),
        },
    }


register(
    "fleet", run_bench,
    params={"sizes": FLEET_SIZES, "seed": 2008, "units_per_client": 1,
            "slice_ms": 2000.0, "range_per_unit": 400, "workers": 1,
            "big_machines": TENK_MACHINES, "big_clients": TENK_CLIENTS,
            "big_shard": TENK_SHARD,
            "construction_sample": CONSTRUCTION_SAMPLE},
    quick_params={"sizes": QUICK_SIZES, "seed": 2008, "units_per_client": 1,
                  "slice_ms": 2000.0, "range_per_unit": 400, "workers": 1,
                  "big_machines": TENK_MACHINES,
                  "big_clients": TENK_CLIENTS_QUICK,
                  "big_shard": TENK_SHARD,
                  "construction_sample": CONSTRUCTION_SAMPLE},
    description="Fleet scaling: sessions/virtual-second vs fleet size, "
                "plus the sharded 10,000-machine sweep and template-clone "
                "construction speedup (distributed factoring, §6.2)",
)
