"""Sharded group execution: a big fleet partitioned into machine groups
runs each group as its own cell and merges back byte-identically at any
worker count — the ISSUE-8 scale path for the 10,000-machine sweep."""

import hashlib
import json

import pytest

from repro.tools.fleet_report import merge_group_reports, run_fleet_sweep

pytestmark = pytest.mark.slow


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def merge_pin(result):
    return hashlib.sha1(json.dumps(
        result, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _fleet_pin_case():
    return run_fleet_sweep(
        [dict(machines=10, clients=6, seed=2008), dict(machines=3, seed=7)],
        workers=1, shard_size=4)


def _dist_pin_case():
    from repro.tools.dist import run_dist_sweep

    # Idle groups (5 units over 4 groups; 2 and 1 units over 4 and 3
    # groups) and a config whose single group survives.
    return run_dist_sweep(
        [dict(machines=7, units=5, seed=2008), dict(machines=8, units=2, seed=3),
         dict(machines=6, units=1, seed=4)],
        workers=1, shard_size=2)


def _vtpm_pin_case():
    from repro.tools.vtpm import run_vtpm_sweep

    # An odd shard size, rounded up to keep migration pairs together.
    return run_vtpm_sweep(dict(machines=6, tenants=2, sessions=2, seed=2008),
                          workers=1, shard_size=3)


@pytest.mark.parametrize("run, digest", [
    (_fleet_pin_case, "9589d8a7abf5bf3bf131f9064d8b88a8444e599b"),
    (_dist_pin_case, "01096b737505d7befa02213f141496e6aa8b7aae"),
    (_vtpm_pin_case, "add8deba3bee640817162bd3fd2c027cfd1161b1"),
], ids=["fleet", "dist", "vtpm"])
def test_merged_sweep_bytes_are_pinned(run, digest):
    """The merged results of all three sharded sweeps, byte for byte."""
    assert merge_pin(run()) == digest


FLEET_CONFIG = dict(machines=10, units_per_client=1, slice_ms=2000.0,
                    range_per_unit=400, seed=2008)


class TestShardedFleetSweep:
    def test_worker_count_does_not_change_bytes(self):
        serial = run_fleet_sweep([FLEET_CONFIG], workers=1, shard_size=4)
        parallel = run_fleet_sweep([FLEET_CONFIG], workers=2, shard_size=4)
        assert canonical(serial) == canonical(parallel)

    def test_sharded_report_shape(self):
        [report] = run_fleet_sweep([FLEET_CONFIG], workers=1, shard_size=4)
        assert report["shards"] == 3  # 4 + 4 + 2
        assert report["fleet_size"] == 10
        assert report["units_accepted"] == 10
        assert report["units_rejected"] == 0
        assert [m["machine_id"] for m in report["per_machine"]] == [
            f"client-{i:02d}" for i in range(10)
        ]

    def test_shard_size_covering_fleet_is_unsharded(self):
        """A shard size >= the fleet leaves the run whole: no group
        split, no ``shards`` key, bytes identical to a plain sweep."""
        [whole] = run_fleet_sweep([FLEET_CONFIG], workers=1)
        [covered] = run_fleet_sweep([FLEET_CONFIG], workers=1, shard_size=64)
        assert "shards" not in covered
        assert canonical(whole) == canonical(covered)

    def test_global_client_prefix_spans_groups(self):
        """clients=6 with shard_size=4 means groups work 4, 2, 0 active
        clients — participation is a *global* machine prefix."""
        config = {**FLEET_CONFIG, "clients": 6}
        [report] = run_fleet_sweep([config], workers=1, shard_size=4)
        assert report["units_accepted"] == 6
        active = [m["machine_id"] for m in report["per_machine"]
                  if m["sessions"] > 0]
        assert active == [f"client-{i:02d}" for i in range(6)]

    def test_merge_recomputes_rates_from_totals(self):
        groups = [
            {"fleet_size": 2, "units_issued": 2, "units_accepted": 2,
             "units_rejected": 0, "makespan_ms": 1000.0, "total_sessions": 4,
             "total_busy_ms": 800.0, "useful_ms": 400.0, "network_bytes": 10,
             "network_messages": 4, "per_machine": [{"machine_id": "client-00"}],
             "efficiency": 0.5, "sessions_per_virtual_second": 4.0},
            {"fleet_size": 1, "units_issued": 1, "units_accepted": 1,
             "units_rejected": 0, "makespan_ms": 2000.0, "total_sessions": 2,
             "total_busy_ms": 200.0, "useful_ms": 100.0, "network_bytes": 5,
             "network_messages": 2, "per_machine": [{"machine_id": "client-02"}],
             "efficiency": 0.5, "sessions_per_virtual_second": 1.0},
        ]
        merged = merge_group_reports(groups)
        assert merged["fleet_size"] == 3
        assert merged["makespan_ms"] == 2000.0  # slowest group
        assert merged["total_sessions"] == 6
        assert merged["efficiency"] == 0.5
        # 6 sessions / 2 virtual seconds, recomputed — not an average.
        assert merged["sessions_per_virtual_second"] == 3.0
        assert merged["shards"] == 2

    def test_single_group_merge_is_identity(self):
        group = {"fleet_size": 1, "anything": True}
        assert merge_group_reports([group]) is group


class TestShardedDistSweep:
    def test_worker_count_does_not_change_bytes(self):
        from repro.tools.dist import run_dist_sweep

        config = dict(machines=6, units=12, seed=2008)
        serial = run_dist_sweep([config], workers=1, shard_size=2)
        parallel = run_dist_sweep([config], workers=2, shard_size=2)
        assert canonical(serial) == canonical(parallel)

    def test_unit_split_is_exact_and_proportional(self):
        from repro.tools.dist import run_dist_sweep

        config = dict(machines=5, units=11, seed=2008)
        [cell] = run_dist_sweep([config], workers=1, shard_size=2)
        # 11 units over groups of 2+2+1 machines: quotas 4/5, 4/5, 1/5
        # by cumulative differencing — every unit lands exactly once.
        assert cell["total_units"] == 11
        assert cell["units_validated"] == 11
        assert cell["fleet_size"] == 5
        assert cell["group_db_sha1"] and len(cell["db_sha1"]) == 40
