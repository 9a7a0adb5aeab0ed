"""The seeded-map executor: order, worker resolution, parallel identity."""

import pytest

from repro.sim.parallel import map_seeded, resolve_workers, sharded_sweep


def square(x):
    """Module-level so a worker process can unpickle it."""
    return x * x


def group_cell(config):
    """Module-level sweep cell: which machines the cell covers, plus a
    seeded digest standing in for the simulation result."""
    base = config.get("index_base", 0)
    return {"machines": list(range(base, base + config["machines"])),
            "digest": seeded_digest(config["seed"] + base)}


def seeded_digest(seed):
    """A deterministic 'simulation': hash of a seeded byte pattern."""
    from repro.crypto.sha1 import sha1

    return sha1(bytes((seed * i) & 0xFF for i in range(64))).hex()


class TestResolveWorkers:
    def test_none_and_zero_mean_one_per_cpu(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestMapSeeded:
    def test_inline_mode_preserves_order(self):
        assert map_seeded(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        assert map_seeded(square, []) == []
        assert map_seeded(square, [], workers=4) == []

    def test_single_item_runs_inline_even_with_workers(self):
        assert map_seeded(square, [7], workers=8) == [49]

    def test_parallel_results_identical_to_serial(self):
        seeds = list(range(8))
        serial = map_seeded(seeded_digest, seeds, workers=1)
        parallel = map_seeded(seeded_digest, seeds, workers=2)
        assert parallel == serial

    def test_parallel_preserves_input_order(self):
        items = [5, 3, 8, 1, 9, 2]
        assert map_seeded(square, items, workers=2) == [square(i) for i in items]


class TestShardGroups:
    def test_even_split(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(8, 4) == [(0, 4), (4, 4)]

    def test_ragged_tail(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_single_group_when_shard_covers(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(3, 100) == [(0, 3)]

    def test_groups_cover_exactly_once(self):
        from repro.sim.parallel import shard_groups
        groups = shard_groups(10_000, 256)
        covered = [i for base, count in groups
                   for i in range(base, base + count)]
        assert covered == list(range(10_000))

    def test_invalid_arguments_rejected(self):
        from repro.sim.parallel import shard_groups
        with pytest.raises(ValueError):
            shard_groups(-1, 4)
        with pytest.raises(ValueError):
            shard_groups(10, 0)


def concat(config, groups):
    return {"seed": config["seed"],
            "machines": [m for g in groups for m in g["machines"]],
            "groups": len(groups)}


class TestShardedSweep:
    CONFIGS = [{"machines": 10, "seed": 1}, {"machines": 3, "seed": 2}]

    def test_no_sharding_at_or_below_shard_size(self):
        merged = sharded_sweep(group_cell, self.CONFIGS, merge=concat,
                               shard_size=10)
        assert [m["groups"] for m in merged] == [1, 1]
        assert merged == sharded_sweep(group_cell, self.CONFIGS, merge=concat)

    def test_groups_merge_in_index_base_order(self):
        merged = sharded_sweep(group_cell, self.CONFIGS, merge=concat,
                               shard_size=4)
        assert [m["groups"] for m in merged] == [3, 1]  # 4+4+2, then 3
        assert merged[0]["machines"] == list(range(10))
        assert [m["seed"] for m in merged] == [1, 2]

    def test_split_returning_none_drops_that_group(self):
        def skip_middle(config, base, count):
            if base == 4:
                return None
            return {**config, "machines": count, "index_base": base}

        [merged] = sharded_sweep(group_cell, self.CONFIGS[:1], merge=concat,
                                 shard_size=4, split=skip_middle)
        assert merged["groups"] == 2
        assert merged["machines"] == [0, 1, 2, 3, 8, 9]

    def test_worker_count_does_not_change_result(self):
        serial = sharded_sweep(group_cell, self.CONFIGS, merge=concat,
                               workers=1, shard_size=4)
        parallel = sharded_sweep(group_cell, self.CONFIGS, merge=concat,
                                 workers=2, shard_size=4)
        assert parallel == serial
