"""Sharding seeded simulation runs across worker processes.

Simulation runs in this repository are pure functions of their seeds and
parameters, which makes them embarrassingly parallel: a fault-campaign
cell, a fleet sweep point, or a benchmark trial can execute in any
process and produce the identical record.  :func:`map_seeded` is the one
executor they share — it preserves input order, so callers that merge
results deterministically get **byte-identical output regardless of
worker count**, and that property is what the parallel-vs-serial tests
pin.

:func:`sharded_sweep` is the one planner on top of it for fleet-shaped
sweeps (the fleet, work-distribution and vTPM tools): it splits every
fleet larger than ``shard_size`` machines into :func:`shard_groups`
cells, runs all cells in one :func:`map_seeded` call, and hands each
config's group results back to a per-tool merge in ``index_base`` order.

``workers <= 1`` (the default) runs inline in the calling process with
no multiprocessing import cost; anything the executor is asked to run
must be a module-level callable with picklable items.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def shard_groups(num_items: int, shard_size: int) -> List[Tuple[int, int]]:
    """Partition ``num_items`` into contiguous groups of ``shard_size``.

    Returns ``(index_base, count)`` pairs covering ``0..num_items-1`` in
    order; the last group absorbs the remainder.  This is the partition a
    sharded fleet run uses: each group becomes its own
    :class:`~repro.core.fleet.FlickerFleet` with ``index_base`` set, so
    machine ids and derived seeds stay globally numbered.  The partition
    depends only on ``shard_size`` — never on the worker count — so the
    merged results are byte-identical no matter how the groups are
    scheduled across processes.

    >>> shard_groups(10, 4)
    [(0, 4), (4, 4), (8, 2)]
    """
    if num_items < 1:
        raise ValueError("num_items must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [(base, min(shard_size, num_items - base))
            for base in range(0, num_items, shard_size)]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker request: ``None``/``0`` means one per CPU."""
    if workers is None or workers == 0:
        import os

        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def map_seeded(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int = 1,
) -> List[R]:
    """``[fn(item) for item in items]``, optionally across processes.

    Results always come back in ``items`` order.  With ``workers > 1``
    the calls are sharded over a ``multiprocessing.Pool``; ``fn`` must be
    defined at module level (picklable) and each item must pickle.  The
    chunk size is pinned to 1 so scheduling differences between hosts
    cannot reorder side effects inside a worker — determinism comes from
    the ordered merge, not from scheduling luck.
    """
    workers = resolve_workers(workers)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    with multiprocessing.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


def sharded_sweep(
    cell: Callable[[dict], R],
    configs: Iterable[dict],
    merge: Callable[[dict, List[R]], R],
    workers: int = 1,
    shard_size: Optional[int] = None,
    split: Optional[Callable[[dict, int, int], Optional[dict]]] = None,
) -> List[R]:
    """Run ``cell`` once per config, sharding big fleets into machine groups.

    A config whose ``machines`` exceeds ``shard_size`` becomes one cell
    per :func:`shard_groups` group: ``split(config, base, count)`` builds
    the group's cell, or returns ``None`` to leave the group idle; the
    default is the config with ``machines=count`` and ``index_base=base``.
    Any other config (and every config when ``shard_size`` is ``None``)
    runs whole as a single cell.  All cells of all configs run in one
    :func:`map_seeded` call, then ``merge(config, groups)`` folds each
    config's group results — in ``index_base`` order — into its one
    result.  The partition depends only on ``shard_size``, so the list
    is byte-identical at any worker count.

    >>> sharded_sweep(lambda c: (c.get("index_base", 0), c["machines"]),
    ...               [{"machines": 5}, {"machines": 2}],
    ...               merge=lambda config, groups: groups, shard_size=2)
    [[(0, 2), (2, 2), (4, 1)], [(0, 2)]]
    """
    configs = [dict(c) for c in configs]
    cells: List[dict] = []
    spans: List[int] = []  # cells per config, for the merge
    for config in configs:
        if shard_size is None or config["machines"] <= shard_size:
            cells.append(config)
            spans.append(1)
            continue
        span = 0
        for base, count in shard_groups(config["machines"], shard_size):
            group = (split(config, base, count) if split is not None else
                     {**config, "machines": count, "index_base": base})
            if group is not None:
                cells.append(group)
                span += 1
        spans.append(span)
    results = map_seeded(cell, cells, workers=workers)
    merged: List[R] = []
    cursor = 0
    for config, span in zip(configs, spans):
        merged.append(merge(config, results[cursor:cursor + span]))
        cursor += span
    return merged
