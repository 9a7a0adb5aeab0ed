"""The campaign engine: seeded, sharded, coverage-guided fuzzing.

A campaign splits its execution budget over a *fixed* number of shards
(default 8) regardless of worker count.  Each shard is a self-contained
coverage-guided loop — its own RNG fork, its own corpus of interesting
cases, its own edge map — executed via
:func:`repro.sim.parallel.map_seeded` and merged in shard order.  Because
shard results are pure functions of ``(campaign seed, shard index)`` and
the merge is ordered, the final report is **byte-identical at any worker
count** — the property the acceptance tests pin.

Within a shard the classic AFL loop applies: pick a parent from the
interesting set (biased toward recent additions), apply 1–4 mutations,
execute under the edge collector, and keep the child if it covered new
edges.  Counterexamples are minimized immediately, in-shard, so the
merged report only ever contains minimal reproducers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.fuzz.case import TARGETS, FuzzCase
from repro.fuzz.coverage import CoverageMap, EdgeCollector
from repro.fuzz.minimize import minimize_case
from repro.fuzz.mutators import mutate, seed_corpus
from repro.fuzz.targets import run_case
from repro.sim.rng import DeterministicRNG

DEFAULT_SHARDS = 8


def _reset_hot_caches() -> None:
    """Pin every shard's starting cache state to that of a fresh process.

    Edge coverage is sensitive to process-global memoization: a warm
    :data:`repro.crypto.rsa._KEYGEN_CACHE`, ``sha1_cached``, SLB
    constant-bytes or PAL-source entry skips lines a cold one executes,
    so a shard's edges would depend on what ran earlier in the same
    process — breaking the byte-identical-at-any-worker-count guarantee.
    Clearing them all at shard entry makes shard output a pure function
    of (campaign seed, shard index).
    """
    import importlib

    # importlib.import_module dodges the package attribute shadowing the
    # sha1 *function* over the sha1 *module* in ``import a.b as m`` form.
    rsa_mod = importlib.import_module("repro.crypto.rsa")
    sha1_mod = importlib.import_module("repro.crypto.sha1")
    slb_mod = importlib.import_module("repro.core.slb")
    pal_mod = importlib.import_module("repro.core.pal")
    rsa_mod._KEYGEN_CACHE.clear()
    sha1_mod.sha1_cached.cache_clear()
    slb_mod._module_binary.cache_clear()
    slb_mod._bootstrap_stub.cache_clear()
    pal_mod._class_source.cache_clear()


def _run_shard(args: tuple) -> dict:
    """One shard's fuzz loop (module-level: must pickle for map_seeded)."""
    seed, shard_index, executions, targets, backend = args
    _reset_hot_caches()
    rng = DeterministicRNG(seed).fork(f"fuzz-shard:{shard_index}")
    collector = EdgeCollector(backend=backend)
    coverage = CoverageMap()
    timeline: List[int] = []
    counterexamples: List[dict] = []
    executed = 0
    rejected = 0
    by_target: Dict[str, int] = {t: 0 for t in targets}

    # Interesting set: seed cases first, coverage-increasing children after.
    pool: List[FuzzCase] = []
    for target in targets:
        pool.extend(seed_corpus(target))

    queue: List[FuzzCase] = list(pool)
    while executed < executions:
        if queue:
            case = queue.pop(0)
        else:
            # Bias parent choice toward recent (coverage-increasing) finds.
            span = len(pool)
            index = span - 1 - min(rng.randint(0, span - 1),
                                   rng.randint(0, span - 1))
            case = pool[index]
            for _ in range(1 + rng.randint(0, 3)):
                case = mutate(case, rng)
        executed += 1
        by_target[case.target] = by_target.get(case.target, 0) + 1
        result, edges = collector.collect(lambda: run_case(case))
        new_edges = coverage.observe(edges)
        timeline.append(coverage.edge_count)
        if result.status == "rejected":
            rejected += 1
        if result.status == "counterexample":
            small, small_result = minimize_case(case, result)
            counterexamples.append({
                "case": small.to_dict(),
                "digest": small.digest(),
                "oracle": small_result.oracle,
                "detail": small_result.detail,
                "shard": shard_index,
            })
        elif new_edges and len(pool) < 512:
            pool.append(case)

    return {
        "shard": shard_index,
        "executions": executed,
        "rejected": rejected,
        "by_target": by_target,
        "edges": coverage.sorted_edges(),
        "edge_timeline": timeline,
        "counterexamples": counterexamples,
    }


class FuzzCampaign:
    """A full deterministic campaign over the four security targets."""

    def __init__(
        self,
        seed: int = 2008,
        executions: int = 400,
        targets: Sequence[str] = TARGETS,
        shards: int = DEFAULT_SHARDS,
        workers: int = 1,
        backend: Optional[str] = None,
    ) -> None:
        for target in targets:
            if target not in TARGETS:
                raise ValueError(f"unknown fuzz target: {target!r}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.seed = seed
        self.executions = executions
        self.targets = tuple(targets)
        self.shards = shards
        self.workers = workers
        self.backend = backend

    def _shard_budgets(self) -> List[int]:
        base, extra = divmod(self.executions, self.shards)
        return [base + (1 if i < extra else 0) for i in range(self.shards)]

    def run(self) -> dict:
        """Execute the campaign; returns the canonical report dict."""
        from repro.sim.parallel import map_seeded

        budgets = self._shard_budgets()
        jobs = [
            (self.seed, i, budgets[i], self.targets, self.backend)
            for i in range(self.shards)
            if budgets[i] > 0
        ]
        shard_reports = map_seeded(_run_shard, jobs, workers=self.workers)

        coverage = CoverageMap()
        cumulative: List[int] = []
        counterexamples: List[dict] = []
        by_target: Dict[str, int] = {t: 0 for t in self.targets}
        executed = 0
        rejected = 0
        for report in shard_reports:  # shard order == input order (ordered merge)
            coverage.observe(tuple(edge) for edge in report["edges"])
            cumulative.append(coverage.edge_count)
            counterexamples.extend(report["counterexamples"])
            executed += report["executions"]
            rejected += report["rejected"]
            for target, count in report["by_target"].items():
                by_target[target] = by_target.get(target, 0) + count

        # Deduplicate minimized counterexamples by case digest.
        unique: Dict[str, dict] = {}
        for finding in counterexamples:
            unique.setdefault(finding["digest"], finding)

        return {
            "campaign": {
                "seed": self.seed,
                "executions": self.executions,
                "shards": self.shards,
                "targets": sorted(self.targets),
            },
            "coverage": {
                "edges": coverage.edge_count,
                "digest": coverage.digest(),
                "modules": coverage.modules_covered(),
                "cumulative_by_shard": cumulative,
                "shard_timelines": [
                    report["edge_timeline"] for report in shard_reports
                ],
            },
            "executions": {
                "total": executed,
                "rejected": rejected,
                "by_target": {t: by_target[t] for t in sorted(by_target)},
            },
            "counterexamples": [
                unique[digest] for digest in sorted(unique)
            ],
            "summary": {
                "counterexamples": len(unique),
                "clean": not unique,
            },
        }

    @staticmethod
    def report_json(report: dict) -> str:
        """Canonical JSON encoding — byte-identical for identical reports."""
        return json.dumps(report, sort_keys=True, indent=2) + "\n"


def edge_monotonicity(report: dict) -> bool:
    """True when every edge timeline in the report is non-decreasing."""
    series: List[List[int]] = list(report["coverage"]["shard_timelines"])
    series.append(report["coverage"]["cumulative_by_shard"])
    return all(
        all(b >= a for a, b in zip(line, line[1:])) for line in series
    )
