"""Fuzzer smoke benchmark: a bounded coverage-guided campaign plus a
full corpus replay.

The same workload is runnable standalone as
``python -m repro.tools.fuzz --smoke``; here the unified runner tracks
throughput and pins the standing invariants: the campaign finds zero
surviving counterexamples and every committed corpus entry replays with
its recorded verdict.

Coverage metrics (edge counts, the report digest) depend on the Python
version's tracing backend (``sys.monitoring`` on 3.12+ vs
``sys.settrace``), so they live in the informational ``wall`` section —
only version-stable facts (execution totals, the zero-counterexample
invariant, corpus replay verdicts) sit in the exact-gated ``virtual``
section.
"""

import time
from pathlib import Path

from repro.bench import register
from repro.fuzz import FuzzCampaign, load_corpus

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "fuzz" / "corpus"


def run_bench(seed=2008, executions=120, workers=1):
    """Registered entry point: campaign invariants + corpus replay."""
    campaign = FuzzCampaign(seed=seed, executions=executions, workers=workers)
    start = time.perf_counter()
    report = campaign.run()
    elapsed = time.perf_counter() - start

    entries = load_corpus(CORPUS_DIR)
    corpus_all_hold = all(entry.replay()[0] for entry in entries)

    assert report["executions"]["total"] == executions
    assert report["summary"]["counterexamples"] == 0
    assert report["summary"]["clean"]
    assert corpus_all_hold

    return {
        "virtual": {
            "executions": report["executions"]["total"],
            "counterexamples": report["summary"]["counterexamples"],
            "clean": report["summary"]["clean"],
            "corpus_entries": len(entries),
            "corpus_all_hold": corpus_all_hold,
        },
        "wall": {
            "executions_per_sec": round(
                report["executions"]["total"] / elapsed, 1) if elapsed else 0.0,
            "coverage_edges": report["coverage"]["edges"],
            "coverage_modules": len(report["coverage"]["modules"]),
            "report_digest": report["coverage"]["digest"],
        },
    }


register(
    "fuzz", run_bench,
    params={"seed": 2008, "executions": 400, "workers": 1},
    quick_params={"seed": 2008, "executions": 120, "workers": 1},
    description="Coverage-guided fuzzer: bounded campaign invariants "
                "(zero counterexamples, corpus replay) + throughput",
)
