"""The repository benchmark: ``python3 perfbench/run.py``.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run starts fresh worker interpreters
(``worker.py``) one after another — never two at once — until the next
one would end after ``S`` seconds and at least ``MIN_WORKERS`` have
finished.  Each worker sets the workload up from the seed, runs a fixed
list of timed operations and reports host times, samples of the host's
speed taken during them, and a digest of every virtual result.  Between
them, set-up-only workers add set-up samples where set-up is cheap.  The
run checks the digests (identical across workers, equal to the pin in
``pins.json`` for a pinned seed), prints a human-readable report, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: host time with
tracing off, ``job_s`` and ``op_ms`` scaled to the reference host's
speed (see :func:`host_factor`).  With ``--trace 1`` the first worker
runs untraced and the rest traced, and the metrics are the per-layer
table of the traced worker with the median wall time.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("apps_warm", "fleet10k", "dist_tenants", "lint")
MIN_WORKERS = 2
#: ``worker.calibrate()`` on the reference host: about its median on a
#: 2-vCPU Intel Xeon VM running CPython 3.11.7 in a quiet phase.
REFERENCE_CALIBRATION_MS = 4.0
#: Set-up-only workers started after each full untraced worker, so the
#: ``setup_s`` median has more samples than there are full workers.
#: ``dist_tenants`` has none: its set-up is a whole cold job.
SETUP_ONLY_WORKERS = {"apps_warm": 3, "fleet10k": 4, "dist_tenants": 0,
                      "lint": 4}
#: No worker runs past this many seconds after the run started.
RUN_LIMIT_S = 170.0

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a wrong result)."""


# -- statistics -----------------------------------------------------------------


def nearest_rank(samples: List[float], p: float) -> Tuple[int, float]:
    """The ``p``-th percentile by nearest rank: ``(rank, value)`` with
    ``rank`` 1-based, so ``len(samples) - rank`` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return rank, ordered[rank - 1]


def tail_percentile(samples: List[float],
                    beyond: int = 10) -> Optional[Tuple[float, float]]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ``beyond``
    samples past it, as ``(percentile, value)``; ``None`` if there is
    none (fewer than ``2 * beyond`` samples)."""
    for p in TAIL_PERCENTILES:
        rank, value = nearest_rank(samples, p)
        if len(samples) - rank >= beyond:
            return p, value
    return None


def describe(name: str, samples: List[float], unit: str) -> str:
    """``name  median … unit  pNN … (n=…)`` for the human report."""
    if not samples:
        return f"  {name:<28} (no samples)"
    line = f"  {name:<28} median {statistics.median(samples):12.4f} {unit:<5}"
    tail = tail_percentile(samples)
    if tail is None:
        line += "  (no percentile has 10 samples beyond it)"
    else:
        line += f"  p{tail[0]:g} {tail[1]:12.4f}"
    return line + f"  n={len(samples)}"


# -- workers --------------------------------------------------------------------


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Start one fresh worker interpreter in ``mode`` (``run``, ``trace``
    or ``setup``) and return its JSON report."""
    env = dict(os.environ)
    # The same hash seed in every worker keeps dict and set layouts, and
    # so host time, from varying between otherwise identical workers.
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), repr(spawned), mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker for {workload} exited {proc.returncode}:\n"
            + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float,
                trace: bool) -> Tuple[List[dict], List[dict], List[float]]:
    """Workers one after another; returns ``(untraced, traced,
    setup_samples)``, the last from every worker of the run.

    Once the minimum has finished, a worker starts only if one like it,
    timed the last time, would still end within ``seconds``.  So a run
    lasts about ``seconds`` on a slow host as on a fast one."""
    started = time.monotonic()
    untraced: List[dict] = []
    traced: List[dict] = []
    setups: List[float] = []
    last_s: Dict[str, float] = {}

    def start(mode: str) -> dict:
        begun = time.monotonic()
        doc = run_worker(workload, seed, mode,
                         RUN_LIMIT_S - (begun - started))
        last_s[mode] = time.monotonic() - begun
        return doc

    def fits(mode: str) -> bool:
        return time.monotonic() - started + last_s.get(mode, 0.0) <= seconds

    while True:
        # With tracing, the first worker runs untraced for comparison.
        mode = "trace" if trace and untraced else "run"
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_WORKERS
        if enough and not fits(mode):
            return untraced, traced, setups
        doc = start(mode)
        (traced if mode == "trace" else untraced).append(doc)
        setups.append(doc["setup_s"])
        if trace:
            continue
        for _ in range(SETUP_ONLY_WORKERS[workload]):
            if fits("setup"):
                setups.append(start("setup")["setup_s"])


# -- checks ---------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(workload: str, seed: int, workers: List[dict]) -> List[str]:
    """Everything wrong with the virtual results of these workers."""
    problems = []
    for doc in workers:
        problems.extend(doc["errors"])
    digests = sorted({doc["digest"] for doc in workers})
    if len(digests) != 1:
        problems.append(f"workers disagree on the virtual results: {digests}")
    pinned = load_pins()["digests"][workload].get(str(seed))
    if pinned is not None and digests != [pinned]:
        problems.append(f"digest {digests} differs from the pin {pinned}")
    return problems


# -- metrics --------------------------------------------------------------------


def warm_ops(doc: dict) -> List[dict]:
    """A worker's ops, less a cold first op (``job_s`` covers that)."""
    return doc["ops"][1:] if doc["cold_first_op"] else doc["ops"]


def host_factor(doc: dict) -> float:
    """How much faster than this worker's host the reference host is:
    :data:`REFERENCE_CALIBRATION_MS` over the median of the calibration
    loops the worker's host sampler timed during its job.  Times
    multiplied by it read as on the reference host, so the drift of a
    shared host's speed from one run to the next cancels out, while a
    change in the program, which the calibration loop does not run,
    does not."""
    return REFERENCE_CALIBRATION_MS / statistics.median(doc["calibration_ms"])


def job_times(workers: List[dict], scaled: bool) -> List[float]:
    """Each worker's ``job_s``, host time or (``scaled``) scaled to the
    reference host."""
    return [d["job_ms"] / 1e3 * (host_factor(d) if scaled else 1.0)
            for d in workers]


def op_times(workers: List[dict], scaled: bool) -> List[float]:
    """Every warm op's ``op_ms``, as :func:`job_times` scales them."""
    return [op["ms"] * (host_factor(d) if scaled else 1.0)
            for d in workers for op in warm_ops(d)]


def end_to_end(workers: List[dict], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics (medians) of untraced workers and the
    run's set-up samples."""
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(job_times(workers, scaled=True)),
        "op_ms": statistics.median(op_times(workers, scaled=True)),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in workers),
    }


def _rates(ops: List[dict]) -> List[float]:
    return [op["sessions"] / (op["ms"] / 1e3) for op in ops]


def workload_lines(workload: str, workers: List[dict],
                   setups: List[float]) -> List[str]:
    """The workload's own named metrics, each with its tail and count."""
    every = [op for d in workers for op in d["ops"]]
    lines = [describe("setup_s", setups, "s"),
             describe("job_s", job_times(workers, scaled=True), "s"),
             describe("op_ms", op_times(workers, scaled=True), "ms"),
             describe("peak_rss_mb", [d["peak_rss_mb"] for d in workers], "MB"),
             "  host time, not scaled (the named metrics below are too):",
             describe("job_s", job_times(workers, scaled=False), "s"),
             describe("op_ms", op_times(workers, scaled=False), "ms"),
             describe("calibration_ms",
                      [ms for d in workers for ms in d["calibration_ms"]], "ms"),
             "  host factor per worker: " + " ".join(
                 f"{host_factor(d):.4f}" for d in workers)]
    if workload == "apps_warm":
        for part in ("rootkit_query_ms", "ssh_login_ms", "ca_sign_ms"):
            lines.append(describe(part, [op["parts"][part] for op in every], "ms"))
        lines.append(describe("apps_ops_per_s",
                              [3 / (op["ms"] / 1e3) for op in every], "1/s"))
    elif workload == "fleet10k":
        cold = [d["ops"][0] for d in workers]
        warm = [op for d in workers for op in warm_ops(d)]
        lines.append(describe("fleet_cold_sessions_per_s", _rates(cold), "1/s"))
        lines.append(describe("fleet_warm_sessions_per_s", _rates(warm), "1/s"))
    elif workload == "dist_tenants":
        lines.append(describe("dist_sessions_per_s", _rates(every), "1/s"))
    elif workload == "lint":
        lines.append(describe("lint_s", [op["ms"] / 1e3 for op in every], "s"))
    return lines


def cache_lines(workers: List[dict]) -> List[str]:
    """Cache counters before and after each timed op of the first worker."""
    lines = ["  caches around each timed op (first worker):"]
    for index, op in enumerate(workers[0]["ops"]):
        b, a = op["caches_before"], op["caches_after"]
        line = (f"    op {index:2d}: keygen memo {b['keygen_entries']}->"
                f"{a['keygen_entries']} entries, measurement memo "
                f"+{a['measurement_hits'] - b['measurement_hits']} hits "
                f"+{a['measurement_misses'] - b['measurement_misses']} misses")
        if op["read_cache"] is not None:
            hits, misses = op["read_cache"]
            line += f", tpm read cache +{hits} hits +{misses} misses"
        lines.append(line)
    return lines


def median_wall(workers: List[dict]) -> dict:
    """The worker whose timed wall time is the (lower) median."""
    ordered = sorted(workers, key=lambda d: d["job_ms"])
    return ordered[(len(ordered) - 1) // 2]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run: ``(result, report_lines, untraced, traced)``."""
    untraced, traced, setups = run_workers(workload, seed, seconds, trace)
    workers = untraced + traced
    problems = check(workload, seed, workers)
    attempted = sum(d["attempted"] for d in workers)
    failed = sum(d["failed"] for d in workers)
    lines = [f"workload {workload} seed {seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced workers, {attempted} operations, "
             f"{failed} failed (failed_share {failed / attempted:.4f})"]
    if trace:
        chosen = median_wall(traced)
        metrics = dict(chosen["layers"])
        metrics["trace_overhead_ratio"] = (
            chosen["job_ms"] / statistics.median(d["job_ms"] for d in untraced))
    else:
        metrics = end_to_end(untraced, setups)
        lines.extend(workload_lines(workload, untraced, setups))
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise BenchmarkError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    lines.extend(cache_lines(workers))
    pinned = str(seed) in load_pins()["digests"][workload]
    lines.append(f"  digest {workers[0]['digest']} "
                 f"({'pinned' if pinned else 'not pinned'} for this seed)")
    lines.extend(f"  PROBLEM: {p}" for p in problems)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=load_pins()["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, lines, _, _ = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
