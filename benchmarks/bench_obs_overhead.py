"""The zero-overhead claim of the observability layer, measured.

Every instrumentation site in the simulation is guarded by a single
``obs is not None`` attribute test, so a platform built without
``observability=True`` must pay (a) *nothing* in virtual time and (b) a
vanishing amount of wall time.  This bench pins both on the Figure 6
module suite — the four application workloads, which between them link
every PAL module:

* **Virtual time** — the enabled and disabled runs of each workload end
  at the *identical* virtual timestamp.  Instrumentation observes the
  clock; it never advances it.
* **Wall time** — the disabled path's entire cost is the guard checks.
  We count the guard evaluations an enabled run actually performs (every
  recorded span, event, and metric sample came through one), price a
  guard with ``timeit``, and assert the total against the measured
  disabled-suite wall time: **< 2%**, with an 8× safety margin on the
  guard count so the bound holds even if instrumentation sites multiply.
"""

import time
import timeit

from repro.bench import register
from repro.core import FlickerPlatform
from repro.faults.campaign import DRIVERS

APPS = ("rootkit", "ssh", "ca", "distributed")
SEED = 1022
OVERHEAD_BUDGET = 0.02
GUARD_MARGIN = 8  # assume 8 guard evaluations per recorded artifact


def run_suite(observability, seed=SEED):
    """Run the four Figure 6 workloads; return per-app final virtual
    times and the platforms (for span/metric inspection)."""
    virtual_ms = {}
    platforms = {}
    for app in APPS:
        platform = FlickerPlatform(seed=seed, observability=observability)
        outcome = DRIVERS[app](platform)
        assert outcome == "ok", f"{app} failed: {outcome}"
        virtual_ms[app] = platform.machine.clock.now()
        platforms[app] = platform
    return virtual_ms, platforms


def guard_cost_s():
    """Wall cost of one disabled-path guard (attribute is None test)."""
    number = 200_000
    total = timeit.timeit(
        "if obs is not None:\n    pass", setup="obs = None", number=number)
    return total / number


def run_bench(seed=SEED):
    """Registered entry point: the zero-overhead claim, split into the
    deterministic half (virtual timelines identical with and without the
    hub; artifact counts) and the host-dependent half (guard pricing)."""
    start = time.perf_counter()
    enabled_virtual, enabled_platforms = run_suite(True, seed=seed)
    enabled_wall_s = time.perf_counter() - start
    # Timed second, so the disabled run does not also pay the suite's
    # one-time cache warm-up, which would flatter the overhead ratio.
    start = time.perf_counter()
    disabled_virtual, _ = run_suite(False, seed=seed)
    disabled_wall_s = time.perf_counter() - start
    artifacts = 0
    for platform in enabled_platforms.values():
        hub = platform.obs
        artifacts += len(hub.spans) + len(hub.events) + len(hub.registry.snapshot())
    per_guard_s = guard_cost_s()
    overhead = (artifacts * GUARD_MARGIN * per_guard_s) / disabled_wall_s

    # (a) Virtual time: bit-identical timelines with and without the hub.
    assert enabled_virtual == disabled_virtual
    # (b) Wall time: the guards the disabled path executes cost < 2% of
    # its wall time; one guard costs well under a microsecond.
    assert overhead < OVERHEAD_BUDGET
    assert per_guard_s < 1e-6

    return {
        "virtual": {
            "virtual_ms": {app: round(disabled_virtual[app], 6) for app in APPS},
            "virtual_time_identical": enabled_virtual == disabled_virtual,
            "artifacts_recorded": artifacts,
            "guard_evals_charged": artifacts * GUARD_MARGIN,
        },
        "wall": {
            "per_guard_ns": round(per_guard_s * 1e9, 1),
            "enabled_suite_seconds": round(enabled_wall_s, 3),
            "disabled_overhead_pct": round(overhead * 100, 4),
        },
    }


register(
    "obs_overhead", run_bench, params={"seed": SEED},
    description="Observability layer: disabled-path overhead and "
                "virtual-time neutrality on the Figure 6 suite",
)
