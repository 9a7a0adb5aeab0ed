"""Figure 8 — Flicker vs replication efficiency.

The paper plots efficiency (useful-work fraction) against user latency
(1–10 s) for Flicker and for 3/5/7-way replication.  Replication is a
constant 1/k; Flicker's curve rises as the fixed per-session overhead
(SKINIT + Unseal ≈ 0.91 s) amortizes.  The headline claim: "a two second
user latency allows a more efficient distributed application than
replicating to three or more machines."

Registered with the unified runner as ``fig8_efficiency``; the claims are
checked at the end of :func:`run_bench`.
"""

from repro.apps.distributed import (
    BOINCClient,
    FactoringWorkUnit,
    ReplicationScheme,
    flicker_efficiency,
)
from repro.bench import register
from repro.core import FlickerPlatform

LATENCIES_S = tuple(range(1, 11))
REPLICATION = (3, 5, 7)


def measure_flicker_curve(seed, latencies_s):
    """Measure actual sessions at each user latency and compute the
    efficiency as useful work / total session time."""
    platform = FlickerPlatform(seed=seed)
    client = BOINCClient(platform)
    curve = {}
    overhead_sample = None
    for latency_s in latencies_s:
        unit = FactoringWorkUnit(unit_id=latency_s, n=15015, start=2, end=4)
        progress = client.start_unit(unit)
        clock = platform.machine.clock
        # Pick the work slice so the *total* session equals the target
        # user latency: work = latency - overhead (measured on the fly).
        if overhead_sample is None:
            before = clock.now()
            progress, _ = client.work_slice(progress, slice_ms=1000.0)
            overhead_sample = (clock.now() - before) - 1000.0
            progress = client.start_unit(
                FactoringWorkUnit(unit_id=100 + latency_s, n=15015, start=2, end=4)
            )
        work_ms = max(0.0, latency_s * 1000.0 - overhead_sample)
        before = clock.now()
        client.work_slice(progress, slice_ms=work_ms)
        total = clock.now() - before
        curve[latency_s] = work_ms / total
    return curve, overhead_sample


def run_bench(seed=888, latencies_s=LATENCIES_S):
    """Registered entry point: the measured curve, the closed-form model,
    the replication lines and the crossover latencies."""
    curve, overhead_ms = measure_flicker_curve(seed, latencies_s)
    model = {s: flicker_efficiency(s * 1000.0, overhead_ms) for s in latencies_s}
    replication = {k: ReplicationScheme(k).efficiency for k in REPLICATION}
    # Solve (L - o)/L = 1/k  →  L = o * k / (k - 1).
    crossover_s = {k: overhead_ms * k / (k - 1) / 1000.0 for k in REPLICATION}

    # 1. Flicker's curve rises monotonically and concavely toward 1.
    values = [curve[s] for s in latencies_s]
    assert values == sorted(values)
    assert values[-1] > 0.89
    # 2. Replication lines are constant; Flicker crosses 3-way below 2 s.
    assert curve[2] > replication[3]
    assert curve[1] < replication[3]
    # 3. By 2 s, Flicker beats even 7-way.
    assert curve[2] > replication[7]
    # 4. The measured curve matches the closed-form model.
    for s in latencies_s:
        assert abs(curve[s] - model[s]) <= 0.02
    # 5. The crossovers, made quantitative: the paper's two-second claim.
    assert crossover_s[3] < 2.0
    assert crossover_s[7] < crossover_s[5] < crossover_s[3]

    return {
        "virtual": {
            "overhead_ms": round(overhead_ms, 6),
            "efficiency": {
                str(s): {"flicker": round(curve[s], 6),
                         "model": round(model[s], 6)}
                for s in latencies_s
            },
            "replication": {str(k): round(e, 6) for k, e in replication.items()},
            "crossover_s": {str(k): round(c, 6) for k, c in crossover_s.items()},
        },
    }


register(
    "fig8_efficiency", run_bench, params={"seed": 888, "latencies_s": LATENCIES_S},
    description="Figure 8: Flicker vs 3/5/7-way replication efficiency "
                "and the crossover latencies",
)
