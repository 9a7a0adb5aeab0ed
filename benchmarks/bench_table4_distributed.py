"""Table 4 — operations for distributed computing.

Paper values (per work session, Broadcom TPM)::

    Application work (ms):  1000   2000   4000   8000
    SKINIT (ms):            14.3   14.3   14.3   14.3
    Unseal (ms):            898.3  898.3  898.3  898.3
    Flicker overhead:       47%    30%    18%    10%

The ablation swaps in the faster Infineon TPM (Unseal 391 ms), which
roughly halves the 1-second-work overhead fraction.

Registered with the unified runner as ``table4_distributed``; the claims
are checked at the end of :func:`run_bench`.
"""

from repro.apps.distributed import BOINCClient, FactoringWorkUnit
from repro.bench import register
from repro.core import FlickerPlatform
from repro.sim.timing import DEFAULT_PROFILE, INFINEON_PROFILE

WORK_POINTS_MS = (1000, 2000, 4000, 8000)
PAPER = {
    "skinit_ms": 14.3,
    "unseal_ms": 898.3,
    "overhead_percent": {1000: 47, 2000: 30, 4000: 18, 8000: 10},
}


def run_sweep(profile, seed, work_points_ms):
    platform = FlickerPlatform(profile=profile, seed=seed)
    client = BOINCClient(platform)
    rows = {}
    for work_ms in work_points_ms:
        # A tiny functional range so virtual work time is the knob.
        unit = FactoringWorkUnit(unit_id=work_ms, n=15015, start=2, end=4)
        progress = client.start_unit(unit)
        clock = platform.machine.clock
        before = clock.now()
        progress, session = client.work_slice(progress, slice_ms=float(work_ms))
        total_ms = clock.now() - before
        rows[work_ms] = {
            "skinit_ms": round(session.phase_ms["skinit"], 6),
            "unseal_ms": round(session.tpm_ms["unseal"], 6),
            "total_ms": round(total_ms, 6),
            "overhead_percent": round(100.0 * (total_ms - work_ms) / total_ms, 6),
        }
    return rows


def run_bench(seed=444, infineon_seed=445, work_points_ms=WORK_POINTS_MS):
    """Registered entry point: per-session costs at each work size, plus
    the Infineon overhead at 1 s of work."""
    rows = run_sweep(DEFAULT_PROFILE, seed, work_points_ms)
    infineon = run_sweep(INFINEON_PROFILE, infineon_seed, (1000,))[1000]

    for work_ms, r in rows.items():
        assert abs(r["skinit_ms"] - PAPER["skinit_ms"]) <= 1.0
        assert abs(r["unseal_ms"] - PAPER["unseal_ms"]) <= 0.01 * PAPER["unseal_ms"]
        assert abs(r["overhead_percent"] - PAPER["overhead_percent"][work_ms]) <= 2.0
        # Unseal dominates the overhead.
        assert r["unseal_ms"] > 0.9 * (r["total_ms"] - work_ms - r["skinit_ms"] - 10)
    # Shape: overhead fraction decays as work grows.
    fractions = [r["overhead_percent"] for r in rows.values()]
    assert fractions == sorted(fractions, reverse=True)
    # Ablation: the faster TPM roughly halves the overhead fraction.
    assert infineon["overhead_percent"] < 32.0

    return {
        "virtual": {
            "paper": PAPER,
            "by_work_ms": rows,
            "infineon_overhead_percent": infineon["overhead_percent"],
        },
    }


register(
    "table4_distributed", run_bench,
    params={"seed": 444, "infineon_seed": 445, "work_points_ms": WORK_POINTS_MS},
    description="Table 4: per-session SKINIT/Unseal costs and overhead "
                "fraction for distributed computing (Infineon ablation)",
)
