"""Table 1 — breakdown of rootkit-detector overhead.

Paper values (Broadcom TPM, HP dc5750)::

    SKINIT               15.4 ms
    PCR Extend            1.2 ms
    Hash of Kernel       22.0 ms
    TPM Quote           972.7 ms
    Total Query Latency 1022.7 ms
"""

from repro.apps.rootkit_detector import RemoteAdministrator
from repro.bench import register
from repro.core import FlickerPlatform

PAPER = {
    "skinit_ms": 15.4,
    "extend_ms": 1.2,
    "kernel_hash_ms": 22.0,
    "quote_ms": 972.7,
    "total_ms": 1022.7,
}


def run_query(platform: FlickerPlatform):
    admin = RemoteAdministrator(platform)
    report = admin.run_detection_query()
    trace = platform.machine.trace
    session = platform.last_session
    hash_events = trace.events(
        kind="hash", predicate=lambda e: e.detail["label"] == "kernel-measure")
    measured = {
        "skinit_ms": session.phase_ms["skinit"],
        "extend_ms": platform.machine.profile.tpm.extend_ms,
        "kernel_hash_ms": platform.machine.profile.host.sha1_ms_per_kb
        * hash_events[-1].detail["nbytes"] / 1024.0,
        "quote_ms": platform.machine.profile.tpm.quote_ms,
        "total_ms": report.query_latency_ms,
    }
    return report, measured


def run_bench(seed=1022):
    """Registered entry point: the Table 1 per-operation breakdown as
    deterministic virtual-time metrics."""
    platform = FlickerPlatform(seed=seed)
    report, measured = run_query(platform)

    # Shape: the TPM Quote dominates; the end-to-end latency is ~1 s; the
    # hash cost matches the kernel's modelled size.  (The detector used an
    # *unoptimized* SLB in Table 1 — the optimization comes afterwards in
    # §7.2 — and ours is sized so SKINIT lands in the same regime.)
    assert report.kernel_clean
    assert measured["quote_ms"] > 0.9 * sum(
        v for k, v in measured.items() if k not in ("total_ms", "quote_ms")
    )
    assert abs(measured["total_ms"] - PAPER["total_ms"]) <= 0.03 * PAPER["total_ms"]
    assert abs(measured["kernel_hash_ms"] - PAPER["kernel_hash_ms"]) <= 0.5

    return {
        "virtual": {
            "paper_ms": PAPER,
            "measured_ms": {k: round(v, 6) for k, v in measured.items()},
            "kernel_clean": report.kernel_clean,
            "attestation_valid": report.attestation_valid,
        },
    }


register(
    "table1_rootkit", run_bench, params={"seed": 1022},
    description="Table 1: rootkit-detector query latency breakdown",
)
