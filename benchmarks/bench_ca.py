"""§7.4.2 — certificate-authority signing latency.

Paper: over 100 trials, signing one certificate request averaged 906.2 ms,
dominated by the TPM Unseal; the RSA signature itself costs ≈4.7 ms.  The
ablation swaps in the faster Infineon TPM: signing latency roughly halves,
confirming the bottleneck attribution.

Registered with the unified runner as ``ca``.  Its ``virtual`` section
also carries the Broadcom run's metrics-registry snapshot (see
``repro.obs``), the workload's counter/histogram profile, which is
byte-deterministic for a seeded run.  The claims are checked at the end
of :func:`run_bench`.
"""

from repro.apps.ca import CertificateAuthority, CertificateSigningRequest
from repro.bench import register
from repro.core import FlickerPlatform
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import DEFAULT_PROFILE, INFINEON_PROFILE

PAPER = {"total_ms": 906.2, "sign_ms": 4.7}
TRIALS = 10


def run_trials(profile, seed, csr_seed, trials):
    """Sign ``trials`` CSRs; returns (mean ms, last RSA-sign ms, all
    certificates verified, platform)."""
    platform = FlickerPlatform(profile=profile, seed=seed, observability=True)
    ca = CertificateAuthority(platform)
    ca.initialize()
    keys = generate_rsa_keypair(512, DeterministicRNG(csr_seed))
    clock = platform.machine.clock
    latencies = []
    verified = True
    for i in range(trials):
        csr = CertificateSigningRequest(f"host{i}.example.com", keys.public)
        before = clock.now()
        cert = ca.sign(csr)
        latencies.append(clock.now() - before)
        verified = verified and cert is not None and cert.verify(ca.public_key)
    sign_events = [
        e.detail["ms"]
        for e in platform.machine.trace.events(kind="work")
        if e.detail["label"] == "rsa-sign"
    ]
    return sum(latencies) / len(latencies), sign_events[-1], verified, platform


def run_bench(seed=4242, csr_seed=4243, trials=TRIALS):
    """Registered entry point: CA signing latency on the paper's Broadcom
    TPM and on the Infineon ablation."""
    mean, sign_ms, verified, platform = run_trials(
        DEFAULT_PROFILE, seed, csr_seed, trials)
    infineon_mean, _, infineon_verified, _ = run_trials(
        INFINEON_PROFILE, seed, csr_seed, trials)
    unseal_ms = platform.last_session.tpm_ms["unseal"]

    assert verified and infineon_verified
    assert abs(mean - PAPER["total_ms"]) <= 0.10 * PAPER["total_ms"]
    assert abs(sign_ms - PAPER["sign_ms"]) <= 0.5
    # Shape: the Unseal dominates; the signature is noise by comparison.
    assert unseal_ms > 100 * sign_ms
    # Ablation: the faster TPM halves the signing latency.
    assert infineon_mean < 0.55 * PAPER["total_ms"]

    return {
        "virtual": {
            "paper_ms": PAPER,
            "measured_ms": {"total_ms": round(mean, 6),
                            "sign_ms": round(sign_ms, 6),
                            "unseal_ms": round(unseal_ms, 6)},
            "infineon_total_ms": round(infineon_mean, 6),
            "metrics": platform.obs.registry.snapshot(),
        },
    }


register(
    "ca", run_bench, params={"seed": 4242, "csr_seed": 4243, "trials": TRIALS},
    description="§7.4.2: CA certificate signing latency (Broadcom, "
                "Infineon ablation) with its metrics snapshot",
)
