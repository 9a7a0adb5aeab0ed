"""§3.2 "Meaningful Attestation" / §8 — Flicker vs. IMA-style trusted boot.

The paper's qualitative claim, made quantitative: a Flicker verifier
evaluates a handful of log entries and trusts a few hundred lines of code;
an IMA verifier must assess everything loaded since boot (and learns the
platform's whole software inventory in the process).

The run also measures the §7.5 recommendation ([19]): with secure
execution confined to one core, the OS never pauses, so the kernel-build
impact of periodic detection drops to exactly zero even at aggressive
detection rates.

Registered with the unified runner as ``attestation_comparison``; the
claims are checked at the end of :func:`run_bench`.
"""

from repro.apps.rootkit_detector import simulate_kernel_build
from repro.bench import register
from repro.core import FlickerPlatform, PAL
from repro.core.modules import MODULE_REGISTRY, resolve_modules
from repro.osim.ima import IMAVerifier, IntegrityMeasurementArchitecture

#: Software population of a modest desktop: what IMA must measure.
APP_COUNT = 60

#: Very rough LOC the IMA verifier ends up trusting: the kernel plus the
#: measured userland (the paper's "millions of additional lines").
IMA_TRUSTED_LOC = 5_000_000

#: Detection periods for the multicore-isolation rows.
DETECTION_PERIODS_S = (30.0, 5.0, 1.0)


class PayrollPAL(PAL):
    name = "payroll"
    modules = ("tpm_utils",)

    def run(self, ctx):
        ctx.write_output(b"payroll-result")


def compare_attestations(seed, app_count):
    """Attest one PAL session with Flicker and the same machine with IMA."""
    platform = FlickerPlatform(seed=seed)
    nonce = b"\x51" * 20

    # --- the Flicker attestation ----------------------------------------
    pal = PayrollPAL()
    session = platform.execute_pal(pal, inputs=b"q3", nonce=nonce)
    attestation = platform.attest(nonce, session)
    report = platform.verifier().verify(attestation, session.image, nonce)

    # --- the IMA attestation on the same machine ---------------------------
    ima = IntegrityMeasurementArchitecture(platform.kernel)
    ima.measured_boot()
    verifier = IMAVerifier()
    for entry in ima.log:
        verifier.known_good[entry.name] = entry.measurement
    for i in range(app_count):
        binary = f"desktop-app-{i}-binary".encode()
        verifier.learn(f"app:app{i}", binary)
        ima.measure_app_launch(f"app{i}", binary)
    quote, log = ima.attest(nonce)
    ima_report = verifier.verify(quote, log, nonce, platform.machine.tpm.aik_public)

    return {
        "flicker": {
            "verified": report.ok,
            "entries": len(attestation.event_log),
            "tcb_loc": sum(MODULE_REGISTRY[m].lines_of_code
                           for m in resolve_modules(pal.modules)),
            "disclosed": [label for label, _ in attestation.event_log],
        },
        "ima": {
            "verified": ima_report.ok,
            "entries": ima_report.entries_evaluated,
            "known_good_db": len(verifier.known_good),
            "disclosed": len(ima_report.disclosed_inventory),
            "trusted_loc": IMA_TRUSTED_LOC,
        },
    }


def multicore_isolation(seed, periods_s):
    """Kernel-build time under periodic detection, today vs. with the
    session confined to one core; returns (baseline_ms, rows)."""
    current = FlickerPlatform(seed=seed)
    future = FlickerPlatform(seed=seed, multicore_isolation=True)
    rows = {}
    for period_s in periods_s:
        today_ms, _ = simulate_kernel_build(current, period_s, noise_sigma_ms=0.0)
        isolated_ms, _ = simulate_kernel_build(future, period_s, noise_sigma_ms=0.0)
        rows[f"{period_s:g}"] = {"today_ms": round(today_ms, 6),
                                 "isolated_ms": round(isolated_ms, 6)}
    return current.machine.profile.host.kernel_build_ms, rows


def run_bench(seed=6006, app_count=APP_COUNT, isolation_seed=6007,
              periods_s=DETECTION_PERIODS_S):
    """Registered entry point: both attestations' verifier burden plus the
    multicore-isolation rows, with the paper's claims checked."""
    m = compare_attestations(seed, app_count)
    baseline_ms, rows = multicore_isolation(isolation_seed, periods_s)
    flicker, ima = m["flicker"], m["ima"]

    assert flicker["verified"] and ima["verified"]
    assert flicker["entries"] <= 6
    assert ima["entries"] > 10 * flicker["entries"]
    assert flicker["tcb_loc"] < 4000  # hundreds-to-few-thousand lines
    assert ima["disclosed"] >= app_count  # leaks the whole inventory
    for row in rows.values():
        assert row["isolated_ms"] == baseline_ms  # literally zero impact
        assert row["today_ms"] > baseline_ms  # today's hardware pays something

    return {
        "virtual": {
            **m,
            "multicore_isolation": {"baseline_ms": baseline_ms,
                                    "by_period_s": rows},
        },
    }


register(
    "attestation_comparison", run_bench,
    params={"seed": 6006, "app_count": APP_COUNT, "isolation_seed": 6007,
            "periods_s": DETECTION_PERIODS_S},
    description="§3.2/§8: Flicker vs IMA-style trusted boot verifier burden, "
                "plus kernel-build impact with multicore isolation",
)
