"""Extension bench — Flicker over Intel TXT vs AMD SVM.

No paper counterpart (the paper implemented on AMD only and asserted the
TXT path "functions analogously"); this bench demonstrates the analogy
quantitatively: same session semantics and attestation guarantees, with
the launch-cost difference coming from what each instruction streams to
the TPM (SVM: the SLB or its 4736-byte stub; TXT: the SINIT ACM plus the
full MLE).

Registered with the unified runner as ``txt``; the claims are checked at
the end of :func:`run_bench`.
"""

from repro.bench import register
from repro.core import FlickerPlatform, PAL


class CrossVendorPAL(PAL):
    name = "cross-vendor"
    modules = ("tpm_utils",)

    def run(self, ctx):
        ctx.tpm.pcr_read()
        ctx.write_output(b"portable")


def run_bench(seed=9090):
    """Registered entry point: one attested session per launch vendor."""
    nonce = b"\x77" * 20

    svm = FlickerPlatform(seed=seed)
    svm_session = svm.execute_pal(CrossVendorPAL(), nonce=nonce)
    svm_verified = svm.verifier().verify(
        svm.attest(nonce, svm_session), svm_session.image, nonce).ok

    txt = FlickerPlatform(seed=seed, launch="txt")
    txt_session = txt.execute_pal(CrossVendorPAL(), nonce=nonce)
    txt_verified = txt.verifier().verify_txt(
        txt.attest(nonce, txt_session), txt_session.image,
        txt.acm.measurement, nonce).ok

    m = {
        "svm": {
            "launch_ms": round(svm_session.phase_ms["skinit"], 6),
            "total_ms": round(svm_session.total_ms, 6),
            "verified": svm_verified,
        },
        "txt": {
            "launch_ms": round(txt_session.phase_ms["senter"], 6),
            "total_ms": round(txt_session.total_ms, 6),
            "measured_bytes": txt_session.image.measured_length + len(txt.acm.code),
            "verified": txt_verified,
        },
        "outputs": txt_session.outputs.hex(),
        "outputs_identical": svm_session.outputs == txt_session.outputs,
    }

    assert svm_verified and txt_verified
    # Same application behaviour on both vendors.
    assert svm_session.outputs == txt_session.outputs == b"portable"
    # TXT streams ACM + full MLE, so its launch costs more than the
    # stub-optimized SKINIT; both stay in the tens-of-ms regime.
    assert m["txt"]["launch_ms"] > m["svm"]["launch_ms"]
    assert m["txt"]["launch_ms"] < 120.0

    return {"virtual": m}


register(
    "txt", run_bench, params={"seed": 9090},
    description="Extension: Flicker over Intel TXT (SENTER) vs AMD SVM (SKINIT)",
)
