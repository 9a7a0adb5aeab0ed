"""Flicker reproduction: minimal-TCB isolated execution (EuroSys 2008).

This package reproduces *Flicker: An Execution Infrastructure for TCB
Minimization* (McCune, Parno, Perrig, Reiter, Isozaki) on a fully
simulated platform: an SVM-capable CPU with the SKINIT late-launch
instruction, a TPM v1.2, and an untrusted Linux-like kernel — all
implemented from scratch in Python with a virtual-time cost model
calibrated from the paper's own measurements.

Quick start::

    from repro import FlickerPlatform, PAL

    class HelloPAL(PAL):
        name = "hello"
        def run(self, ctx):
            ctx.write_output(b"Hello, world")

    platform = FlickerPlatform()
    result = platform.execute_pal(HelloPAL(), inputs=b"")
    assert result.outputs == b"Hello, world"

Layer map:

* :mod:`repro.sim` — virtual clock, calibrated timing profiles, RNG, trace
* :mod:`repro.crypto` — the PAL crypto library: SHA-1/SHA-512/MD5 over
  :mod:`hashlib`, HMAC/AES/RC4/RSA/PKCS#1/md5crypt in Python
* :mod:`repro.hw` — CPU, memory, DEV, APIC, SKINIT, machine assembly
* :mod:`repro.tpm` — PCRs, Quote, Seal/Unseal, NV, counters, Privacy CA
* :mod:`repro.osim` — the untrusted OS, sysfs, drivers, storage, network,
  and the adversary toolkit
* :mod:`repro.core` — the Flicker architecture itself
* :mod:`repro.apps` — the paper's four applications
"""

from repro.core import (
    PAL,
    PALContext,
    FlickerPlatform,
    SessionResult,
    FlickerVerifier,
    Attestation,
    SLBImage,
    build_slb,
)
from repro.hw import Machine
from repro.sim import (
    BROADCOM_BCM0102,
    INFINEON_1_2,
    TimingProfile,
    VirtualClock,
)
from repro.sim.timing import DEFAULT_PROFILE, INFINEON_PROFILE

__version__ = "1.0.0"

__all__ = [
    "PAL",
    "PALContext",
    "FlickerPlatform",
    "SessionResult",
    "FlickerVerifier",
    "Attestation",
    "SLBImage",
    "build_slb",
    "Machine",
    "VirtualClock",
    "TimingProfile",
    "BROADCOM_BCM0102",
    "INFINEON_1_2",
    "DEFAULT_PROFILE",
    "INFINEON_PROFILE",
    "__version__",
]
