"""Figure 9 — SSH server-side overhead, per PAL.

Paper values (100 trials)::

    PAL 1 (setup):  SKINIT 14.3, Key Gen 185.7, Seal 10.2  → total 217.1 ms
    PAL 2 (login):  SKINIT 14.3, Unseal 905.4, Decrypt 4.6 → total 937.6 ms

Plus the §7.4.1 client-side end-to-end numbers: 1221 ms to the password
prompt (210 ms unmodified) and ≈940 ms after password entry (10 ms
unmodified).

Registered with the unified runner as ``fig9_ssh``; the claims are
checked at the end of :func:`run_bench`.
"""

from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.bench import register
from repro.core import FlickerPlatform

PAPER_PAL1 = {"skinit_ms": 14.3, "keygen_ms": 185.7, "seal_ms": 10.2, "total_ms": 217.1}
PAPER_PAL2 = {"skinit_ms": 14.3, "unseal_ms": 905.4, "decrypt_ms": 4.6, "total_ms": 937.6}
PAPER_CLIENT = {"time_to_prompt_ms": 1221.0, "time_after_entry_ms": 940.0}


def _rounded(values):
    return {k: round(v, 6) for k, v in values.items()}


def run_bench(seed=999, setup_seed=998):
    """Registered entry point: both PALs' breakdowns and the client's
    perceived latency."""
    platform = FlickerPlatform(seed=seed)
    server = SSHServer(platform)
    server.add_user(PasswdEntry.create("alice", b"p4ssw0rd!", b"fLiCkEr1"))
    outcome = SSHClient(platform).connect_and_login(server, "alice", b"p4ssw0rd!")
    work = platform.machine.trace.events(kind="work")
    keygen_ms = next(e.detail["ms"] for e in work if e.detail["label"] == "rsa-keygen")
    decrypt_ms = next(e.detail["ms"] for e in work if e.detail["label"] == "rsa-decrypt")
    login_session = platform.last_session

    # PAL 1's SKINIT, Seal and total come from a dedicated setup session.
    setup_server = SSHServer(FlickerPlatform(seed=setup_seed))
    setup_session, _ = setup_server.run_setup_session(b"\x00" * 20)
    pal1 = {
        "skinit_ms": setup_session.phase_ms["skinit"],
        "keygen_ms": keygen_ms,
        "seal_ms": setup_session.tpm_ms["seal"],
        "total_ms": setup_session.total_ms,
    }
    pal2 = {
        "skinit_ms": login_session.phase_ms["skinit"],
        "unseal_ms": login_session.tpm_ms["unseal"],
        "decrypt_ms": decrypt_ms,
        "total_ms": login_session.total_ms,
    }
    client = {
        "time_to_prompt_ms": outcome.time_to_prompt_ms,
        "time_after_entry_ms": outcome.time_after_entry_ms,
    }

    assert outcome.authenticated
    # PAL 1 shape: key generation dominates.
    assert abs(pal1["keygen_ms"] - PAPER_PAL1["keygen_ms"]) <= 0.01 * PAPER_PAL1["keygen_ms"]
    assert pal1["keygen_ms"] > 0.75 * pal1["total_ms"]
    assert abs(pal1["total_ms"] - PAPER_PAL1["total_ms"]) <= 0.08 * PAPER_PAL1["total_ms"]
    # PAL 2 shape: the Unseal dominates everything.
    assert abs(pal2["unseal_ms"] - PAPER_PAL2["unseal_ms"]) <= 0.02 * PAPER_PAL2["unseal_ms"]
    assert pal2["unseal_ms"] > 0.9 * pal2["total_ms"]
    assert abs(pal2["total_ms"] - PAPER_PAL2["total_ms"]) <= 0.05 * PAPER_PAL2["total_ms"]
    # §7.4.1: the client-perceived latencies.
    prompt, entry = PAPER_CLIENT["time_to_prompt_ms"], PAPER_CLIENT["time_after_entry_ms"]
    assert abs(client["time_to_prompt_ms"] - prompt) <= 0.07 * prompt
    assert abs(client["time_after_entry_ms"] - entry) <= 0.05 * entry

    return {
        "virtual": {
            "paper_ms": {"pal1": PAPER_PAL1, "pal2": PAPER_PAL2,
                         "client": PAPER_CLIENT},
            "measured_ms": {"pal1": _rounded(pal1), "pal2": _rounded(pal2),
                            "client": _rounded(client)},
            "authenticated": outcome.authenticated,
        },
    }


register(
    "fig9_ssh", run_bench, params={"seed": 999, "setup_seed": 998},
    description="Figure 9 / §7.4.1: SSH PAL breakdowns and client-perceived "
                "latency",
)
