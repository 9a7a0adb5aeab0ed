"""One benchmark worker: a fresh interpreter running one workload.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SPAWN_TIME MODE``
from the repository root, where ``SPAWN_TIME`` is the parent's
``time.monotonic()`` just before it started this process (so set-up
time includes interpreter start) and ``MODE`` is ``run``, ``trace`` or
``setup``.

The worker sets the workload up, runs its fixed list of timed
operations (traced in ``trace`` mode), and prints one JSON object on its
last stdout line: per-op host times and cache counters, the host-speed
samples of :class:`HostSampler` (untraced only), the digest of every
virtual result, operations attempted and failed, and (traced) the
per-layer table.  In ``setup`` mode it stops after set-up and reports
only the set-up time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.slb import measurement_cache_info  # noqa: E402
from repro.crypto.rsa import keygen_cache_info  # noqa: E402
from repro.tpm.tpm import TPM  # noqa: E402

from tracer import Tracer  # noqa: E402

_tpm_read_cache_info = TPM.read_cache_info


def _sha1_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _session_record(session) -> dict:
    return {
        "outputs": session.outputs.hex(),
        "phase_ms": session.phase_ms,
        "event_log": [[label, value.hex()] for label, value in session.event_log],
        "total_ms": session.total_ms,
        "retries": session.retries,
    }


def calibrate() -> float:
    """Host time in ms of a fixed pure-Python loop of about 4 ms that
    runs no code of the program: 32-bit word arithmetic on lists as in
    the program's own hashes, dict stores, and big-integer ``pow`` as in
    its RSA."""
    start = time.perf_counter()
    table = {}
    h = 0x67452301
    w = list(range(80))
    for r in range(48):
        for i in range(16, 80):
            w[i] = ((w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]) << 1) & 0xFFFFFFFF
        h = (h * 31 + w[r % 80]) & 0xFFFFFFFF
        table[h % 1000] = r
    m = (1 << 521) - 1
    for e in range(4):
        pow(h + e, m - 2, m)
    return (time.perf_counter() - start) * 1e3


class HostSampler:
    """Samples the host's speed while the untraced ops run.

    A shared host changes speed from one second to the next.  Every
    :data:`PERIOD_S` of wall time a timer signal interrupts the op and
    times :func:`calibrate` once; ``run.py`` scales the op times by the
    median of these samples.  The ops are timed with :meth:`clock`,
    which leaves the loops' own time out."""

    PERIOD_S = 0.2

    def __init__(self) -> None:
        self.samples = []
        self.spent_ms = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_ms += (time.perf_counter() - start) * 1e3

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in the loops."""
        return time.perf_counter() - self.spent_ms / 1e3


SAMPLER = HostSampler()


def _global_caches() -> dict:
    measurement = measurement_cache_info()
    return {"keygen_entries": keygen_cache_info()["entries"],
            "measurement_hits": measurement.hits,
            "measurement_misses": measurement.misses}


class Op:
    """What one timed operation reports besides its host time."""

    def __init__(self, finish, attempted: int, sessions: int = 0,
                 parts=None, read_cache=None, dist=None, rule_ms=None) -> None:
        # ``finish()`` returns ``(record, failed)``: the virtual results
        # to digest and the operations that failed.  It runs after every
        # timer and the tracer have stopped, so the benchmark's own
        # checking and encoding are never timed.
        self.finish = finish
        self.record = None
        self.failed = 0
        self.attempted = attempted
        self.sessions = sessions      # attested sessions simulated
        self.parts = parts or {}      # sub-timings in ms, by name
        self.read_cache = read_cache  # TPM read-cache (hits, misses) in the op
        self.dist = dist              # dist report counters
        self.rule_ms = rule_ms or {}  # lint rule wall times


# -- workloads ----------------------------------------------------------------


class AppsWarm:
    """§6.1 rootkit query, §6.3 SSH login (fresh channel), §6.4 CA sign,
    cycled in a fixed order and count on one warm platform."""

    cold_first_op = False
    identical_ops = False

    #: Fixed: the CA's sealed log grows with every signature.
    CYCLES = 24

    def __init__(self, seed: int) -> None:
        from repro.apps.ca import CertificateAuthority, SigningPolicy
        from repro.apps.rootkit_detector import RemoteAdministrator
        from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
        from repro.core import FlickerPlatform
        from repro.crypto.rsa import generate_rsa_keypair
        from repro.sim.rng import DeterministicRNG

        self.platform = FlickerPlatform(seed=seed)
        self.admin = RemoteAdministrator(self.platform)
        self.password = hashlib.sha1(b"pw%d" % seed).hexdigest()[:16].encode()
        self.server = SSHServer(self.platform)
        self.server.add_user(PasswdEntry.create("alice", self.password,
                                                b"fl%06d" % (seed % 10**6)))
        self.client = SSHClient(self.platform)
        self.ca = CertificateAuthority(self.platform, policy=SigningPolicy())
        self.ca.initialize()
        self.subject_key = generate_rsa_keypair(512, DeterministicRNG(seed)).public
        self.seed = seed
        self.serial = 0
        finish, _ = self._cycle()
        self.setup_record, _ = finish()

    def _cycle(self):
        """One timed cycle; returns ``(finish, parts)``."""
        from repro.apps.ca import CertificateSigningRequest

        clock = SAMPLER.clock
        start = clock()
        report = self.admin.run_detection_query()
        rootkit_session = self.platform.last_session
        mid = clock()
        login = self.client.connect_and_login(self.server, "alice", self.password)
        login_session = self.platform.last_session
        mid2 = clock()
        self.serial += 1
        csr = CertificateSigningRequest(f"h{self.seed}-{self.serial}.example.com",
                                        self.subject_key)
        cert = self.ca.sign(csr)
        ca_session = self.ca.last_session
        end = clock()
        now_ms = self.platform.machine.clock.now()
        ca_key = self.ca.public_key

        def finish():
            failed = (int(not (report.attestation_valid and report.kernel_clean))
                      + int(not login.authenticated)
                      + int(cert is None or not cert.verify(ca_key)))
            record = {
                "rootkit": [report.attestation_valid, report.kernel_hash.hex(),
                            report.query_latency_ms, list(report.failures),
                            _session_record(rootkit_session)],
                "ssh": [login.authenticated, login.time_to_prompt_ms,
                        login.time_after_entry_ms, _session_record(login_session)],
                "ca": [cert.encode().hex() if cert else None,
                       _session_record(ca_session)],
                "now_ms": now_ms,
            }
            return record, failed

        parts = {"rootkit_query_ms": (mid - start) * 1e3,
                 "ssh_login_ms": (mid2 - mid) * 1e3,
                 "ca_sign_ms": (end - mid2) * 1e3}
        return finish, parts

    def ops(self):
        for _ in range(self.CYCLES):
            yield self._op

    def _op(self) -> Op:
        tpm = self.platform.machine.tpm
        before = _tpm_read_cache_info(tpm)
        finish, parts = self._cycle()
        after = _tpm_read_cache_info(tpm)
        return Op(finish, attempted=3, sessions=4, parts=parts,
                  read_cache=(after["hits"] - before["hits"],
                              after["misses"] - before["misses"]))


class Fleet10k:
    """One 10,000-machine §6.2 factoring cell: a cold pass in a fresh
    interpreter, then warm passes of the same cell."""

    PASSES = 6
    SHARD = 256
    cold_first_op = True
    identical_ops = True

    def __init__(self, seed: int) -> None:
        from repro.tools.fleet_report import run_fleet_sweep

        self.run_fleet_sweep = run_fleet_sweep
        self.config = dict(machines=10_000, units_per_client=1, slice_ms=2000.0,
                           range_per_unit=400, seed=seed, clients=48)
        self.setup_record = None

    def ops(self):
        for _ in range(self.PASSES):
            yield self._op

    def _op(self) -> Op:
        [report] = self.run_fleet_sweep([self.config], workers=1,
                                        shard_size=self.SHARD)
        return Op(lambda: ({"report_sha1": _sha1_json(report)},
                           report["units_issued"] - report["units_accepted"]),
                  attempted=report["units_issued"],
                  sessions=report["total_sessions"])


class DistTenants:
    """A 16-machine distribution job over three vTPM tenants with lazy,
    forging, dropping-out and flaky clients plus a transient TPM fault."""

    RUNS = 4
    UNITS = 96
    cold_first_op = False
    identical_ops = True  # and equal to the set-up run

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Fills the keygen memo; also the reference every timed run
        # must reproduce byte for byte.
        finish, _, _ = self._run()
        self.setup_record, _ = finish()

    def _run(self):
        from repro.core.fleet import FlickerFleet
        from repro.dist import (JobSpec, QuorumPolicy, ReputationPolicy,
                                WorkDistributionService, parse_behaviors)
        from repro.faults import FaultInjector
        from repro.tools.dist import parse_faults
        from repro.tools.fleet_report import DEFAULT_N

        fleet = FlickerFleet(num_machines=16, seed=self.seed)
        plan = parse_faults("3:tpm-transient", seed=self.seed)
        for host in fleet.hosts:
            sub = plan.for_machine(host.machine_id)
            if sub.specs:
                FaultInjector(sub).install(host.platform)
        service = WorkDistributionService(
            fleet,
            JobSpec(n=DEFAULT_N, total_units=self.UNITS, range_per_unit=400,
                    batch_size=16, slice_ms=2000.0, timeout_ms=60_000.0),
            quorum=QuorumPolicy(base_quorum=3, trusted_quorum=1),
            reputation=ReputationPolicy(promote_after=3, spot_check_every=4),
            behaviors=parse_behaviors("1:lazy,5:forge,9:dropout,13:flaky:90000"),
            tenants=("alice", "bob", "carol"),
        )
        report = service.run()
        # The closure holds the job database only, so the fleet is freed
        # before the next run.
        db = service.db
        return (lambda: ({"db_sha1": hashlib.sha1(
            db.dump_json().encode()).hexdigest()},
            report.total_units - report.units_validated)), report, fleet

    def ops(self):
        for _ in range(self.RUNS):
            yield self._op

    def _op(self) -> Op:
        finish, report, fleet = self._run()
        hits = misses = 0  # every TPM of the run is new
        for host in fleet.hosts:
            info = _tpm_read_cache_info(host.platform.machine.tpm)
            hits += info["hits"]
            misses += info["misses"]
        return Op(finish, attempted=report.total_units,
                  sessions=report.total_sessions, read_cache=(hits, misses),
                  dist={"assignments": report.assignments,
                        "resends": report.resends,
                        "validated": report.units_validated})


class Lint:
    """``python -m repro.tools.lint`` on the configured paths, once in a
    fresh interpreter."""

    cold_first_op = False
    identical_ops = False

    def __init__(self, seed: int) -> None:
        from repro.tools import lint

        self.lint = lint
        self.setup_record = None

    def ops(self):
        yield self._op

    def _op(self) -> Op:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lint.main(["--root", ROOT, "--json"])
        doc = json.loads(out.getvalue())
        findings = doc["findings"]
        return Op(lambda: ({"findings": findings, "exit": code},
                           int(code != 0 or bool(findings))),
                  attempted=1, rule_ms={rule: stat["wall_ms"]
                           for rule, stat in doc["meta"]["rule_timings"].items()})


WORKLOADS = {"apps_warm": AppsWarm, "fleet10k": Fleet10k,
             "dist_tenants": DistTenants, "lint": Lint}


# -- per-layer table ----------------------------------------------------------

KEYGEN_PROBE = "repro.crypto.rsa:generate_rsa_keypair"

#: Counters read before and after each call of these functions while
#: tracing; the deltas accumulate in ``Tracer.probes``.
PROBES = {
    "repro.tpm.tpm:TPM._cached_read":
        lambda tpm, *args, **kwargs: tuple(
            _tpm_read_cache_info(tpm)[k] for k in ("hits", "misses")),
    KEYGEN_PROBE: lambda *args, **kwargs: (keygen_cache_info()["entries"],),
    "repro.sim.sched.events:EventScheduler.run":
        lambda scheduler, *args, **kwargs: (scheduler.events_executed,),
}

#: Named layer parts reported with self time (``<key>.self_ms``).
SELF_MS_KEYS = ("crypto.sha1_stream", "crypto.md5crypt", "crypto.keygen",
                "crypto.rsa_private", "crypto.aes", "crypto.sha512",
                "hw.skinit", "osim.kernel_build", "core.slb_build",
                "core.session", "core.verify", "core.clone", "sim.sched",
                "sim.rng")

#: Lint rules reported as ``analysis.rule.<ID>_ms``.
RULE_IDS = ("CG001", "DET001", "DET002", "DET003", "DET004", "ISO001",
            "ISO002", "RACE001", "SEC001", "SEC002", "SUP001", "TCB001",
            "TCB002")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, job_ms: float, ops, first_keygen,
                  measurement) -> dict:
    """The per-layer metrics of one traced worker's timed region."""
    metrics = {}
    for layer, total in tracer.layer_totals().items():
        metrics[f"{layer}.self_ms"] = total["self_ms"]
        metrics[f"{layer}.calls"] = total["calls"]
    for key in SELF_MS_KEYS:
        metrics[f"{key}.self_ms"] = tracer.self_ns.get(key, 0) / 1e6
    calls = tracer.calls
    keygen_calls = calls.get("crypto.keygen", 0)
    metrics["crypto.keygen.calls"] = keygen_calls
    # A call that added no memo entry was a hit.  ``first_keygen`` holds
    # the (calls, misses) of the first op alone.
    misses = tracer.probes.get(KEYGEN_PROBE, [0])[0]
    first_calls, first_misses = first_keygen
    metrics["crypto.keygen.first_op_memo_hit_ratio"] = _ratio(
        first_calls - first_misses, first_calls)
    metrics["crypto.keygen.memo_hit_ratio"] = _ratio(
        (keygen_calls - first_calls) - (misses - first_misses),
        keygen_calls - first_calls)
    for op in ("seal", "unseal", "quote"):
        metrics[f"tpm.{op}.calls"] = calls.get(f"tpm.{op}", 0)
    hits, reads_missed = tracer.probes.get("repro.tpm.tpm:TPM._cached_read", [0, 0])
    metrics["tpm.read_cache.lookups"] = hits + reads_missed
    metrics["tpm.read_cache.hit_ratio"] = _ratio(hits, hits + reads_missed)
    metrics["hw.measurement_cache.lookups"] = measurement[0] + measurement[1]
    metrics["hw.measurement_cache.hit_ratio"] = _ratio(
        measurement[0], measurement[0] + measurement[1])
    metrics["sim.sched.events"] = tracer.probes.get(
        "repro.sim.sched.events:EventScheduler.run", [0])[0]
    dist_ops = [op for op in ops if op.dist]
    metrics["dist.assignments"] = sum(op.dist["assignments"] for op in dist_ops)
    metrics["dist.resends"] = sum(op.dist["resends"] for op in dist_ops)
    metrics["dist.useful_ratio"] = _ratio(
        sum(op.dist["validated"] for op in dist_ops),
        sum(op.sessions for op in dist_ops))
    metrics["vtpm.quotes"] = calls.get("vtpm.quote", 0)
    metrics["analysis.load_project_ms"] = tracer.self_ns.get(
        "analysis.load_project", 0) / 1e6
    metrics["analysis.callgraph_ms"] = tracer.self_ns.get(
        "analysis.callgraph", 0) / 1e6
    for rule in RULE_IDS:
        metrics[f"analysis.rule.{rule}_ms"] = sum(
            op.rule_ms.get(rule, 0.0) for op in ops)
    metrics["unattributed_ms"] = job_ms - tracer.top_ns / 1e6
    metrics["traced_wall_ms"] = job_ms
    return metrics


# -- main ---------------------------------------------------------------------


def run(name: str, seed: int, spawn_time: float, mode: str) -> dict:
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(PROBES)
    workload = WORKLOADS[name](seed)
    errors = []
    start_caches = _global_caches()
    setup_s = time.monotonic() - spawn_time
    if mode == "setup":
        return {"workload": name, "seed": seed, "setup_s": setup_s}
    if tracer is not None:
        tracer.reset()
    results = []
    timings = []
    if tracer is None:  # tracing would count the sampler's loops as program time
        SAMPLER.start()
    for index, op in enumerate(workload.ops()):
        before = _global_caches()
        if index == 0 and workload.cold_first_op and before["keygen_entries"]:
            errors.append(f"cold op started with {before['keygen_entries']} "
                          "keygen memo entries")
        # Each op starts with no garbage left over from the one before.
        gc.collect()
        start = SAMPLER.clock()
        try:
            result = op()
        except Exception:  # a crashed op is a failed op; keep measuring
            errors.append(traceback.format_exc())
            result = Op(lambda: ({"crash": True}, 1), attempted=1)
        elapsed_ms = (SAMPLER.clock() - start) * 1e3
        if index == 0 and tracer is not None:
            first_keygen = (tracer.calls.get("crypto.keygen", 0),
                            tracer.probes.get(KEYGEN_PROBE, [0])[0])
        results.append(result)
        timings.append({"ms": elapsed_ms, "sessions": result.sessions,
                        "parts": result.parts, "caches_before": before,
                        "caches_after": _global_caches(),
                        "read_cache": result.read_cache})
    SAMPLER.stop()
    job_ms = sum(t["ms"] for t in timings)
    layers = None
    if tracer is not None:
        end_caches = timings[-1]["caches_after"]
        measurement = tuple(end_caches[k] - start_caches[k]
                            for k in ("measurement_hits", "measurement_misses"))
        layers = layer_metrics(tracer, job_ms, results, first_keygen,
                               measurement)
        tracer.restore()
    # Results are checked and digested after the timers and the tracer
    # have stopped.
    for result in results:
        result.record, result.failed = result.finish()
    op_digests = [_sha1_json(r.record) for r in results]
    if workload.identical_ops:
        expected = {_sha1_json(workload.setup_record)} if workload.setup_record else set()
        if len(set(op_digests) | expected) != 1:
            errors.append("the repeated ops did not reproduce the same results")
    doc = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "cold_first_op": workload.cold_first_op,
        "ops": timings,
        "job_ms": job_ms,
        "calibration_ms": SAMPLER.samples,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "digest": _sha1_json({"setup": workload.setup_record,
                              "ops": [r.record for r in results]}),
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layers is not None:
        doc["layers"] = layers
    return doc


def main(argv) -> int:
    name, seed, spawn_time, mode = argv
    if mode not in ("run", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    doc = run(name, int(seed), float(spawn_time), mode)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
