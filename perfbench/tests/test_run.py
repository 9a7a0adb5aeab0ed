"""Host-speed scaling, the run's worker schedule, and the host sampler."""

import signal
import time

import run
import worker


def _doc(calibration_ms, job_ms=1000.0, ops=(400.0, 600.0)):
    return {"calibration_ms": list(calibration_ms), "job_ms": job_ms,
            "cold_first_op": False, "ops": [{"ms": ms} for ms in ops]}


def test_host_factor_is_reference_over_median_sample():
    ref = run.REFERENCE_CALIBRATION_MS
    doc = _doc([ref * 2, ref * 2, ref * 9])  # one slow outlier
    assert run.host_factor(doc) == 0.5
    assert run.job_times([doc], scaled=True) == [0.5]
    assert run.job_times([doc], scaled=False) == [1.0]
    assert run.op_times([doc], scaled=True) == [200.0, 300.0]


def test_scaling_cancels_a_uniformly_slower_host():
    ref = run.REFERENCE_CALIBRATION_MS
    fast = _doc([ref] * 5, job_ms=1000.0)
    slow = _doc([ref * 1.4] * 5, job_ms=1400.0)
    assert abs(run.job_times([slow], True)[0] - run.job_times([fast], True)[0]) < 1e-9


def test_no_worker_starts_that_would_end_after_the_run(monkeypatch):
    now = [0.0]
    started = []
    cost = {"run": 6.0, "setup": 1.0}

    def fake_worker(workload, seed, mode, timeout):
        started.append(mode)
        now[0] += cost[mode]
        return {"setup_s": 0.5}

    monkeypatch.setattr(run.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(run, "run_worker", fake_worker)
    untraced, traced, setups = run.run_workers("apps_warm", 1, 20.0, trace=False)
    # run, 3 setup (9 s), run (15 s), 3 setup (18 s); another run would end at 24 s.
    assert started == ["run", "setup", "setup", "setup"] * 2
    assert len(untraced) == 2 and not traced and len(setups) == 8
    assert now[0] <= 20.0


def test_the_minimum_workers_run_past_the_deadline(monkeypatch):
    now = [0.0]

    def fake_worker(workload, seed, mode, timeout):
        now[0] += 30.0
        return {"setup_s": 0.5}

    monkeypatch.setattr(run.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(run, "run_worker", fake_worker)
    untraced, _, _ = run.run_workers("dist_tenants", 1, 20.0, trace=False)
    assert len(untraced) == run.MIN_WORKERS


def test_sampler_clock_leaves_out_its_loops_and_restores_the_signal():
    sampler = worker.HostSampler()
    before = signal.getsignal(signal.SIGALRM)
    sampler.start()
    wall0, clock0 = time.perf_counter(), sampler.clock()
    while time.perf_counter() - wall0 < 0.5:
        pass
    wall, clock = time.perf_counter() - wall0, sampler.clock() - clock0
    sampler.stop()
    assert len(sampler.samples) >= 1
    assert abs((wall - clock) * 1e3 - sampler.spent_ms) < 1.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    signal.signal(signal.SIGALRM, before)
