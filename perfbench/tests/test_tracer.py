"""Span accounting and clean removal of the layer wrappers."""

import inspect
import sys

from tracer import Tracer, span_key


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans_across_layers():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tpm_quote():
        clock.now += 5

    def rsa_helper():
        clock.now += 7

    def keygen():
        clock.now += 2
        rsa_helper()

    def session():
        clock.now += 10
        tpm_quote()
        keygen()
        clock.now += 3

    tpm_quote = tracer.wrap_function(tpm_quote, "tpm.quote")
    rsa_helper = tracer.wrap_function(rsa_helper, "crypto")
    keygen = tracer.wrap_function(keygen, "crypto.keygen")
    session = tracer.wrap_function(session, "core.session")

    clock.now += 100  # outside every span: unattributed
    session()
    rsa_helper()

    assert tracer.self_ns["core.session"] == 13
    assert tracer.self_ns["tpm.quote"] == 5
    # A layer's unnamed helper inside a named part adds to that part...
    assert tracer.self_ns["crypto.keygen"] == 9
    # ...but outside one it is the layer's own time.
    assert tracer.self_ns["crypto"] == 7
    # Calls count under the key each function was wrapped with.
    assert tracer.calls == {"core.session": 1, "tpm.quote": 1,
                            "crypto.keygen": 1, "crypto": 2}
    totals = tracer.layer_totals()
    assert totals["crypto"] == {"self_ms": 16e-6, "calls": 3}
    # Self times add up to the outermost spans' wall time.
    assert tracer.top_ns == 34 == sum(tracer.self_ns.values())
    assert clock.now - tracer.top_ns == 100


def test_generator_resumptions_are_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def body():
        clock.now += 4
        value = yield 1
        clock.now += value
        return "done"

    def scheduler(gen):
        clock.now += 1
        first = gen.send(None)
        try:
            gen.send(6)
        except StopIteration as stop:
            return first, stop.value

    body = tracer.wrap_function(body, "dist")
    scheduler = tracer.wrap_function(scheduler, "sim.sched")
    assert scheduler(body()) == (1, "done")
    assert tracer.self_ns == {"dist": 10, "sim.sched": 1}
    assert tracer.calls["dist"] == 2


def test_probe_deltas_accumulate():
    tracer = Tracer(FakeClock())
    counter = [0]

    def work(n):
        counter[0] += n

    work = tracer.wrap_function(work, "crypto.keygen",
                                probe=lambda n: (counter[0],))
    work(2)
    work(3)
    assert tracer.probes == {f"{__name__}:test_probe_deltas_accumulate.<locals>.work": [5]}


def test_span_keys():
    assert span_key("repro.crypto.sha1", "SHA1.update") == "crypto.sha1_stream"
    assert span_key("repro.crypto.sha1", "sha1") == "crypto"
    assert span_key("repro.sim.sched.events", "EventScheduler.run") == "sim.sched"
    assert span_key("repro.tpm.tpm", "TPMInterface.seal") == "tpm.seal"
    assert span_key("repro.tpm.tpm", "TPM.seal") == "tpm"


def _snapshot():
    """Every attribute of every loaded repro module and its classes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if inspect.isclass(value):
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def test_traced_run_leaves_every_attribute_original():
    tracer = Tracer()
    tracer.install()  # imports every layer module first
    from repro.apps.rootkit_detector import RemoteAdministrator
    from repro.core import FlickerPlatform

    sha1_module = sys.modules["repro.crypto.sha1"]
    tracer.restore()
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    assert tracer.wrapped
    assert sha1_module.SHA1.update is not before[("repro.crypto.sha1", "SHA1", "update")]
    replaced = list(tracer._originals)
    report = RemoteAdministrator(FlickerPlatform(seed=3)).run_detection_query()
    assert report.attestation_valid
    assert tracer.calls["crypto.sha1_stream"] > 0
    tracer.restore()

    after = _snapshot()
    for owner, name, original in replaced:
        assert vars(owner)[name] is original
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
