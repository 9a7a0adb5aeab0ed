"""Secret hygiene: unsealed material must never reach an output channel.

The simulation's security invariant (pinned dynamically by the fault
campaign's leak detector) is that secrets released by the TPM — unsealed
plaintext, GetRandom output, generated private keys — stay inside the
session.  SEC001 checks the same property statically: a value produced
by a secret-bearing call must not flow into logging, trace events,
observability spans/events, exception messages or ``print`` — all of
which end up in exporter payloads, reports, or the terminal.

SEC001 is the same-function slice of the shared taint analysis
(:mod:`repro.analysis.interproc`): the flows whose secret label never
crossed a function boundary.  Flows through wrappers are SEC002's, so
one engine decides what is tainted and each leak is reported once.
Passing a secret through a *measurement* function (``sha1``/``sha512``/
``md5``/``hmac_sha1``/``len``/``io_measurement``/``measure``) sanitizes
it, because digests and lengths are exactly what the paper's protocols
make public.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, Project, Rule, register
from repro.analysis.interproc import get_taint


@register
class SecretToSinkRule(Rule):
    """Values from Unseal/GetRandom/key generation must not be published.

    Within each function, values from a secret-bearing call
    (``*.unseal(...)``, ``*.get_random(...)``,
    ``generate_rsa_keypair(...)``, …) are tainted, and taint follows
    assignments and ``for`` targets.  A finding fires when such a value
    reaches the arguments of ``print``, ``logging`` methods,
    ``*.emit(...)`` trace events, ``*.event(...)`` / ``*.span(...)``
    observability calls, or a raised exception's message.  A secret that
    passed through a project function on the way is SEC002's finding
    instead; both rules read the one shared taint analysis.

    Publishing a *digest* or a *length* of a secret is fine (that is
    how the paper's protocols communicate): pass the value through
    ``sha1``/``len``/``io_measurement`` first.  The public half of a
    keypair (``.public``, ``.public_key``) is public too.  If a site is
    a true false positive, suppress it with ``# repro: noqa[SEC001]``
    plus a comment saying why the value is not secret.
    """

    id = "SEC001"
    title = "secret value flows into an output channel"
    severity = "error"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for flow in get_taint(project).flows:
            if flow.kind != "secret" or flow.crossed:
                continue
            where = (
                f"'{flow.sink}' output; log a digest or length instead"
                if flow.sink else
                "an exception message; exceptions cross the trust boundary"
            )
            yield Finding(
                self.id, flow.relpath, flow.line,
                f"secret-derived value reaches {where}", self.severity,
            )
