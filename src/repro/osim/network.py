"""Network path between the Flicker platform and remote parties.

The paper's remote verifier sits 12 hops away with an average ping of
9.45 ms (§7.1).  The simulation models the path as a fixed one-way latency
per message; payload serialization is by plain Python objects (the
protocols under test are application-level).

Two delivery modes coexist:

* :meth:`NetworkLink.send` — the legacy synchronous mode: latency is
  charged to the sender's clock and the payload is returned "at" the
  receiver.  Single-machine deployments (one clock, one timeline) keep
  using this path unchanged, which preserves the paper-calibrated
  timings bit-for-bit.
* :meth:`NetworkLink.deliver` — the fleet mode: delivery becomes a
  scheduled event on an :class:`~repro.sim.sched.EventScheduler`.
  Latency (plus optional seeded jitter) separates send from arrival, and
  per-link delivery stays in order even when jitter would reorder it.

The carried-message log is bounded (``max_log``) so long fleet runs don't
grow memory without limit; eavesdropper-style tests read it through the
public :meth:`messages` accessor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import EventTrace

#: Default bound on the per-link message log.
DEFAULT_MAX_LOG = 4096


@dataclass
class RemoteHost:
    """A named endpoint on the far side of a link (e.g. the admin's
    workstation, or the SSH client)."""

    name: str


def payload_nbytes(payload: Any) -> int:
    """Approximate wire size of a payload, for throughput accounting.

    ``bytes``/``str`` count exactly; objects exposing ``encode()`` (the
    protocol structures in this repository) count their encoding; anything
    else counts its ``repr`` — a stable, deterministic stand-in.
    """
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    encode = getattr(payload, "encode", None)
    if callable(encode):
        try:
            encoded = encode()
            if isinstance(encoded, (bytes, bytearray)):
                return len(encoded)
        except TypeError:
            pass
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return len(repr(payload))


class NetworkLink:
    """A bidirectional link with symmetric one-way latency."""

    def __init__(
        self,
        clock: VirtualClock,
        trace: EventTrace,
        one_way_ms: float,
        hops: int = 12,
        scheduler=None,
        jitter_ms: float = 0.0,
        rng: Optional[DeterministicRNG] = None,
        max_log: Optional[int] = DEFAULT_MAX_LOG,
        name: str = "link",
    ) -> None:
        self.clock = clock
        self.trace = trace
        self.one_way_ms = one_way_ms
        self.hops = hops
        self.scheduler = scheduler
        self.jitter_ms = jitter_ms
        self.rng = rng
        self.name = name
        self.max_log = max_log
        self._messages: Deque[Tuple[str, str, Any]] = deque(maxlen=max_log)
        #: Messages evicted from the bounded log (carried, then forgotten).
        self.messages_dropped = 0
        #: Total messages / payload bytes carried, never truncated.
        self.messages_carried = 0
        self.bytes_carried = 0
        #: Latest delivery time scheduled on this link (in-order floor).
        self._last_delivery_ms = 0.0

    # -- shared bookkeeping ----------------------------------------------------

    def _latency_ms(self) -> float:
        """One-way latency for the next message (jitter is seeded)."""
        latency = self.one_way_ms
        if self.jitter_ms > 0.0 and self.rng is not None:
            latency += abs(self.rng.gauss(0.0, self.jitter_ms))
        return latency

    def _record(self, time_ms: float, sender: str, receiver: str,
                payload: Any) -> None:
        self.trace.emit(time_ms, "net", "message",
                        sender=sender, receiver=receiver,
                        payload_type=type(payload).__name__)
        if self.max_log is not None and len(self._messages) == self.max_log:
            self.messages_dropped += 1
        self._messages.append((sender, receiver, payload))
        self.messages_carried += 1
        self.bytes_carried += payload_nbytes(payload)

    # -- synchronous (single-timeline) mode -------------------------------------

    def send(self, sender: str, receiver: str, payload: Any) -> Any:
        """Deliver ``payload`` from ``sender`` to ``receiver``, charging
        one-way latency.  Returns the payload (now 'at' the receiver)."""
        self.clock.advance(self.one_way_ms)
        self._record(self.clock.now(), sender, receiver, payload)
        return payload

    def round_trip(self, requester: str, responder: str, request: Any,
                   handler: Callable[[Any], Any]) -> Any:
        """One request/response exchange: charges two one-way latencies and
        runs ``handler`` at the responder in between."""
        delivered = self.send(requester, responder, request)
        response = handler(delivered)
        return self.send(responder, requester, response)

    # -- scheduled (fleet) mode --------------------------------------------------

    def deliver(self, sender: str, receiver: str, payload: Any,
                handler: Callable[[Any], Any],
                now_ms: Optional[float] = None):
        """Schedule delivery of ``payload``; returns the delivery event.

        The message leaves at ``now_ms`` (default: this link's clock,
        i.e. the *sender's* local time) and arrives one latency later.
        ``handler(payload)`` runs at arrival — typically a
        :meth:`~repro.sim.sched.Mailbox.put`.  Deliveries on one link
        never reorder: each arrival is clamped to be no earlier than the
        previously scheduled one.
        """
        if self.scheduler is None:
            raise RuntimeError(
                f"link {self.name!r} has no scheduler; use send() or build "
                f"the link with scheduler="
            )
        departed = self.clock.now() if now_ms is None else now_ms
        arrival = max(departed + self._latency_ms(),
                      self._last_delivery_ms, self.scheduler.now())
        self._last_delivery_ms = arrival

        def _arrive() -> None:
            self._record(arrival, sender, receiver, payload)
            handler(payload)

        return self.scheduler.at(
            arrival, _arrive, label=f"{self.name}:{sender}->{receiver}"
        )

    # -- the message log ---------------------------------------------------------

    def messages(self) -> List[Tuple[str, str, Any]]:
        """The retained ``(sender, receiver, payload)`` records, oldest
        first (at most ``max_log``; see :attr:`messages_dropped`).

        This is the accessor for tests that play a network eavesdropper —
        e.g. checking no cleartext password ever crosses the wire.
        """
        return list(self._messages)
