"""SHA-1 (FIPS 180-1).

SHA-1 is the measurement hash of the TPM v1.2 architecture: every PCR
extend, every SLB measurement, and every event-log entry in this
reproduction is a SHA-1 digest, exactly as in the paper.  (SHA-1's collision
weaknesses post-date the paper's threat model; we reproduce the system as
published.)

The compression function is the standard library's C implementation:
:class:`SHA1` wraps :func:`hashlib.sha1` behind the PAL crypto library's
incremental interface, and the one-shot :func:`sha1` and
:func:`sha1_cached` helpers call it directly.  The from-spec algorithm
lives on as the test suite's oracle, which pins the two byte-equal.
"""

from __future__ import annotations

import functools as _functools
import hashlib as _hashlib


class SHA1:
    """Incremental SHA-1 with the familiar ``update``/``digest`` interface."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = _hashlib.sha1(data)

    def update(self, data: bytes) -> "SHA1":
        """Absorb ``data``; returns self for chaining."""
        self._state.update(data)
        return self

    def digest(self) -> bytes:
        """Return the 20-byte digest without disturbing internal state."""
        return self._state.digest()

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self._state.hexdigest()

    def copy(self) -> "SHA1":
        """Return an independent copy of the running hash state."""
        clone = SHA1()
        clone._state = self._state.copy()
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return _hashlib.sha1(data).digest()


@_functools.lru_cache(maxsize=128)
def sha1_cached(data: bytes) -> bytes:
    """Content-memoized SHA-1 for large, frequently re-measured blobs.

    The simulated platform measures the same 64-KB SLB image on every
    SKINIT; caching by content keeps the simulation honest (different
    bytes always produce a fresh digest) while avoiding redundant
    hashing.  Use plain :func:`sha1` for anything secret — the cache
    retains references to its inputs.
    """
    return sha1(data)
