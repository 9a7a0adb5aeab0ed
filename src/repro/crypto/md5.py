"""MD5 (RFC 1321).

The SSH application hashes passwords with ``md5crypt`` — the classic
``$1$``-prefixed crypt scheme used in ``/etc/passwd`` on the paper's test
systems — which is built on MD5 (:mod:`repro.crypto.md5crypt`).
:class:`MD5` wraps :func:`hashlib.md5`; the test suite pins it byte-equal
to a from-spec oracle.
"""

from __future__ import annotations

import hashlib as _hashlib


class MD5:
    """Incremental MD5."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = _hashlib.md5(data)

    def update(self, data: bytes) -> "MD5":
        """Absorb ``data``; returns self for chaining."""
        self._state.update(data)
        return self

    def digest(self) -> bytes:
        """Return the 16-byte digest without disturbing internal state."""
        return self._state.digest()

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self._state.hexdigest()

    def copy(self) -> "MD5":
        """Return an independent copy of the running hash state."""
        clone = MD5()
        clone._state = self._state.copy()
        return clone


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of ``data``."""
    return _hashlib.md5(data).digest()
