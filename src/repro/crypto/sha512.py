"""SHA-512 (FIPS 180-2).

Included because the paper's PAL crypto library ships SHA-512 alongside
SHA-1; the reproduction uses it inside the deterministic DRBG
(:mod:`repro.crypto.drbg`) and offers it to PAL authors.
:class:`SHA512` wraps :func:`hashlib.sha512`; the test suite pins it
byte-equal to a from-spec oracle.
"""

from __future__ import annotations

import hashlib as _hashlib


class SHA512:
    """Incremental SHA-512."""

    digest_size = 64
    block_size = 128

    def __init__(self, data: bytes = b"") -> None:
        self._state = _hashlib.sha512(data)

    def update(self, data: bytes) -> "SHA512":
        """Absorb ``data``; returns self for chaining."""
        self._state.update(data)
        return self

    def digest(self) -> bytes:
        """Return the 64-byte digest without disturbing internal state."""
        return self._state.digest()

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self._state.hexdigest()

    def copy(self) -> "SHA512":
        """Return an independent copy of the running hash state."""
        clone = SHA512()
        clone._state = self._state.copy()
        return clone


def sha512(data: bytes) -> bytes:
    """One-shot SHA-512 digest of ``data``."""
    return _hashlib.sha512(data).digest()
