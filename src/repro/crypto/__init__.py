"""The PAL crypto library.

The paper's PAL-linkable ``Crypto`` module (Figure 6: 2262 LOC) provides a
multi-precision integer library, RSA key generation, RSA encryption and
decryption, SHA-1, SHA-512, MD5, AES, and RC4.  This package offers the
same inventory.  SHA-1, SHA-512 and MD5 are thin wrappers over the
standard library's :mod:`hashlib`; AES-128 is table-driven; the rest is
Python.  No external crypto library is used.

All hash implementations are validated against known-answer vectors and,
with AES, differentially against from-spec oracles kept in the test
suite; RSA/PKCS#1 are validated by round-trip and cross-checks; AES is
validated against the FIPS-197 vectors; RC4 against the RFC 6229 streams;
md5crypt against glibc-produced hashes.
"""

from repro.crypto.sha1 import sha1, SHA1
from repro.crypto.sha512 import sha512, SHA512
from repro.crypto.md5 import md5, MD5
from repro.crypto.hmac import hmac_sha1, hmac_md5
from repro.crypto.aes import AES128
from repro.crypto.rc4 import RC4
from repro.crypto.mpi import (
    mod_pow,
    mod_inverse,
    is_probable_prime,
    generate_prime,
    gcd,
)
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSAPrivateKey, generate_rsa_keypair
from repro.crypto.pkcs1 import (
    pkcs1_encrypt,
    pkcs1_decrypt,
    pkcs1_sign_sha1,
    pkcs1_verify_sha1,
)
from repro.crypto.md5crypt import md5crypt
from repro.crypto.drbg import HashDRBG

__all__ = [
    "sha1", "SHA1", "sha512", "SHA512", "md5", "MD5",
    "hmac_sha1", "hmac_md5",
    "AES128", "RC4",
    "mod_pow", "mod_inverse", "is_probable_prime", "generate_prime", "gcd",
    "RSAKeyPair", "RSAPublicKey", "RSAPrivateKey", "generate_rsa_keypair",
    "pkcs1_encrypt", "pkcs1_decrypt", "pkcs1_sign_sha1", "pkcs1_verify_sha1",
    "md5crypt", "HashDRBG",
]
