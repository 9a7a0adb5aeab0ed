"""Differential tests: product crypto against the from-spec oracles.

The product hashes wrap :mod:`hashlib` and the product AES is
table-driven; :mod:`tests.crypto.reference` keeps the textbook
algorithms.  Every test here feeds both the same input and requires
byte-identical output.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import _INV_SBOX, _SBOX, AES128
from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.sha512 import SHA512, sha512
from tests.crypto import reference

HASHES = [
    pytest.param(SHA1, sha1, reference.SHA1, id="sha1"),
    pytest.param(MD5, md5, reference.MD5, id="md5"),
    pytest.param(SHA512, sha512, reference.SHA512, id="sha512"),
]

# Lengths 0-300 with extra weight on the padding edges of 64-byte
# (55/56/64) and 128-byte (111/112/128) blocks.
_EDGES = [55, 56, 63, 64, 65, 111, 112, 119, 120, 127, 128, 129, 183, 184, 256]
messages = st.one_of(
    st.binary(max_size=300),
    st.sampled_from(_EDGES).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
)

DIFFERENTIAL = settings(max_examples=60, deadline=None)


@pytest.mark.parametrize("product_cls,one_shot,oracle_cls", HASHES)
def test_every_length_up_to_300(product_cls, one_shot, oracle_cls):
    for length in range(301):
        data = bytes((7 * i + length) & 0xFF for i in range(length))
        expected = oracle_cls(data).digest()
        assert one_shot(data) == expected, length
        assert product_cls(data).digest() == expected, length


@pytest.mark.parametrize("product_cls,one_shot,oracle_cls", HASHES)
@DIFFERENTIAL
@given(data=messages)
def test_one_shot_and_class_match_oracle(product_cls, one_shot, oracle_cls, data):
    expected = oracle_cls(data).digest()
    assert one_shot(data) == expected
    h = product_cls(data)
    assert h.digest() == expected
    assert h.hexdigest() == oracle_cls(data).hexdigest()
    assert len(expected) == product_cls.digest_size == oracle_cls.digest_size
    assert product_cls.block_size == oracle_cls.block_size


@pytest.mark.parametrize("product_cls,one_shot,oracle_cls", HASHES)
@DIFFERENTIAL
@given(data=messages, cuts=st.lists(st.integers(0, 300), max_size=8),
       fork_at=st.integers(0, 8), suffix=st.binary(max_size=70))
def test_chunked_updates_and_midstream_copy(product_cls, one_shot, oracle_cls,
                                            data, cuts, fork_at, suffix):
    bounds = sorted({0, len(data), *(c for c in cuts if c <= len(data))})
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    product, oracle = product_cls(), oracle_cls()
    fork = None
    for i, chunk in enumerate(chunks):
        if i == min(fork_at, len(chunks) - 1):
            fork = (product.copy(), oracle.copy())
            # digest() mid-stream must not disturb the running state.
            assert product.digest() == oracle.digest()
        assert product.update(chunk) is product
        oracle.update(chunk)
    assert product.digest() == oracle.digest() == one_shot(data)
    if fork is not None:
        product_fork, oracle_fork = fork
        product_fork.update(suffix)
        oracle_fork.update(suffix)
        assert product_fork.digest() == oracle_fork.digest()
        # The fork is independent of the stream it was copied from.
        assert product.digest() == one_shot(data)


def test_sbox_matches_field_inverse_derivation():
    assert list(_SBOX) == reference.SBOX
    assert list(_INV_SBOX) == reference.INV_SBOX


keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)


@settings(max_examples=200, deadline=None)
@given(key=keys, block=blocks)
def test_aes_encrypt_block_matches_oracle(key, block):
    assert AES128(key).encrypt_block(block) == reference.aes128_encrypt_block(key, block)


@settings(max_examples=200, deadline=None)
@given(key=keys, block=blocks)
def test_aes_decrypt_block_matches_oracle(key, block):
    assert AES128(key).decrypt_block(block) == reference.aes128_decrypt_block(key, block)


def _oracle_cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    pad = 16 - len(plaintext) % 16
    padded = plaintext + bytes([pad]) * pad
    out, prev = b"", iv
    for i in range(0, len(padded), 16):
        prev = reference.aes128_encrypt_block(
            key, bytes(a ^ b for a, b in zip(padded[i:i + 16], prev)))
        out += prev
    return out


@DIFFERENTIAL
@given(key=keys, iv=blocks, plaintext=st.binary(max_size=100))
def test_aes_cbc_round_trip_matches_oracle(key, iv, plaintext):
    cipher = AES128(key)
    ciphertext = cipher.encrypt_cbc(plaintext, iv)
    assert ciphertext == _oracle_cbc_encrypt(key, plaintext, iv)
    assert cipher.decrypt_cbc(ciphertext, iv) == plaintext
