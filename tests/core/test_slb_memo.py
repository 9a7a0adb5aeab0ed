"""Memoized SLB building blocks: constant bytes and per-class PAL source.

``_bootstrap_stub`` and ``_module_binary`` are synthesized once per
process and ``PAL.code_bytes`` parses each class's source once.  These
tests pin the memoized bytes to the values the unmemoized synthesis
produced and check that the memos never hand one PAL another's identity.
"""

import pytest

from repro.core.layout import OPTIMIZED_STUB_BYTES
from repro.core.modules import MODULE_REGISTRY
from repro.core.pal import PAL, _class_source
from repro.core.slb import _bootstrap_stub, _module_binary, build_slb
from repro.crypto.sha1 import sha1
from repro.errors import PALRuntimeError

STUB_SHA1 = "1f9d697d22579d2af7f1be0adfbaa4e235168e09"

MODULE_SHA1 = {
    "crypto": "20e25df1f1fb81fa1fb438b0c4fe409881efa7cb",
    "crypto_sha1": "4d262f29dc03ae1dfe0fb647d29d396ddb0bdab8",
    "memory_mgmt": "c96d3f9105c07673063e553798c6c123da8b396a",
    "os_protection": "c1ec7bb617290d5f1a13e607a37889976c86e01f",
    "secure_channel": "b1ed364d22d0a7dc978e9485937f8b9c8c4af700",
    "slb_core": "dffed22279209c0a41dab040410d206fe1c939cc",
    "tpm_driver": "be73cee5105dfb0a36e224f4b796654cd4423ed1",
    "tpm_utils": "ef5e089bfa6656b2c98fe07d57048d4d1e3e415d",
}


class EchoPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(ctx.inputs)


class ShoutPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(ctx.inputs.upper())


class QuietEchoPAL(EchoPAL):
    pass


def test_bootstrap_stub_bytes_are_pinned():
    stub = _bootstrap_stub()
    assert len(stub) == OPTIMIZED_STUB_BYTES - 4
    assert sha1(stub).hex() == STUB_SHA1
    assert _bootstrap_stub() is stub


def test_every_module_binary_is_pinned():
    assert set(MODULE_SHA1) == set(MODULE_REGISTRY)
    for name, descriptor in MODULE_REGISTRY.items():
        binary = _module_binary(name)
        assert len(binary) == descriptor.size_bytes, name
        assert sha1(binary).hex() == MODULE_SHA1[name], name
        assert _module_binary(name) is binary


def test_different_sources_get_different_identities():
    echo, shout = EchoPAL(), ShoutPAL()
    for _ in range(2):  # second round is served from the memo
        assert echo.code_bytes() != shout.code_bytes()
        assert echo.code_bytes().startswith(b"class EchoPAL(PAL):")
        assert shout.code_bytes().startswith(b"class ShoutPAL(PAL):")
        assert (build_slb(echo).region_measurement
                != build_slb(shout).region_measurement)
        assert (build_slb(echo, optimize=False).skinit_measurement
                != build_slb(shout, optimize=False).skinit_measurement)


def test_subclass_does_not_reuse_parent_entry():
    parent = EchoPAL().code_bytes()  # fills the parent's entry first
    child = QuietEchoPAL().code_bytes()
    assert child.startswith(b"class QuietEchoPAL(EchoPAL):")
    assert child != parent
    assert _class_source(QuietEchoPAL) != _class_source(EchoPAL)
    assert build_slb(QuietEchoPAL()).region_measurement != build_slb(EchoPAL()).region_measurement


def test_instance_modules_override_gets_its_own_manifest():
    plain = EchoPAL()
    linked = EchoPAL()
    linked.modules = ("tpm_utils",)
    assert plain.code_bytes().endswith(b"\x00slb_core")
    assert linked.code_bytes().endswith(b"\x00slb_core,tpm_driver,tpm_utils")
    # Same class source, different manifest: the memo covers the source only.
    assert plain.code_bytes().split(b"\x00")[0] == linked.code_bytes().split(b"\x00")[0]
    assert build_slb(plain).region_measurement != build_slb(linked).region_measurement
    assert plain.code_bytes().endswith(b"\x00slb_core")
    # Relinking an instance after its first build changes its identity.
    plain.modules = ("crypto_sha1",)
    assert plain.code_bytes().endswith(b"\x00slb_core,crypto_sha1")


def test_pal_without_source_raises_on_every_call():
    namespace = {"PAL": PAL}
    exec("class GhostPAL(PAL):\n    name = 'ghost'\n", namespace)
    ghost = namespace["GhostPAL"]()
    for _ in range(3):
        with pytest.raises(PALRuntimeError, match="cannot obtain source of PAL 'ghost'"):
            ghost.code_bytes()
        with pytest.raises(PALRuntimeError):
            build_slb(ghost)
