"""Memory layout of the Secure Loader Block (paper Figure 3).

The SLB proper is a 64-KB region: a 4-byte header (two 16-bit words:
length and entry point), the SLB Core, optional linked modules, the PAL's
code, heap space for the memory-management module, and a 4-KB stack at the
top.  Above the SLB sit the parameter pages:

* first page above the SLB — PAL inputs (written by the flicker-module
  before the session);
* second page — PAL outputs ("our convention is to use the second 4-KB
  page above the 64-KB SLB", §5.1.1);
* third page — saved kernel state (CR3, GDT pointer, session nonce),
  written by the flicker-module during Suspend OS and consumed by the SLB
  Core's Resume OS phase.

One deliberate deviation from the paper: the reproduction's SLB Core
derives its segment bases from the SLB base address that SKINIT provides
in EAX (the approach OSLO uses), instead of having the flicker-module
patch GDT entries into the image.  This keeps the SLB image — and hence
its measurement — position independent, which simplifies attestation
without weakening it: the verifier's expected measurement no longer
depends on where the kernel happened to allocate the SLB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SLBFormatError
from repro.hw.memory import PAGE_SIZE

#: Total size of the protected SLB region.
SLB_REGION_SIZE = 64 * 1024

#: Size of the stack at the top of the SLB (Figure 3).
SLB_STACK_SIZE = 4 * 1024

#: Maximum end of PAL code: "End of PAL (Start + 60KB)" in Figure 3.
SLB_MAX_CODE = SLB_REGION_SIZE - SLB_STACK_SIZE

#: Size of each parameter page.
PARAM_PAGE_SIZE = PAGE_SIZE

#: Maximum payload carried in the input/output pages (4-byte length header).
MAX_PARAM_BYTES = PARAM_PAGE_SIZE - 4

#: Size of the hash-then-extend bootstrap stub (paper §7.2: "We have
#: constructed such a PAL in 4736 bytes").
OPTIMIZED_STUB_BYTES = 4736


@dataclass(frozen=True)
class SLBLayout:
    """Concrete addresses for one installed SLB."""

    base: int

    def __post_init__(self) -> None:
        if self.base % PAGE_SIZE:
            raise SLBFormatError(f"SLB base {self.base:#x} must be page aligned")

    # -- the SLB region --------------------------------------------------------

    @property
    def end(self) -> int:
        """One past the SLB region (``base + 64 KB``)."""
        return self.base + SLB_REGION_SIZE

    @property
    def stack_base(self) -> int:
        """Bottom of the 4-KB stack at the top of the region."""
        return self.end - SLB_STACK_SIZE

    # -- parameter pages ----------------------------------------------------------

    @property
    def input_page(self) -> int:
        """First page above the SLB: PAL inputs."""
        return self.end

    @property
    def output_page(self) -> int:
        """Second page above the SLB: PAL outputs (``PAL_OUT``)."""
        return self.end + PARAM_PAGE_SIZE

    @property
    def saved_state_page(self) -> int:
        """Third page above the SLB: saved kernel state + session nonce."""
        return self.end + 2 * PARAM_PAGE_SIZE

    # -- PAL-visible window -----------------------------------------------------------

    @property
    def pal_window_start(self) -> int:
        """Start of the memory the OS-Protection module allows a PAL."""
        return self.base

    @property
    def pal_window_end(self) -> int:
        """End of the allowed PAL window: the SLB plus the input and output
        pages (the saved kernel state is off limits)."""
        return self.output_page + PARAM_PAGE_SIZE


def encode_param(data: bytes) -> bytes:
    """Length-prefix a parameter payload for an input/output page."""
    if len(data) > MAX_PARAM_BYTES:
        raise SLBFormatError(
            f"parameter of {len(data)} bytes exceeds the {MAX_PARAM_BYTES}-byte page payload"
        )
    return len(data).to_bytes(4, "big") + data


def decode_param(page: bytes) -> bytes:
    """Inverse of :func:`encode_param`; tolerates trailing page padding."""
    if len(page) < 4:
        raise SLBFormatError("parameter page too small")
    length = int.from_bytes(page[:4], "big")
    if length > len(page) - 4:
        raise SLBFormatError("parameter length exceeds page")
    return page[4 : 4 + length]
