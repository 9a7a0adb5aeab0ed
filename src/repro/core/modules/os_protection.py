"""OS-Protection module: confine the PAL, not just protect it.

Paper §5.1.2: Flicker's default protections run the PAL at ring 0 with
access to all physical memory; the OS-Protection module instead creates
segment descriptors whose base is the start of the PAL's region and whose
limit is the end of the memory the OS allocated, and runs the PAL in ring
3.  A misbehaving PAL then cannot read or clobber the rest of the system.

:class:`PALMemoryView` is the access path every PAL uses for memory; the
two factory functions build the unrestricted (default) and restricted
(OS-Protection) variants.
"""

from __future__ import annotations

from repro.core.layout import SLBLayout
from repro.hw.cpu import SegmentDescriptor
from repro.hw.memory import PhysicalMemory


class PALMemoryView:
    """Memory access as seen by a running PAL.

    Reads and writes are expressed in *physical* addresses for
    convenience; a restricted view translates them through a segment
    descriptor that enforces the allowed window, mirroring how the real
    module uses segmentation rather than paging.
    """

    def __init__(self, memory: PhysicalMemory, segment: SegmentDescriptor, ring: int) -> None:
        self._memory = memory
        self.segment = segment
        self.ring = ring

    def read(self, addr: int, length: int) -> bytes:
        """Read physical memory through the active segment."""
        physical = self.segment.translate(addr - self.segment.base, length)
        return self._memory.read(physical, length)

    def write(self, addr: int, data: bytes) -> None:
        """Write physical memory through the active segment."""
        physical = self.segment.translate(addr - self.segment.base, len(data))
        self._memory.write(physical, data)

    def zeroize(self, addr: int, length: int) -> None:
        """Zero a range through the active segment."""
        physical = self.segment.translate(addr - self.segment.base, length)
        self._memory.zeroize(physical, length)


def unrestricted_view(memory: PhysicalMemory) -> PALMemoryView:
    """The default: ring-0 PAL with a flat segment over all of memory
    ("by default … a PAL can access the machine's entire physical memory",
    §4.2)."""
    segment = SegmentDescriptor("pal-flat", base=0, limit=memory.size_bytes, dpl=0)
    return PALMemoryView(memory, segment, ring=0)


def restricted_view(memory: PhysicalMemory, layout: SLBLayout) -> PALMemoryView:
    """The OS-Protection configuration: ring-3 PAL confined to the SLB
    region plus its input/output pages."""
    segment = SegmentDescriptor(
        "pal-restricted",
        base=layout.pal_window_start,
        limit=layout.pal_window_end - layout.pal_window_start,
        dpl=3,
    )
    return PALMemoryView(memory, segment, ring=3)
