"""CUDA fat binaries and their interception (paper §4.1).

A CUDA executable embeds a *fat binary*: a container holding
architecture-specific machine code (SASS) entries plus an
architecture-neutral, compressed PTX entry.  BARRACUDA is injected with
``LD_PRELOAD``, intercepts ``__cudaRegisterFatBinary()``, strips the
SASS entries (so the driver must JIT the PTX), decompresses and
instruments the PTX, and re-registers the rewritten binary.

We model the container faithfully enough to exercise that pipeline: SASS
entries are opaque byte blobs, the PTX entry is zlib-compressed text, and
:func:`intercept_fat_binary` performs the strip/extract/instrument/repack
sequence.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import InstrumentationError
from ..ptx.ast import Module
from ..ptx.parser import parse_ptx_cached
from .passes import InstrumentationReport, Instrumenter


class EntryKind(enum.Enum):
    PTX = "ptx"
    SASS = "sass"  # architecture-specific machine code: opaque to us


@dataclass(frozen=True)
class FatBinaryEntry:
    """One entry of a fat binary container."""

    kind: EntryKind
    arch: str  # e.g. "sm_35", "compute_35"
    payload: bytes

    @staticmethod
    def ptx(module: Module, arch: str = "compute_35") -> "FatBinaryEntry":
        return FatBinaryEntry(
            kind=EntryKind.PTX,
            arch=arch,
            payload=zlib.compress(str(module).encode("utf-8")),
        )

    @staticmethod
    def sass(arch: str, payload: bytes = b"\x90" * 64) -> "FatBinaryEntry":
        return FatBinaryEntry(kind=EntryKind.SASS, arch=arch, payload=payload)

    def decompress_ptx(self) -> str:
        if self.kind is not EntryKind.PTX:
            raise InstrumentationError("not a PTX entry")
        return zlib.decompress(self.payload).decode("utf-8")


@dataclass
class FatBinary:
    """The container registered via ``__cudaRegisterFatBinary``."""

    entries: List[FatBinaryEntry] = field(default_factory=list)

    @staticmethod
    def from_module(module: Module) -> "FatBinary":
        """What nvcc would produce: SASS per target arch + neutral PTX."""
        entries = [FatBinaryEntry.sass(arch) for arch in ("sm_35", "sm_52")]
        entries.append(FatBinaryEntry.ptx(module))
        return FatBinary(entries=entries)

    def ptx_entry(self) -> FatBinaryEntry:
        for entry in self.entries:
            if entry.kind is EntryKind.PTX:
                return entry
        raise InstrumentationError("fat binary has no PTX entry")


def intercept_fat_binary(
    fatbin: FatBinary, instrumenter: Optional[Instrumenter] = None
) -> Tuple[FatBinary, Module, InstrumentationReport]:
    """The ``__cudaRegisterFatBinary`` interception pipeline (§4.1).

    Strips SASS entries, extracts and decompresses the PTX, instruments
    it, and packs a new fat binary containing only the instrumented PTX.
    Returns the new container, the instrumented module (for launching),
    and the instrumentation report.
    """
    instrumenter = instrumenter or Instrumenter()
    ptx_text = fatbin.ptx_entry().decompress_ptx()
    module = parse_ptx_cached(ptx_text)
    instrumented, report = instrumenter.instrument_module(module)
    new_fatbin = FatBinary(entries=[FatBinaryEntry.ptx(instrumented)])
    return new_fatbin, instrumented, report
