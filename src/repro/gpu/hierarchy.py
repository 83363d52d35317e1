"""Thread hierarchy: 1/2/3-D launches flattened onto a :class:`GridLayout`.

CUDA organizes a kernel launch as a grid of thread blocks, each a 1-, 2-
or 3-D arrangement of threads (paper §2).  The detector works on the
flattened 1-D layout; this module holds the launch geometry, the special
register values (``%tid``, ``%ctaid``, ...), and the globally-unique TID
computation that BARRACUDA's instrumentation prepends to every kernel
(§4.1: "combine the three-dimensional block id and thread id's into a
globally unique value").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LaunchConfigError
from ..trace.layout import DEFAULT_WARP_SIZE, GridLayout


@dataclass(frozen=True)
class Dim3:
    """A CUDA 3-D extent or index (indices may have zero components)."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0 or self.z < 0:
            raise LaunchConfigError(f"dimensions must be non-negative: {self}")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def flatten(self, index: "Dim3") -> int:
        """Row-major flattening of ``index`` within this extent."""
        return index.x + index.y * self.x + index.z * self.x * self.y

    def unflatten(self, flat: int) -> "Dim3":
        x = flat % self.x
        rest = flat // self.x
        return Dim3(x, rest % self.y, rest // self.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z})"


def _as_dim3(value) -> Dim3:
    if isinstance(value, Dim3):
        return value
    if isinstance(value, int):
        return Dim3(value)
    if isinstance(value, tuple):
        return Dim3(*value)
    raise LaunchConfigError(f"cannot interpret {value!r} as a grid dimension")


@dataclass(frozen=True)
class LaunchConfig:
    """One kernel launch: ``kernel<<<grid, block>>>`` geometry."""

    grid: Dim3
    block: Dim3
    warp_size: int = DEFAULT_WARP_SIZE

    def __post_init__(self) -> None:
        if self.grid.count < 1 or self.block.count < 1:
            raise LaunchConfigError(
                f"launch extents must be positive: grid {self.grid}, "
                f"block {self.block}"
            )
        if self.block.count > 1024:  # on the K520 and the TITAN X alike
            raise LaunchConfigError(
                f"a block has at most 1024 threads, not {self.block.count}")

    @staticmethod
    def of(grid, block, warp_size: int = DEFAULT_WARP_SIZE) -> "LaunchConfig":
        """Build a config from ints, tuples or :class:`Dim3` values."""
        return LaunchConfig(_as_dim3(grid), _as_dim3(block), warp_size)

    @property
    def total_threads(self) -> int:
        return self.grid.count * self.block.count

    def layout(self) -> GridLayout:
        """The flattened 1-D layout the detector operates on."""
        return GridLayout(
            num_blocks=self.grid.count,
            threads_per_block=self.block.count,
            warp_size=self.warp_size,
        )

    # ------------------------------------------------------------------
    # Special registers
    # ------------------------------------------------------------------
    def special_registers(self, tid: int) -> dict:
        """The per-thread special register file for global thread ``tid``.

        Keys match PTX names: ``%tid.x`` etc.  The unique-TID prologue
        recomputes ``tid`` from exactly these values, mirroring the PTX
        the instrumentation injects.
        """
        layout = self.layout()
        return {
            **self.block_registers(layout.block_of(tid)),
            **self.thread_registers(layout.thread_in_block(tid)),
        }

    def block_registers(self, block_flat: int) -> dict:
        """The special registers every thread of block ``block_flat``
        shares."""
        block_index = self.grid.unflatten(block_flat)
        return {
            ("%ntid", "x"): self.block.x,
            ("%ntid", "y"): self.block.y,
            ("%ntid", "z"): self.block.z,
            ("%ctaid", "x"): block_index.x,
            ("%ctaid", "y"): block_index.y,
            ("%ctaid", "z"): block_index.z,
            ("%nctaid", "x"): self.grid.x,
            ("%nctaid", "y"): self.grid.y,
            ("%nctaid", "z"): self.grid.z,
            ("%nwarpid", None): -(-self.block.count // self.warp_size),
            ("%gridid", None): 0,
        }

    def thread_registers(self, thread_flat: int) -> dict:
        """The special registers of thread ``thread_flat`` of any block."""
        thread_index = self.block.unflatten(thread_flat)
        return {
            ("%tid", "x"): thread_index.x,
            ("%tid", "y"): thread_index.y,
            ("%tid", "z"): thread_index.z,
            ("%laneid", None): thread_flat % self.warp_size,
            ("%warpid", None): thread_flat // self.warp_size,
        }

    def unique_tid(self, block_index: Dim3, thread_index: Dim3) -> int:
        """The 64-bit globally unique TID of §4.1."""
        return self.grid.flatten(block_index) * self.block.count + self.block.flatten(
            thread_index
        )
