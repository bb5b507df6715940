"""Thread-block level: shared memory and the in-block Phase 1 kernel.

CUDA's second level of parallelism is the thread block: up to 1024
threads that share a software-managed cache ("shared memory", 48 kB
visible per block on the paper's Titan X).  PLR's Phase 1 continues its
merge doubling across warps through shared memory once pair widths
exceed a warp.

:func:`block_phase1` is the lane-level implementation of one block's
Phase 1 work, written against the :class:`~repro.gpusim.warp.Warp`
shuffle primitives and :class:`SharedMemory`:

* each thread owns x consecutive values in registers,
* the thread-local serial solve covers widths up to x,
* merges whose carry donors sit in the same warp fetch carries with
  shuffles,
* wider merges stage the donor values through shared memory with a
  barrier on each side.

Its output is bit-identical to :func:`repro.plr.phase1.phase1` for the
same chunk (tested), but it actually enforces the hardware hierarchy:
shuffles never cross a warp, shared-memory staging respects the block's
byte budget, and every communication event is counted in
:class:`BlockStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import SimulationError
from repro.gpusim.warp import Warp
from repro.obs.tracer import NULL_TRACER, TracePid
from repro.plr.factors import CorrectionFactorTable, working_coefficients

__all__ = ["SharedMemory", "BlockStats", "ThreadBlock", "block_phase1"]


@dataclass
class SharedMemory:
    """A block's shared-memory arena with a hard byte budget."""

    capacity_bytes: int
    used_bytes: int = 0
    read_count: int = 0
    write_count: int = 0
    _arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def allocate(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Statically allocate a named shared array (like __shared__)."""
        if name in self._arrays:
            raise SimulationError(f"shared array {name!r} allocated twice")
        array = np.zeros(shape, dtype=dtype)
        nbytes = array.nbytes
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise SimulationError(
                f"shared memory exhausted: {name!r} needs {nbytes} bytes, "
                f"{self.capacity_bytes - self.used_bytes} of "
                f"{self.capacity_bytes} remain"
            )
        self.used_bytes += nbytes
        self._arrays[name] = array
        return array

    def record_read(self, count: int = 1) -> None:
        self.read_count += count

    def record_write(self, count: int = 1) -> None:
        self.write_count += count


@dataclass
class BlockStats:
    """Communication accounting for one block's kernel execution."""

    shuffles: int = 0
    shared_reads: int = 0
    shared_writes: int = 0
    barriers: int = 0
    corrections: int = 0  # factor multiply-adds applied


@dataclass
class ThreadBlock:
    """One thread block: a register file split into warps, plus smem."""

    block_size: int
    values_per_thread: int
    warp_size: int
    shared: SharedMemory
    registers: np.ndarray  # (block_size, values_per_thread)
    stats: BlockStats = field(default_factory=BlockStats)

    @classmethod
    def create(
        cls,
        chunk_values: np.ndarray,
        block_size: int,
        warp_size: int,
        shared_capacity: int,
    ) -> "ThreadBlock":
        """Distribute one chunk of m = block_size * x values to threads."""
        m = chunk_values.size
        if m % block_size:
            raise SimulationError(
                f"chunk of {m} values does not divide into {block_size} threads"
            )
        if block_size % warp_size:
            raise SimulationError(
                f"block size {block_size} is not a multiple of warp size {warp_size}"
            )
        if block_size & (block_size - 1):
            # Phase 1's pairwise doubling covers the chunk only when
            # the thread count is a power of two (the paper's blocks
            # are 1024); anything else would leave elements unmerged.
            raise SimulationError(
                f"block size {block_size} must be a power of two for the "
                "doubling merge to cover the chunk"
            )
        x = m // block_size
        registers = chunk_values.reshape(block_size, x).copy()
        return cls(
            block_size=block_size,
            values_per_thread=x,
            warp_size=warp_size,
            shared=SharedMemory(shared_capacity),
            registers=registers,
        )

    @property
    def num_warps(self) -> int:
        return self.block_size // self.warp_size

    def warp(self, index: int) -> Warp:
        """A view of warp ``index``'s registers (shared storage)."""
        lo = index * self.warp_size
        return Warp(self.registers[lo : lo + self.warp_size])

    def values(self) -> np.ndarray:
        """The chunk in sequence order (thread-major layout)."""
        return self.registers.reshape(-1)

    def barrier(self) -> None:
        """__syncthreads(); a pure counting event in this model."""
        self.stats.barriers += 1


def _fetch_carries_via_shuffle(
    block: ThreadBlock, border: int, count: int
) -> np.ndarray:
    """Read values at positions border-1 .. border-count via shuffles.

    All donors live in the same warp as the border (pair width is at
    most a warp's worth of values), so each carry is one shuffle from
    the donor lane.  Raises if a donor would sit in a different warp —
    that would be an illegal cross-warp shuffle on real hardware.
    """
    x = block.values_per_thread
    carries = np.empty(count, dtype=block.registers.dtype)
    warp_of_border = ((border - 1) // x) // block.warp_size
    warp = block.warp(warp_of_border)
    base_lane = warp_of_border * block.warp_size
    for j in range(count):
        pos = border - 1 - j
        thread, register = divmod(pos, x)
        if thread // block.warp_size != warp_of_border:
            raise SimulationError(
                f"carry donor thread {thread} is outside warp {warp_of_border}: "
                "cross-warp shuffle is illegal"
            )
        carries[j] = warp.broadcast(thread - base_lane, register)[0]
        block.stats.shuffles += 1
    return carries


def _fetch_carries_via_shared(
    block: ThreadBlock, staging: np.ndarray, pair_index: int, border: int, count: int
) -> np.ndarray:
    """Stage donor values through shared memory (cross-warp merge).

    The donor threads write their boundary values into the pair's
    staging slots; after a barrier the correcting threads read them.
    """
    x = block.values_per_thread
    for j in range(count):
        pos = border - 1 - j
        thread, register = divmod(pos, x)
        staging[pair_index, j] = block.registers[thread, register]
        block.shared.record_write()
        block.stats.shared_writes += 1
    block.barrier()
    carries = staging[pair_index, :count].copy()
    block.shared.record_read(count)
    block.stats.shared_reads += count
    return carries


def block_phase1(
    block: ThreadBlock,
    table: CorrectionFactorTable,
    tracer=NULL_TRACER,
    tid: int = 0,
) -> None:
    """Run Phase 1 for one block's chunk, in place, lane-level.

    After this returns, ``block.values()`` is the locally correct chunk
    (identical to one row of :func:`repro.plr.phase1.phase1`).  With an
    enabled ``tracer``, each merge-doubling level emits one ``merge``
    event (tid is the caller's chunk id) recording the pair width, the
    number of pairs, and whether carries moved by shuffle or through
    shared memory.
    """
    x = block.values_per_thread
    k = table.order
    m = block.block_size * x
    if table.chunk_size != m:
        raise SimulationError(
            f"factor table built for m={table.chunk_size}, block holds m={m}"
        )
    regs = block.registers
    # An integer dtype takes each coefficient into its ring (-1 is
    # 2^32 - 1 in uint32), as the host solver does.
    coeffs = working_coefficients(table.signature.feedback, regs.dtype)

    # Thread-local serial solve over each thread's x registers.
    for i in range(1, x):
        acc = regs[:, i]
        for j in range(1, min(i, k) + 1):
            acc = acc + coeffs[j - 1] * regs[:, i - j]
        regs[:, i] = acc

    # Staging buffer for cross-warp merges: one slot of k carries per
    # concurrently merging pair (at most num_warps/2 pairs).
    staging = block.shared.allocate(
        "carry_staging", (max(1, block.num_warps // 2), k), regs.dtype
    )

    width = x
    factors = table.factors
    flat = regs.reshape(-1)  # sequence-ordered view of all registers
    while width < m:
        pair_span = 2 * width
        within_warp = pair_span <= block.warp_size * x
        if tracer.enabled:
            tracer.instant(
                "merge",
                cat="phase1",
                pid=TracePid.SIM,
                tid=tid,
                args={
                    "width": width,
                    "pairs": m // pair_span,
                    "mode": "shuffle" if within_warp else "shared",
                },
            )
        for pair_index in range(m // pair_span):
            border = pair_index * pair_span + width
            count = min(k, width)
            if within_warp:
                carries = _fetch_carries_via_shuffle(block, border, count)
            else:
                carries = _fetch_carries_via_shared(
                    block, staging, pair_index, border, count
                )
            second = flat[border : border + width]
            for j in range(count):
                second += factors[j, :width] * carries[j]
                block.stats.corrections += width
        if not within_warp:
            block.barrier()
        width *= 2
