"""GPU machine descriptions.

The paper evaluates on a GeForce GTX Titan X (Maxwell): 3072 processing
elements in 24 SMs, 49,152 resident threads, 96 kB shared memory per SM
(48 kB visible to one block), 2 MB shared L2, 12 GB GDDR5 at 336 GB/s,
1.1 GHz core and 3.5 GHz memory clocks, 65,536 registers per SM,
1024-thread blocks, warp size 32 (Section 5).

We do not have the hardware; :class:`MachineSpec` captures these
published constants so that

* the planner reproduces the paper's m/x/T heuristics exactly,
* the functional simulator enforces the same resource limits, and
* the analytical cost model is parameterized by the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

__all__ = ["MachineSpec"]


@dataclass(frozen=True)
class MachineSpec:
    """Static hardware parameters of a CUDA-capable GPU."""

    name: str
    num_sms: int
    cores_per_sm: int
    warp_size: int
    max_threads_per_block: int
    max_threads_per_sm: int
    registers_per_sm: int
    shared_memory_per_sm: int  # bytes
    shared_memory_per_block: int  # bytes
    l2_cache_bytes: int
    l2_line_bytes: int
    global_memory_bytes: int
    peak_bandwidth_bytes: float  # bytes / second
    core_clock_hz: float
    memory_clock_hz: float
    kernel_launch_latency_s: float
    """Fixed host-side cost of launching one kernel (~5 us on Maxwell)."""
    baseline_context_bytes: int
    """Memory a trivial CUDA program already holds (Table 2 shows the
    memcpy code allocating 109.5 MB beyond its buffers: CUDA context,
    reserved heaps, and module code)."""

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def max_resident_threads(self) -> int:
        return self.num_sms * self.max_threads_per_sm

    def resident_blocks(self, block_size: int) -> int:
        """How many blocks of ``block_size`` threads the GPU holds at once.

        The thread-count bound only; register- and shared-memory-limited
        residency is the occupancy model's job
        (:func:`repro.gpusim.occupancy.occupancy`).
        """
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        return self.num_sms * max(1, self.max_threads_per_sm // block_size)

    @classmethod
    @cache
    def titan_x(cls) -> "MachineSpec":
        """The GeForce GTX Titan X exactly as Section 5 describes it.

        Built once: the spec is frozen, and planning without a machine
        asks for it on every call.
        """
        return cls(
            name="GeForce GTX Titan X (Maxwell)",
            num_sms=24,
            cores_per_sm=128,
            warp_size=32,
            max_threads_per_block=1024,
            max_threads_per_sm=2048,
            registers_per_sm=65536,
            shared_memory_per_sm=96 * 1024,
            shared_memory_per_block=48 * 1024,
            l2_cache_bytes=2 * 1024 * 1024,
            l2_line_bytes=32,
            global_memory_bytes=12 * 1024**3,
            peak_bandwidth_bytes=336e9,
            core_clock_hz=1.1e9,
            memory_clock_hz=3.5e9,
            kernel_launch_latency_s=5e-6,
            baseline_context_bytes=int(109.5 * 1024 * 1024),
        )

    @classmethod
    def small_test_gpu(cls) -> "MachineSpec":
        """A miniature GPU for fast functional-simulation tests.

        Two SMs, 4-lane warps, 16-thread blocks: small enough that the
        full Phase 1 / Phase 2 protocol runs in milliseconds under the
        event-ordered executor, while still exercising multi-warp,
        multi-block, and multi-SM behaviour.
        """
        return cls(
            name="test-gpu",
            num_sms=2,
            cores_per_sm=8,
            warp_size=4,
            max_threads_per_block=16,
            max_threads_per_sm=32,
            registers_per_sm=1024,
            shared_memory_per_sm=4096,
            shared_memory_per_block=2048,
            l2_cache_bytes=1024,
            l2_line_bytes=32,
            global_memory_bytes=1 << 26,
            peak_bandwidth_bytes=1e9,
            core_clock_hz=1e9,
            memory_clock_hz=1e9,
            kernel_launch_latency_s=1e-6,
            baseline_context_bytes=1 << 20,
        )
