"""Pipeline profiling: where the simulated cycles of a PLR run went.

A :class:`PipelineProfile` condenses one traced simulator run into the
quantities the paper's Phase 2 analysis is built on:

* the **look-back depth distribution** — how far back each chunk had to
  reach for a published global carry (the decoupled-look-back win over
  serial chunk-by-chunk carry propagation is exactly this distribution
  staying near 1 while never *requiring* the immediate predecessor);
* **stall time per chunk** — how many scheduler steps each chunk spent
  busy-waiting on predecessor flags;
* the **critical-path length** — the longest chain of sequential
  global-carry publications, i.e. the depth of the carry dependence DAG
  actually realized by the schedule (num_chunks for a serial carry
  chain; much smaller when look-back hops over in-flight predecessors).

Profiles are pure data derived from :class:`~repro.obs.tracer.Tracer`
events, so they are deterministic for a fixed scheduler seed and
trivially serializable (:meth:`PipelineProfile.to_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "PipelineProfile",
    "build_profile",
    "profile_simulation",
    "write_profile_json",
]


@dataclass
class PipelineProfile:
    """Aggregated Phase 1/Phase 2 behaviour of one simulated run."""

    signature: str = ""
    n: int = 0
    chunk_size: int = 0
    num_chunks: int = 0
    schedule_steps: int = 0
    schedule_wait_steps: int = 0
    restarts: int = 0
    lookback_histogram: dict[int, int] = field(default_factory=dict)
    stall_steps_per_chunk: dict[int, int] = field(default_factory=dict)
    chunk_spans: dict[int, tuple[float, float]] = field(default_factory=dict)
    critical_path_length: int = 0
    metrics: dict | None = None

    # -- derived ---------------------------------------------------------
    @property
    def lookback_count(self) -> int:
        return sum(self.lookback_histogram.values())

    @property
    def mean_lookback(self) -> float:
        count = self.lookback_count
        if not count:
            return 0.0
        return (
            sum(d * c for d, c in self.lookback_histogram.items()) / count
        )

    @property
    def max_lookback(self) -> int:
        return max(self.lookback_histogram, default=0)

    @property
    def total_stall_steps(self) -> int:
        return sum(self.stall_steps_per_chunk.values())

    @property
    def max_stall_chunk(self) -> tuple[int, int] | None:
        """(chunk id, stall steps) of the worst-stalled chunk, if any."""
        if not self.stall_steps_per_chunk:
            return None
        chunk = max(self.stall_steps_per_chunk, key=self.stall_steps_per_chunk.get)
        return chunk, self.stall_steps_per_chunk[chunk]

    # -- serialization / rendering --------------------------------------
    def to_json(self) -> dict:
        return {
            "signature": self.signature,
            "n": self.n,
            "chunk_size": self.chunk_size,
            "num_chunks": self.num_chunks,
            "schedule_steps": self.schedule_steps,
            "schedule_wait_steps": self.schedule_wait_steps,
            "restarts": self.restarts,
            "lookback_histogram": {str(k): v for k, v in sorted(self.lookback_histogram.items())},
            "mean_lookback": self.mean_lookback,
            "max_lookback": self.max_lookback,
            "stall_steps_per_chunk": {
                str(k): v for k, v in sorted(self.stall_steps_per_chunk.items())
            },
            "total_stall_steps": self.total_stall_steps,
            "critical_path_length": self.critical_path_length,
            "metrics": self.metrics,
        }

    def describe(self) -> str:
        """The human-readable report ``plr profile`` prints."""
        lines = [
            f"signature        {self.signature}",
            f"input            n={self.n}  m={self.chunk_size}  "
            f"chunks={self.num_chunks}",
            f"schedule         {self.schedule_steps} steps, "
            f"{self.schedule_wait_steps} busy-wait"
            + (f", {self.restarts} restarts" if self.restarts else ""),
        ]
        if self.lookback_histogram:
            histogram = "  ".join(
                f"{distance}:{count}"
                for distance, count in sorted(self.lookback_histogram.items())
            )
            lines.append(
                f"look-back        mean={self.mean_lookback:.2f} "
                f"max={self.max_lookback}  (distance:count  {histogram})"
            )
        lines.append(
            f"critical path    {self.critical_path_length} sequential "
            f"carry publications (serial would be {max(self.num_chunks, 1)})"
        )
        if self.stall_steps_per_chunk:
            worst = self.max_stall_chunk
            lines.append(
                f"stall            {self.total_stall_steps} total spin steps; "
                f"worst chunk {worst[0]} spun {worst[1]} steps"
            )
        else:
            lines.append("stall            no chunk ever busy-waited")
        return "\n".join(lines)


def build_profile(
    events,
    *,
    signature: str = "",
    n: int = 0,
    chunk_size: int = 0,
    num_chunks: int = 0,
    schedule_steps: int = 0,
    schedule_wait_steps: int = 0,
    restarts: int = 0,
    metrics: dict | None = None,
) -> PipelineProfile:
    """Derive a :class:`PipelineProfile` from trace events.

    Consumes four event shapes (see ``docs/observability.md``):
    ``lookback`` instants with ``args={chunk, base, distance}``,
    ``lookback_summary`` instants with ``args={first_chunk, chunks,
    distance}`` (one record standing for a run of sequential chunk
    resolutions — what :func:`repro.plr.phase2.phase2` emits above its
    chunk-count threshold), ``spin`` instants (one per busy-wait
    scheduler step, tid = chunk), and ``chunk`` complete-spans (block
    lifecycle, tid = chunk).  A chunk that ran twice (abort/restart)
    counts its *last* look-back resolution, matching what actually fed
    the published carries.
    """
    lookback_of: dict[int, tuple[int, int]] = {}  # chunk -> (base, distance)
    histogram: dict[int, int] = {}
    stalls: dict[int, int] = {}
    spans: dict[int, tuple[float, float]] = {}
    summary_critical = 0
    for event in events:
        if event.name == "lookback" and event.args:
            chunk = int(event.args["chunk"])
            lookback_of[chunk] = (
                int(event.args["base"]),
                int(event.args["distance"]),
            )
        elif event.name == "lookback_summary" and event.args:
            count = int(event.args["chunks"])
            distance = int(event.args["distance"])
            histogram[distance] = histogram.get(distance, 0) + count
            # A summarized run is a serial spine: `count` sequential
            # resolutions on top of the unconditional first chunk.
            summary_critical = max(
                summary_critical, int(event.args["first_chunk"]) + count
            )
        elif event.name == "spin":
            stalls[event.tid] = stalls.get(event.tid, 0) + 1
        elif event.name == "chunk" and event.ph == "X":
            spans[event.tid] = (event.ts, event.ts + (event.dur or 0.0))
    for base, distance in lookback_of.values():
        histogram[distance] = histogram.get(distance, 0) + 1

    # Carry-dependence depth: chunk 0 publishes unconditionally (depth
    # 1); chunk c publishes one hop after its look-back base.  The
    # intervening chunks contribute only Phase 1 locals, which have no
    # publication ancestry — that is the decoupling the paper exploits.
    depth: dict[int, int] = {}

    def depth_of(chunk: int) -> int:
        cached = depth.get(chunk)
        if cached is not None:
            return cached
        resolution = lookback_of.get(chunk)
        value = 1 if resolution is None else depth_of(resolution[0]) + 1
        depth[chunk] = value
        return value

    critical = max(
        (depth_of(c) for c in lookback_of), default=1 if num_chunks else 0
    )
    critical = max(critical, summary_critical)

    return PipelineProfile(
        signature=signature,
        n=n,
        chunk_size=chunk_size,
        num_chunks=num_chunks,
        schedule_steps=schedule_steps,
        schedule_wait_steps=schedule_wait_steps,
        restarts=restarts,
        lookback_histogram=histogram,
        stall_steps_per_chunk=stalls,
        chunk_spans=spans,
        critical_path_length=critical,
        metrics=metrics,
    )


def profile_simulation(
    recurrence,
    n: int,
    *,
    machine=None,
    seed: int = 0,
    values=None,
    fault=None,
):
    """Run one traced simulation and profile it.

    Returns ``(profile, tracer, metrics, result)``.  Deterministic for a
    fixed ``seed``: the simulator timestamps events with its logical
    scheduler clock, so two runs with the same seed produce identical
    traces, histograms, and stall tables.
    """
    # Imported here: obs is a leaf package that gpusim itself imports.
    import numpy as np

    from repro.core.recurrence import Recurrence
    from repro.gpusim.executor import SimulatedPLR
    from repro.gpusim.spec import MachineSpec
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    recurrence = Recurrence.coerce(recurrence)
    machine = machine or MachineSpec.small_test_gpu()
    if values is None:
        rng = np.random.default_rng(seed)
        if recurrence.is_integer:
            values = rng.integers(-100, 100, size=n).astype(np.int32)
        else:
            values = rng.standard_normal(n).astype(np.float32)

    tracer = Tracer()
    metrics = MetricsRegistry()
    sim = SimulatedPLR(
        recurrence,
        machine,
        seed=seed,
        fault=fault,
        tracer=tracer,
        metrics=metrics,
        track_l2=True,
    )
    result = sim.run(values)
    m = (sim.block_size or machine.max_threads_per_block) * sim.values_per_thread
    profile = build_profile(
        tracer.events,
        signature=str(recurrence.signature),
        n=int(values.size),
        chunk_size=m,
        num_chunks=-(-int(values.size) // m),
        schedule_steps=result.schedule_steps,
        schedule_wait_steps=result.schedule_wait_steps,
        restarts=result.restarts,
        metrics=metrics.snapshot(),
    )
    return profile, tracer, metrics, result


def _json_default(value):
    raise TypeError(f"not JSON serializable: {value!r}")


def write_profile_json(profile: PipelineProfile, path) -> Path:
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(profile.to_json(), handle, indent=1, default=_json_default)
    return path
