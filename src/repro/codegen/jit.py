"""Runtime compile-and-load: the layer behind ``backend="native"``.

The C backend (:mod:`repro.codegen.cbackend`) can turn a
:class:`~repro.codegen.ir.KernelIR` into a loaded shared object; this
module makes that a *hot path* rather than a one-shot artifact:

* a process-global in-memory kernel cache keyed by the IR's structural
  identity (recursive signature, chunk size, values-per-thread, dtype,
  optimization config) so a serving loop pays the emit+compile cost at
  most once per kernel shape — subsequent solves are a dict lookup;
* the hardened on-disk cache underneath (atomic publication, toolchain-
  aware digest) shared across processes and survivable across restarts;
* :func:`native_available` for cheap "is there a compiler at all?"
  gating, and :class:`NativeAttempt` records describing what the native
  path did for one solve — used, or degraded to numpy and why.

Failures are *never* cached: a solve that cannot get a kernel raises a
typed :class:`~repro.core.errors.BackendError` (or
:class:`~repro.core.errors.CodegenError` for unsupported dtypes) and the
caller degrades to the numpy path; if a compiler appears later, the next
attempt simply succeeds.  ``native.compiles`` / ``native.kernel_hits`` /
``native.fallbacks`` counters on the global metrics registry track the
cache behaviour.  See ``docs/native.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.codegen import cbackend
from repro.codegen.cbackend import CompiledCKernel
from repro.codegen.ir import KernelIR
from repro.core.errors import BackendError
from repro.obs.metrics import global_metrics

__all__ = [
    "NativeAttempt",
    "clear_native_cache",
    "native_available",
    "native_kernel",
]


@dataclass(frozen=True)
class NativeAttempt:
    """What the native path did for one solve.

    Attributes
    ----------
    used:
        True when the solve ran through a compiled kernel; False when it
        degraded to the numpy path.
    digest:
        The kernel's cache digest (``plr_<digest>.so``) when used.
    library_path:
        The loaded shared object when used.
    error:
        The typed error message that forced the numpy fallback, empty
        when ``used``.
    """

    used: bool
    digest: str = ""
    library_path: str = ""
    error: str = ""


_KERNELS: dict[tuple, CompiledCKernel] = {}
_LOCK = threading.Lock()


def native_available() -> bool:
    """Whether a C compiler is on PATH (cheap; no compilation)."""
    try:
        cbackend._find_compiler()
        return True
    except BackendError:
        return False


def _kernel_key(ir: KernelIR, workdir) -> tuple:
    # The emitted source is a pure function of these — hashing them is
    # much cheaper than emitting ~chunk_size factor literals per solve.
    return (
        str(ir.recurrence.signature),
        ir.plan.chunk_size,
        ir.plan.values_per_thread,
        np.dtype(ir.dtype).str,
        ir.factor_plan.config,
        str(workdir) if workdir is not None else None,
    )


def native_kernel(ir: KernelIR, workdir=None) -> CompiledCKernel:
    """A compiled kernel for ``ir``, memoized in-process.

    Raises :class:`~repro.core.errors.BackendError` when no compiler is
    found or the compile fails, and
    :class:`~repro.core.errors.CodegenError` for dtypes the C backend
    cannot spell; neither outcome is cached, so a toolchain appearing
    later is picked up by the next call.
    """
    key = _kernel_key(ir, workdir)
    with _LOCK:
        kernel = _KERNELS.get(key)
    if kernel is not None:
        global_metrics().counter("native.kernel_hits").inc()
        return kernel
    kernel = cbackend.compile_c_kernel(ir, workdir=workdir)
    global_metrics().counter("native.compiles").inc()
    with _LOCK:
        _KERNELS[key] = kernel
    return kernel


def clear_native_cache(disk: bool = False) -> int:
    """Drop the in-memory kernel cache; optionally the disk cache too.

    Kernels are immutable and rebuilt on demand, so clearing is always
    safe.  With ``disk=True`` every ``plr_*`` artifact under
    :func:`~repro.codegen.cbackend.default_cache_dir` is removed as well
    (already-loaded kernels keep working — the object stays mapped).
    Returns the number of in-memory entries dropped.
    """
    with _LOCK:
        dropped = len(_KERNELS)
        _KERNELS.clear()
    if disk:
        base = cbackend.default_cache_dir()
        if base.is_dir():
            for path in base.glob("plr_*"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
    return dropped
