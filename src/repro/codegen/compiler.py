"""The PLR compiler facade: signature string in, artifact out.

This is the reproduction of the paper's command-line tool: "a simple
proof-of-concept compiler called PLR that translates these signatures
into CUDA code".  :class:`PLRCompiler` parses the signature, plans the
execution, precomputes and optimizes the correction factors, and hands
the resulting IR to the requested backend:

* ``"cuda"`` — the paper's target; returns source text;
* ``"c"``    — compiles with the system C compiler and returns a
  callable (the executable path in this GPU-less reproduction);
* ``"python"`` — execs generated numpy source and returns a callable.

Code generation is fast for the same reason the paper's is ("roughly
10 ms"): factors come from the linear n-nacci recurrence, not from
solving correction equations; the dominant cost here is Python-level
list building for large m.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.codegen.cbackend import CompiledCKernel, compile_c_kernel, emit_c
from repro.codegen.cuda import emit_cuda
from repro.codegen.ir import KernelIR, build_ir
from repro.codegen.pybackend import (
    CompiledPythonKernel,
    compile_python_kernel,
    emit_python,
)
from repro.core.errors import CodegenError
from repro.core.recurrence import Recurrence
from repro.gpusim.spec import MachineSpec
from repro.plr.optimizer import OptimizationConfig

__all__ = ["PLRCompiler", "CompilationResult", "BACKENDS"]

BACKENDS = ("cuda", "c", "python")


@dataclass(frozen=True)
class CompilationResult:
    """What one compiler invocation produced."""

    ir: KernelIR
    backend: str
    source: str
    kernel: Callable[[np.ndarray], np.ndarray] | None
    codegen_seconds: float

    @property
    def is_executable(self) -> bool:
        return self.kernel is not None


class PLRCompiler:
    """Translates recurrence signatures into recurrence kernels."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        optimization: OptimizationConfig | None = None,
    ) -> None:
        self.machine = machine or MachineSpec.titan_x()
        self.optimization = optimization or OptimizationConfig()

    def build_ir(
        self,
        signature: str | Recurrence,
        n: int = 1 << 24,
        dtype: np.dtype | type | None = None,
    ) -> KernelIR:
        recurrence = Recurrence.coerce(signature)
        return build_ir(
            recurrence,
            n,
            machine=self.machine,
            optimization=self.optimization,
            dtype=dtype,
        )

    def compile(
        self,
        signature: str | Recurrence,
        n: int = 1 << 24,
        backend: str = "cuda",
        dtype: np.dtype | type | None = None,
    ) -> CompilationResult:
        """Compile a signature for an expected input size ``n``.

        ``n`` only influences the plan (m and x); the produced kernel
        accepts any input length.
        """
        if backend not in BACKENDS:
            raise CodegenError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        start = time.perf_counter()
        ir = self.build_ir(signature, n, dtype=dtype)
        kernel: Callable[[np.ndarray], np.ndarray] | None = None
        if backend == "cuda":
            source = emit_cuda(ir)
        elif backend == "c":
            compiled: CompiledCKernel = compile_c_kernel(ir)
            source, kernel = compiled.source, compiled
        else:
            pykernel: CompiledPythonKernel = compile_python_kernel(ir)
            source, kernel = pykernel.source, pykernel
        elapsed = time.perf_counter() - start
        return CompilationResult(
            ir=ir,
            backend=backend,
            source=source,
            kernel=kernel,
            codegen_seconds=elapsed,
        )

    def emit_all(self, signature: str | Recurrence, n: int = 1 << 24) -> dict[str, str]:
        """Source for every backend, keyed by backend name."""
        ir = self.build_ir(signature, n)
        return {
            "cuda": emit_cuda(ir),
            "c": emit_c(ir),
            "python": emit_python(ir),
        }

    def compile_program(
        self,
        signature: str | Recurrence,
        n: int = 1 << 24,
        xs: "tuple[int, ...] | None" = None,
    ) -> CompilationResult:
        """Emit the paper's full multi-kernel CUDA program (section 8).

        One kernel per x in ``xs`` (default: powers of two up to the
        dtype cap plus the cap itself), a single shared factor store
        sized for the largest chunk, and a host main that selects the
        kernel by the smallest-covering-x rule.
        """
        from dataclasses import replace

        from repro.codegen.cuda import emit_cuda_program
        from repro.plr.planner import plan_execution

        start = time.perf_counter()
        recurrence = Recurrence.coerce(signature)
        if xs is None:
            cap = 11 if recurrence.is_integer else 9
            xs = tuple(x for x in (1, 2, 4, 8) if x < cap) + (cap,)
        base = plan_execution(recurrence.signature, n, self.machine)
        irs = []
        for x in sorted(set(xs)):
            chunk = base.block_size * x
            plan = replace(
                base,
                values_per_thread=x,
                chunk_size=chunk,
                num_chunks=-(-n // chunk),
            )
            irs.append(
                build_ir(
                    recurrence,
                    n,
                    machine=self.machine,
                    optimization=self.optimization,
                    plan=plan,
                )
            )
        source = emit_cuda_program(irs)
        elapsed = time.perf_counter() - start
        return CompilationResult(
            ir=irs[-1],
            backend="cuda",
            source=source,
            kernel=None,
            codegen_seconds=elapsed,
        )
