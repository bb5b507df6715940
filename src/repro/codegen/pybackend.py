"""The Python backend: emitted numpy source, exec'd and returned.

Emits a *self-contained* Python module (imports nothing from
:mod:`repro`) that computes the recurrence with the PLR algorithm.  The
factor lists are materialized realization-aware — constants broadcast,
periodic lists tiled from one period, truncated lists zero-padded — so
the optimizer's decisions are visible in, and tested through, the
generated source.

Useful for three things: a human-readable rendering of what the
compiler decided (the CLI's ``--emit python``), a backend that runs
anywhere without a toolchain, and a third implementation to
cross-check the solver and the C backend against.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np

from repro.codegen.ir import KernelIR
from repro.core.errors import BackendError
from repro.plr.factors import working_coefficients
from repro.plr.optimizer import FactorRealization
from repro.plr.phase2 import transition_matrix

__all__ = ["emit_python", "compile_python_kernel", "CompiledPythonKernel"]


def _array_literal(values: list[str], per_line: int = 10) -> str:
    lines = []
    for i in range(0, len(values), per_line):
        lines.append("    " + ", ".join(values[i : i + per_line]) + ",")
    return "\n".join(lines)


def _python_literal(ir: KernelIR, value) -> str:
    if ir.is_integer:
        return str(int(value))
    return repr(float(np.float32(value) if ir.dtype == np.float32 else float(value)))


def _coefficients(ir: KernelIR, coefficients) -> list:
    """The emitted module's coefficient literals.  An integer dtype's
    are reduced into its ring, as
    :func:`~repro.plr.factors.working_coefficients` does, so the
    module's cast of each fits (-1 is 2^32 - 1 in uint32)."""
    if ir.is_integer:
        return [int(c) for c in working_coefficients(coefficients, ir.dtype)]
    return [v if isinstance(v, int) else float(v) for v in coefficients]


def _emit_factor_row(ir: KernelIR, j: int) -> str:
    """Source that builds factor row j as a length-m numpy array."""
    decision = ir.factor_plan.decisions[j]
    m = ir.chunk_size
    real = decision.realization
    if real == FactorRealization.CONSTANT:
        lit = _python_literal(ir, decision.constant)
        return (
            f"# carry {j}: constant factor — array suppressed\n"
            f"FACTORS[{j}] = numpy.full(M, {lit}, dtype=DTYPE)\n"
        )
    if real == FactorRealization.SHIFT_OF_FIRST:
        scale = _python_literal(ir, decision.scale)
        return (
            f"# carry {j}: b_k * (carry 0 shifted by one) — array suppressed\n"
            f"FACTORS[{j}][0] = {scale}\n"
            f"FACTORS[{j}][1:] = {scale} * FACTORS[0][:-1]\n"
        )
    if real == FactorRealization.ZERO_ONE and decision.period is not None:
        lits = [_python_literal(ir, v) for v in ir.table.factors[j][: decision.period]]
        return (
            f"# carry {j}: 0/1 factors with period {decision.period} — "
            "conditional adds, pattern tiled\n"
            f"_period_{j} = numpy.array([\n{_array_literal(lits)}\n], dtype=DTYPE)\n"
            f"FACTORS[{j}] = numpy.tile(_period_{j}, M // {decision.period} + 1)[:M]\n"
        )
    if real == FactorRealization.PERIODIC:
        lits = [_python_literal(ir, v) for v in ir.table.factors[j][: decision.period]]
        return (
            f"# carry {j}: periodic with period {decision.period}\n"
            f"_period_{j} = numpy.array([\n{_array_literal(lits)}\n], dtype=DTYPE)\n"
            f"FACTORS[{j}] = numpy.tile(_period_{j}, M // {decision.period} + 1)[:M]\n"
        )
    if real == FactorRealization.TRUNCATED:
        cutoff = max(1, decision.cutoff)
        lits = [_python_literal(ir, v) for v in ir.table.factors[j][:cutoff]]
        return (
            f"# carry {j}: decays to zero at {decision.cutoff}; tail suppressed\n"
            f"FACTORS[{j}][: {cutoff}] = numpy.array([\n{_array_literal(lits)}\n], dtype=DTYPE)\n"
        )
    lits = [_python_literal(ir, v) for v in ir.table.factors[j]]
    return (
        f"# carry {j}: general factor list ({real.value})\n"
        f"FACTORS[{j}] = numpy.array([\n{_array_literal(lits)}\n], dtype=DTYPE)\n"
    )


def emit_python(ir: KernelIR) -> str:
    """Emit a self-contained Python module computing the recurrence."""
    sig = ir.recurrence.signature
    k = ir.order
    ff = _coefficients(ir, sig.feedforward)
    fb = _coefficients(ir, sig.feedback)
    matrix = transition_matrix(ir.table)
    matrix_lits = ",\n    ".join(
        "[" + ", ".join(_python_literal(ir, v) for v in matrix[r]) + "]"
        for r in range(k)
    )
    factor_rows = "\n".join(_emit_factor_row(ir, j) for j in range(k))
    active = ir.factor_plan.phase1_active_elements

    return f'''\
"""Generated by PLR (reproduction, Python backend) -- do not edit.

Recurrence signature: {sig}
order k={k}, chunk m={ir.chunk_size}, x={ir.plan.values_per_thread}, dtype={ir.dtype}
Factor realizations: {", ".join(d.realization.value for d in ir.factor_plan.decisions)}
"""
import numpy

DTYPE = numpy.dtype("{ir.dtype.str}")
M = {ir.chunk_size}
X = {ir.plan.values_per_thread}
K = {k}
FEEDFORWARD = {ff!r}
FEEDBACK = {fb!r}
ACTIVE = {active}  # Phase 1 corrections beyond this offset are all zero

FACTORS = numpy.zeros((K, M), dtype=DTYPE)
{factor_rows}
CARRY_MATRIX = numpy.array([
    {matrix_lits}
], dtype=DTYPE)


def _map_stage(values):
    out = numpy.zeros_like(values)
    for j, a in enumerate(FEEDFORWARD):
        if a == 0:
            continue
        coeff = numpy.asarray(a, dtype=DTYPE) if DTYPE.kind == "i" else DTYPE.type(a)
        if j == 0:
            out += coeff * values
        else:
            out[j:] += coeff * values[:-j]
    return out


def compute(values):
    """Compute the recurrence {sig} over a 1D array."""
    values = numpy.asarray(values).astype(DTYPE, copy=False)
    n = values.size
    if n == 0:
        return values.copy()
    work = _map_stage(values) if FEEDFORWARD != [1] else values
    chunks = -(-n // M)
    padded = numpy.zeros(chunks * M, dtype=DTYPE)
    padded[:n] = work
    w = padded.reshape(chunks, M)

    # Thread-local serial solve over width-X cells.
    if X > 1:
        cells = w.reshape(-1, X)
        for i in range(1, X):
            acc = cells[:, i]
            for j in range(1, min(i, K) + 1):
                coeff = (numpy.asarray(FEEDBACK[j - 1], dtype=DTYPE)
                         if DTYPE.kind == "i" else DTYPE.type(FEEDBACK[j - 1]))
                acc = acc + coeff * cells[:, i - j]
            cells[:, i] = acc

    # Phase 1: pairwise doubling with precomputed correction factors.
    width = X
    while width < M:
        pairs = w.reshape(-1, 2 * width)
        limit = min(width, ACTIVE)
        for j in range(min(K, width)):
            carry = pairs[:, width - 1 - j]
            pairs[:, width : width + limit] += (
                FACTORS[j, :limit][None, :] * carry[:, None]
            )
        width *= 2

    # Phase 2: carry spine then bulk correction.
    locals_ = w[:, M - K :][:, ::-1]
    globals_ = numpy.empty_like(locals_)
    globals_[0] = locals_[0]
    for c in range(1, chunks):
        globals_[c] = locals_[c] + CARRY_MATRIX @ globals_[c - 1]
    for j in range(K):
        w[1:] += FACTORS[j][None, :] * globals_[:-1, j][:, None]

    return w.reshape(-1)[:n]
'''


@dataclass
class CompiledPythonKernel:
    """An exec'd generated Python module, callable from numpy."""

    ir: KernelIR
    source: str
    module: ModuleType
    compute: Callable[[np.ndarray], np.ndarray]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.compute(values)


def compile_python_kernel(ir: KernelIR) -> CompiledPythonKernel:
    """Emit and exec the Python backend for one kernel plan."""
    source = emit_python(ir)
    module = ModuleType(f"plr_generated_{abs(hash(source)):x}")
    try:
        exec(compile(source, module.__name__, "exec"), module.__dict__)
    except Exception as exc:  # pragma: no cover - emitter bug guard
        raise BackendError(f"generated Python failed to load: {exc}") from exc
    return CompiledPythonKernel(
        ir=ir, source=source, module=module, compute=module.compute
    )
