"""Serial reference implementations (Section 2's listing).

The paper validates every parallel run against the serial CPU code

    for (i = 0; i < n; i++) {
      y[i] = t[i];
      for (j = 1; j <= min(i, k); j++)
        y[i] += b[j] * y[i - j];
    }

We keep three flavors:

* :func:`serial_recurrence` — the listing above, for type-(3)
  recurrences ``(1: b...)``, with the dtype of the input;
* :func:`fir_map` — the embarrassingly parallel map stage (2);
* :func:`serial_full` — the two composed, i.e. the full type-(1)
  recurrence for an arbitrary signature.

These are the correctness oracles for *everything* else in the
repository: the PLR solver, the generated code, the GPU simulator, and
all baselines are tested against them.  They are intentionally written
as straightforward loops over numpy arrays (vectorizing the oracle with
the very tricks under test would defeat its purpose); a mildly blocked
variant is provided for speed on large arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.signature import Signature

__all__ = ["fir_map", "serial_recurrence", "serial_full", "resolve_dtype"]


def resolve_dtype(signature: Signature, values_dtype: np.dtype) -> np.dtype:
    """The computation dtype for a signature applied to given values.

    Matching the paper's methodology: integer signatures on integer
    data run in 32-bit integer arithmetic (with wrap-around), everything
    else in 32-bit floating point, unless the caller supplied a wider
    dtype already.
    """
    values_dtype = np.dtype(values_dtype)
    if signature.is_integer and np.issubdtype(values_dtype, np.integer):
        return values_dtype
    if values_dtype == np.float64:
        return np.dtype(np.float64)
    return np.dtype(np.float32)


def fir_map(values: np.ndarray, feedforward: Sequence[float]) -> np.ndarray:
    """The map stage (2): ``t[i] = sum_j a_{-j} * x[i-j]``.

    Missing terms (i - j < 0) are zero, matching the paper's convention
    x[j] = 0 for j < 0.  This stage has no loop-carried dependency and
    is computed with shifted vector adds along the last axis, so a
    (B, n) matrix maps each row as its own sequence.
    """
    values = np.asarray(values)
    out = np.zeros_like(values)
    for j, a in enumerate(feedforward):
        if a == 0:
            continue
        if j == 0:
            out += _scaled(values, a)
        else:
            out[..., j:] += _scaled(values[..., :-j], a)
    return out


def _scaled(values: np.ndarray, coeff: float) -> np.ndarray:
    """values * coeff without promoting integer arrays to float."""
    if np.issubdtype(values.dtype, np.integer):
        return values * np.asarray(coeff, dtype=values.dtype)
    return values * values.dtype.type(coeff)


def serial_recurrence(values: np.ndarray, feedback: Sequence[float]) -> np.ndarray:
    """The serial listing from Section 2, for ``(1: b...)`` recurrences.

    A deliberately plain left-to-right loop: this is the oracle the
    parallel codes are judged against, so it must not share any of the
    machinery under test.  Use moderate sizes; it is O(nk) Python.
    """
    values = np.asarray(values)
    k = len(feedback)
    n = len(values)
    out = np.array(values, copy=True)
    if n == 0 or k == 0:
        return out
    if np.issubdtype(out.dtype, np.integer):
        coeffs = [np.asarray(b, dtype=out.dtype) for b in feedback]
    else:
        coeffs = [out.dtype.type(b) for b in feedback]
    # Integer signatures deliberately wrap around like the 32-bit CUDA
    # arithmetic they model; suppress numpy's scalar-overflow warning.
    with np.errstate(over="ignore"):
        for i in range(n):
            acc = out[i]
            for j in range(1, min(i, k) + 1):
                acc = acc + coeffs[j - 1] * out[i - j]
            out[i] = acc
    return out


def serial_full(
    values: np.ndarray, signature: Signature, dtype: np.dtype | None = None
) -> np.ndarray:
    """The full type-(1) recurrence: map stage then recursive stage.

    This is the semantic definition of what every solver in this
    repository must compute for ``signature`` on ``values``.
    """
    values = np.asarray(values)
    if dtype is None:
        dtype = resolve_dtype(signature, values.dtype)
    work = values.astype(dtype, copy=False)
    ff = [_as_python_number(a) for a in signature.feedforward]
    fb = [_as_python_number(b) for b in signature.feedback]
    t = fir_map(work, ff)
    return serial_recurrence(t, fb)


def _as_python_number(coeff) -> int | float:
    """Collapse Fractions to float, keep ints exact."""
    if isinstance(coeff, int):
        return coeff
    return float(coeff)
