"""Output checks, independent of the solvers under test.

Two references, both outside the timed region:

* :func:`residual_check` re-derives the defining equation
  ``y[i] = sum_j a_j x[i-j] + sum_j b_j y[i-j]`` (zero history) over the
  whole output with plain vectorized numpy.  It is exact in the
  integer ring (wraparound included) and holds floats to the paper's
  Section 5 tolerance.  It shares no code with the solvers, and it runs
  in blocks so it never allocates more than a few MiB.
* :func:`serial_check` compares a prefix against the library's serial
  loop (``serial_full``), the repository's own oracle, on lengths where
  that loop is cheap.
"""

from __future__ import annotations

import numpy as np

from repro import FLOAT_TOLERANCE, compare_results, serial_full

BLOCK = 1 << 16
"""Words per residual block: the block's float64 scratch stays in L2."""
SERIAL_WORDS = 512


def _coefficients(signature, dtype: np.dtype):
    def cast(c):
        if dtype.kind in "iu":
            return np.asarray(int(c), dtype=dtype)
        return float(c)

    return [cast(a) for a in signature.feedforward], [cast(b) for b in signature.feedback]


def residual_check(signature, x: np.ndarray, y: np.ndarray) -> tuple[bool, float]:
    """Check that ``y`` solves the recurrence on ``x``; returns (ok, worst error).

    ``y``'s dtype decides the arithmetic: integer outputs must satisfy
    the equation exactly modulo 2^bits (``x`` is cast to that dtype, as
    the solvers do); float outputs are checked in float64 and every
    residual must stay within ``FLOAT_TOLERANCE`` relative to
    ``max(1, |y[i]|)``.
    """
    n = y.size
    if x.size != n:
        return False, float("inf")
    integer = y.dtype.kind in "iu"
    work = y.dtype if integer else np.dtype(np.float64)
    ff, fb = _coefficients(signature, work)
    # Terms as (source, lag, coefficient): y[i] - sum a_j x[i-j] - sum b_j y[i-j].
    terms = [("x", j, a) for j, a in enumerate(ff) if a != 0]
    terms += [("y", j, b) for j, b in enumerate(fb, start=1) if b != 0]
    history = max(len(ff) - 1, len(fb))
    residual = np.empty(BLOCK, dtype=work)
    scratch = np.empty(BLOCK, dtype=work)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, BLOCK):
            stop = min(start + BLOCK, n)
            lo = max(0, start - history)
            off, size = start - lo, stop - start
            source = {
                "x": x[lo:stop].astype(work, copy=False),
                "y": y[lo:stop].astype(work, copy=False),
            }
            res = residual[:size]
            res[:] = source["y"][off:]
            for name, lag, coeff in terms:
                # Terms before the first element are zero history.
                skip = max(0, lag - off)
                if skip >= size:
                    continue
                src = source[name][off - lag + skip : off - lag + size]
                tmp = scratch[: size - skip]
                np.multiply(src, coeff, out=tmp)
                np.subtract(res[skip:], tmp, out=res[skip:])
            if integer:
                if res.any():
                    return False, float(np.abs(res.astype(np.int64)).max())
                continue
            tmp = scratch[:size]
            np.abs(source["y"][off:], out=tmp)
            np.maximum(tmp, 1.0, out=tmp)
            np.abs(res, out=res)
            np.divide(res, tmp, out=res)
            err = float(res.max())
            if not np.isfinite(err) or err > FLOAT_TOLERANCE:
                return False, err
            worst = max(worst, err)
    return True, worst


def serial_check(signature, x: np.ndarray, y: np.ndarray, words: int) -> bool:
    """Compare the first ``words`` outputs with ``serial_full``."""
    k = min(words, y.size)
    expected = serial_full(np.asarray(x[:k]), signature, dtype=y.dtype)
    return bool(compare_results(y[:k], expected))


def check_output(signature, x: np.ndarray, y, serial_words: int = SERIAL_WORDS) -> bool:
    """Both checks on one output; False on any mismatch or missing output."""
    if y is None:
        return False
    y = np.asarray(y)
    ok, _ = residual_check(signature, x, y)
    return ok and serial_check(signature, x, y, serial_words)
