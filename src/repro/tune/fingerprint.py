"""Machine identity for committed benchmark baselines.

A timing is only meaningful on the machine that produced it: the
native-vs-numpy crossover moves with the compiler, the process
backend's profitability moves with the core count, and numpy's
vectorized throughput moves with the BLAS/SIMD build.  The fingerprint
captures exactly the dimensions a measurement depends on — core count,
compiler identity, numpy version, platform — so a committed bench
baseline carries a declared provenance, and ``plr bench --compare``
can say when it was measured on another machine.

The fingerprint is deliberately coarse: it identifies a *machine
class*, not an instant.  Load average, frequency scaling, and thermal
state are noise the measurement protocol (best-of-N) absorbs; they do
not belong in the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

__all__ = [
    "machine_fingerprint",
    "fingerprint_digest",
    "fingerprint_mismatches",
]

FINGERPRINT_FIELDS = ("cpu_count", "platform", "machine", "python", "numpy", "compiler")
"""The compared fields, in reporting order.  Extra keys in a stored
fingerprint are ignored so the schema can grow without invalidating
every existing baseline."""


def _compiler_identity() -> str | None:
    """First ``--version`` line of the C compiler, or None without one.

    Imported lazily: this module must stay importable on machines with
    no toolchain at all.
    """
    from repro.codegen import cbackend
    from repro.core.errors import BackendError

    try:
        compiler = cbackend._find_compiler()
    except BackendError:
        return None
    return cbackend._compiler_version(compiler)


def machine_fingerprint() -> dict:
    """The identity dict stamped into benchmark baselines."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": _compiler_identity(),
    }


def fingerprint_digest(fingerprint: dict) -> str:
    """A short stable digest of the compared fields (for display/keys)."""
    canonical = json.dumps(
        {field: fingerprint.get(field) for field in FINGERPRINT_FIELDS},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def fingerprint_mismatches(stored: dict, current: dict) -> tuple[str, ...]:
    """Human-readable differences between two fingerprints.

    Returns one ``"field: stored -> current"`` line per differing field,
    empty when the machines match.  A field absent from the *stored*
    fingerprint is skipped — old baselines that predate a field stay
    valid rather than being invalidated by schema growth.
    """
    lines = []
    for field in FINGERPRINT_FIELDS:
        if field not in stored:
            continue
        a, b = stored[field], current.get(field)
        if a != b:
            lines.append(f"{field}: {a!r} -> {b!r}")
    return tuple(lines)
