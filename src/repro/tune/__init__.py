"""Machine identity: the fingerprint stamped into benchmark baselines.

:func:`machine_fingerprint` records what a timing depends on (core
count, platform, Python, numpy, C compiler);
:func:`fingerprint_mismatches` names the fields on which a stored
fingerprint differs from this machine's, so ``plr bench --compare``
can declare a baseline measured elsewhere.
"""

from repro.tune.fingerprint import (
    fingerprint_digest,
    fingerprint_mismatches,
    machine_fingerprint,
)

__all__ = [
    "fingerprint_digest",
    "fingerprint_mismatches",
    "machine_fingerprint",
]
