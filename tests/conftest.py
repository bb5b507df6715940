"""Shared fixtures: RNG, machines, and the Table 1 recurrence matrix."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.coefficients import table1_signatures
from repro.core.recurrence import Recurrence
from repro.gpusim.spec import MachineSpec

TABLE1_NAMES = tuple(table1_signatures().keys())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20180324)  # the conference date


@pytest.fixture(scope="session")
def titan_x() -> MachineSpec:
    return MachineSpec.titan_x()


@pytest.fixture(scope="session")
def test_gpu() -> MachineSpec:
    return MachineSpec.small_test_gpu()


@pytest.fixture(params=TABLE1_NAMES)
def table1_recurrence(request) -> Recurrence:
    """Parametrizes a test over all eleven Table 1 recurrences."""
    return Recurrence(table1_signatures()[request.param])


def make_values(recurrence: Recurrence, n: int, seed: int = 7) -> np.ndarray:
    """Random input of the dtype the paper uses for this recurrence."""
    generator = np.random.default_rng(seed)
    if recurrence.is_integer:
        return generator.integers(-100, 100, size=n).astype(np.int32)
    return generator.standard_normal(n).astype(np.float32)


HARD_TIMEOUT_S = 90.0
"""Hard wall-clock ceiling for one ``serve``- or ``native``-marked test.

The failure mode of last resort of both layers is a hang: an awaited
reply that never comes, or a kernel stuck in a parallel region.  Either
would otherwise stall the whole suite until its stage timeout.  A
SIGALRM fired from outside the event loop cuts through any stuck
``await`` (pytest-timeout is not available in this environment, so the
guard is implemented here).  Native tests take about a second each on
a 2-vCPU x86_64 machine, so the ceiling leaves a wide margin.
"""

HARD_TIMEOUT_MARKERS = ("serve", "native")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = next(
        (name for name in HARD_TIMEOUT_MARKERS if item.get_closest_marker(name)),
        None,
    )
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"hard timeout: {item.nodeid} exceeded {HARD_TIMEOUT_S:.0f}s "
            f"(a {marker}-marked test hung)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
