"""The benchmark's hooks into the library still resolve.

``perfbench/`` drives the library from outside: its traced run wraps
the callables :func:`layers.targets` names, and each workload's set-up
builds the factor tables (and kernels) its timed rounds will look up.
Neither is exercised by the rest of the suite, so a rename would break
``perfbench/run.py --trace 1`` silently, and a planning change could
move table builds into the timed rounds.  These tests import the
benchmark's modules read-only (no bytecode is written under
``perfbench/``) and check both contracts.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("layers", "workloads", "measure", "checks")


@pytest.fixture
def perfbench(monkeypatch):
    """``(layers, workloads)`` imported from ``perfbench/``, then forgotten."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers"), importlib.import_module("workloads")
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_traced_target_resolves_where_install_looks(perfbench):
    layers, _ = perfbench
    targets = layers.targets()
    assert targets
    for owner, attr, name in targets:
        # SpanRecorder.install reads a class's own __dict__ (so a
        # staticmethod or an inherited attribute would be wrapped wrong)
        # and a module's attribute.
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name})"
            assert callable(owner.__dict__[attr]), f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_batch_mixed_setup_builds_what_the_grouped_passes_use(perfbench, monkeypatch):
    _, workloads = perfbench
    import repro.plr.nd as nd

    workload = workloads.BatchMixed(1, 2)
    expected = {
        (str(key.recurrence.recursive_signature), key.chunk_size, key.dtype.str)
        for key in workload.setup_keys()
    }
    assert expected
    looked_up = set()
    original = nd.cached_factor_table

    def spy(signature, chunk_size, dtype):
        looked_up.add((str(signature), chunk_size, np.dtype(dtype).str))
        return original(signature, chunk_size, dtype)

    monkeypatch.setattr(nd, "cached_factor_table", spy)
    engine = workload.engines["single"]
    with np.errstate(all="ignore"):
        for queue in workload.queues:
            engine.execute(queue)
    assert looked_up == expected
