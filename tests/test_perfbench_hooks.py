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
    import repro.plr.solver as plr_solver
    from repro.batch.solver import BatchSolver

    workload = workloads.BatchMixed(1, 2)
    expected = {
        (str(key.recurrence.recursive_signature), key.chunk_size, key.dtype.str)
        for key in workload.setup_keys()
    }
    assert expected
    looked_up = set()
    grouped = []
    original_lookup = plr_solver.cached_factor_table
    original_solve = BatchSolver.solve

    def spy(signature, chunk_size, dtype):
        # Isolation re-runs look tables up through the same function;
        # only the grouped passes are the set-up's contract.
        if grouped:
            looked_up.add((str(signature), chunk_size, np.dtype(dtype).str))
        return original_lookup(signature, chunk_size, dtype)

    def solve(self, *args, **kwargs):
        grouped.append(self)
        try:
            return original_solve(self, *args, **kwargs)
        finally:
            grouped.pop()

    monkeypatch.setattr(plr_solver, "cached_factor_table", spy)
    monkeypatch.setattr(BatchSolver, "solve", solve)
    engine = workload.engines["single"]
    with np.errstate(all="ignore"):
        for queue in workload.queues:
            engine.execute(queue)
    assert looked_up == expected


def test_stream_1d_setup_builds_every_table_a_push_reads(perfbench, monkeypatch):
    _, workloads = perfbench
    import repro.plr.solver as plr_solver
    import repro.plr.streaming as streaming

    workload = workloads.Stream1D(1, 2)
    built = {
        (str(key.recurrence.recursive_signature), key.chunk_size, key.dtype.str)
        for key in workload.setup_keys()
    }
    looked_up = set()

    def spying(original):
        def spy(signature, chunk_size, dtype):
            looked_up.add((str(signature.recursive_part()), chunk_size, np.dtype(dtype).str))
            return original(signature, chunk_size, dtype)

        return spy

    # A push may look tables up through either module's binding.
    for module in (plr_solver, streaming):
        monkeypatch.setattr(
            module, "cached_factor_table", spying(module.cached_factor_table)
        )
    for session in workload.sessions:
        for stream in workload.streams.values():
            stream.reset()
        for name, stream in workload.streams.items():
            for block in session[name]:
                stream.push(block)
    assert looked_up
    # A subset, not equality: the set-up may build tables no push reads.
    assert looked_up <= built, sorted(looked_up - built)


def test_resilient_chain_plans_through_the_traced_planner(monkeypatch):
    # The traced run wraps plan_execution on repro.plr.solver; the
    # chain's planning (batch_mixed's isolation re-runs) must go through
    # that attribute to count in plr.plan.self_s.
    import repro.plr.solver as plr_solver
    from repro.resilience import ResilientSolver

    planned = []
    original = plr_solver.plan_execution

    def spy(signature, n, *args, **kwargs):
        planned.append(n)
        return original(signature, n, *args, **kwargs)

    monkeypatch.setattr(plr_solver, "plan_execution", spy)
    report = ResilientSolver("(1: 1)").solve_with_report(np.arange(100, dtype=np.int32))
    assert report.ok
    assert planned == [100]
