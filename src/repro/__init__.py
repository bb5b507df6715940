"""repro — Automatic Hierarchical Parallelization of Linear Recurrences.

A from-scratch reproduction of Maleki & Burtscher's PLR system
(ASPLOS 2018): the signature DSL, the n-nacci correction-factor
algorithm, the two-phase hierarchical parallelization, the
domain-specific compiler with its factor optimizations, a GPU machine
model standing in for the paper's Titan X, the comparison codes (CUB,
SAM, Scan, Alg3, Rec), and the full evaluation harness for every
figure and table.

Quick start::

    import numpy as np
    from repro import Recurrence, PLRSolver

    lowpass = Recurrence.parse("(0.2: 0.8)")     # Table 1's 1-stage filter
    y = PLRSolver(lowpass).solve(np.random.randn(1_000_000).astype("f4"))

    from repro import PLRCompiler
    cuda_source = PLRCompiler().compile("(1: 2, -1)").source
"""

from repro.baselines import RecurrenceCode, Workload, make_code
from repro.batch import (
    BatchEngine,
    BatchPlanner,
    BatchRequest,
    BatchSolver,
    execute_batch,
)
from repro.codegen import PLRCompiler
from repro.core import (
    FLOAT_TOLERANCE,
    DeadlineExceeded,
    DeadlockError,
    NumericalError,
    OverloadError,
    ProtocolError,
    Recurrence,
    RecurrenceClass,
    ReproError,
    Signature,
    SignatureError,
    StateError,
    ValidationError,
    WorkerError,
    assert_valid,
    classify,
    compare_results,
    correction_factors,
    high_pass,
    low_pass,
    nnacci,
    parse_signature,
    serial_full,
    table1_signatures,
)
from repro.gpusim import CostModel, FaultKind, FaultPlan, MachineSpec, SimulatedPLR
from repro.obs import (
    MetricsRegistry,
    PipelineProfile,
    Tracer,
    chrome_trace,
    global_metrics,
    profile_simulation,
)
from repro.parallel import ShardOptions, solve_sharded
from repro.plr import (
    CorrectionFactorTable,
    ExecutionPlan,
    OptimizationConfig,
    PLRSolver,
    clear_factor_cache,
    plan_execution,
    plr_solve,
)
from repro.resilience import (
    FallbackPolicy,
    ResilientSolver,
    SolveReport,
    run_chaos,
)
from repro.serve import PLRServer, ServeClient, ServeConfig

__version__ = "1.0.0"

__all__ = [
    "BatchEngine",
    "BatchPlanner",
    "BatchRequest",
    "BatchSolver",
    "CorrectionFactorTable",
    "CostModel",
    "DeadlineExceeded",
    "DeadlockError",
    "ExecutionPlan",
    "FLOAT_TOLERANCE",
    "FallbackPolicy",
    "FaultKind",
    "FaultPlan",
    "MachineSpec",
    "MetricsRegistry",
    "NumericalError",
    "OptimizationConfig",
    "OverloadError",
    "PLRCompiler",
    "PLRServer",
    "PLRSolver",
    "PipelineProfile",
    "ProtocolError",
    "Recurrence",
    "RecurrenceClass",
    "RecurrenceCode",
    "ReproError",
    "ResilientSolver",
    "ServeClient",
    "ServeConfig",
    "ShardOptions",
    "Signature",
    "SignatureError",
    "SimulatedPLR",
    "SolveReport",
    "StateError",
    "Tracer",
    "ValidationError",
    "Workload",
    "WorkerError",
    "__version__",
    "assert_valid",
    "chrome_trace",
    "classify",
    "clear_factor_cache",
    "compare_results",
    "correction_factors",
    "execute_batch",
    "global_metrics",
    "high_pass",
    "low_pass",
    "make_code",
    "nnacci",
    "parse_signature",
    "plan_execution",
    "plr_solve",
    "profile_simulation",
    "run_chaos",
    "serial_full",
    "solve_sharded",
    "table1_signatures",
]
