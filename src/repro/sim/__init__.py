"""Execution substrate: functional executor and trace accounting.

The two-level warp scheduler timing model is
:mod:`repro.sim.scheduler`, imported by the studies that use it.
"""

from .accounting import (
    BaselineAccounting,
    HardwareAccounting,
    PointLiveness,
    SoftwareAccounting,
    account_trace,
    shared_consumed_positions,
)
from .divergence import (
    DivergentWarpExecutor,
    DivergentWarpInput,
    full_mask,
    run_divergent_warp,
)
from .executor import (
    ExecutionError,
    TraceEvent,
    WarpExecutor,
    WarpInput,
    run_warp,
)
from .memory import Memory
from .params import DEFAULT_PARAMS, SimParams
from .runner import (
    KernelEvaluation,
    build_divergent_traces,
    TraceSet,
    build_traces,
    evaluate_traces,
    usage_histogram,
)
from .schemes import (
    BEST_HW_THREE_LEVEL,
    BEST_HW_TWO_LEVEL,
    BEST_SCHEME,
    BEST_SW_TWO_LEVEL,
    Scheme,
    SchemeKind,
)

__all__ = [
    "BEST_HW_THREE_LEVEL",
    "BEST_HW_TWO_LEVEL",
    "BEST_SCHEME",
    "BEST_SW_TWO_LEVEL",
    "BaselineAccounting",
    "DEFAULT_PARAMS",
    "DivergentWarpExecutor",
    "DivergentWarpInput",
    "ExecutionError",
    "HardwareAccounting",
    "KernelEvaluation",
    "Memory",
    "PointLiveness",
    "Scheme",
    "SchemeKind",
    "SimParams",
    "SoftwareAccounting",
    "TraceEvent",
    "TraceSet",
    "WarpExecutor",
    "WarpInput",
    "account_trace",
    "build_divergent_traces",
    "build_traces",
    "evaluate_traces",
    "full_mask",
    "run_divergent_warp",
    "run_warp",
    "shared_consumed_positions",
    "usage_histogram",
]
