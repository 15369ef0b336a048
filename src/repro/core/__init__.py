"""Simulator core: task model, clock, TEQ, backends, and the high-level API."""

from .clock import SimClock
from .soa import ENGINE_BACKENDS, SoAProgram, default_engine_backend
from .faults import FaultPlan, FaultState
from .metrics import METRICS_SCHEMA, RunMetrics
from .simbackend import HeterogeneousSimulationBackend, SimulationBackend
from .simulator import ValidationResult, run_real, simulate, validate
from .task import READ, RW, WRITE, Access, AccessMode, DataRef, DataRegistry, Program, TaskSpec
from .teq import TaskExecutionQueue
from .watchdog import (
    STALL_DIAGNOSTIC_SCHEMA,
    STALL_POLICIES,
    RuntimeStallError,
    StallPolicy,
)

__all__ = [
    "ENGINE_BACKENDS",
    "SoAProgram",
    "default_engine_backend",
    "SimClock",
    "FaultPlan",
    "FaultState",
    "METRICS_SCHEMA",
    "RunMetrics",
    "STALL_DIAGNOSTIC_SCHEMA",
    "STALL_POLICIES",
    "RuntimeStallError",
    "StallPolicy",
    "HeterogeneousSimulationBackend",
    "SimulationBackend",
    "ValidationResult",
    "run_real",
    "simulate",
    "validate",
    "READ",
    "RW",
    "WRITE",
    "Access",
    "AccessMode",
    "DataRef",
    "DataRegistry",
    "Program",
    "TaskSpec",
    "TaskExecutionQueue",
]
