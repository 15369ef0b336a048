"""High-level simulation API: real runs, simulated runs, validation.

This is the user-facing surface of the reproduction:

* :func:`run_real` — execute a program on a scheduler with durations from
  the machine model (the ground truth of our experiments);
* :func:`simulate` — execute the *same* scheduler with task bodies replaced
  by timing-model draws (the paper's simulator);
* :func:`validate` — do both and compare, returning the trace-comparison
  report plus achieved GFLOP/s on each side — the quantity plotted in the
  paper's Figs. 8-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..kernels.timing import KernelModelSet
from ..machine.backend import MachineBackend
from ..machine.topology import Machine
from ..schedulers.base import SchedulerBase
from ..trace.compare import TraceComparison, compare_traces
from ..trace.events import Trace
from .metrics import RunMetrics
from .simbackend import SimulationBackend
from .task import Program

__all__ = ["run_real", "simulate", "ValidationResult", "validate"]


def run_real(
    program: Program,
    scheduler: SchedulerBase,
    machine: Union[Machine, str, MachineBackend],
    *,
    seed: int = 0,
    metrics: Optional[RunMetrics] = None,
    probe=None,
    engine_backend: Optional[str] = None,
) -> Trace:
    """A ground-truth run: scheduler + machine-model durations.

    ``metrics`` and ``probe`` are the observability hooks: run counters and
    the scheduler-internal event stream (:mod:`repro.obs`).  Neither changes
    the trace, and neither does ``engine_backend`` — ``"array"`` runs the
    identical simulation on the SoA core (``None`` defers to
    ``$REPRO_ENGINE_BACKEND``).
    """
    backend = machine if isinstance(machine, MachineBackend) else MachineBackend(machine)
    return scheduler.run(
        program, backend, seed=seed, trace_meta={"mode": "real"},
        metrics=metrics, probe=probe, engine_backend=engine_backend,
    )


def simulate(
    program: Program,
    scheduler: SchedulerBase,
    models: KernelModelSet,
    *,
    seed: int = 0,
    warmup_penalty: float = 0.0,
    metrics: Optional[RunMetrics] = None,
    probe=None,
    engine_backend: Optional[str] = None,
) -> Trace:
    """A simulated run: scheduler + timing-model durations (paper §V).

    ``warmup_penalty`` optionally reproduces the per-worker first-kernel
    initialisation cost in the simulated trace (the paper notes its absence
    as one of the two visible differences between Figs. 6 and 7).
    ``metrics`` / ``probe`` observe the run without perturbing it.
    ``engine_backend`` selects the engine implementation
    (``"object"``/``"array"``; ``None`` defers to
    ``$REPRO_ENGINE_BACKEND``).  Both backends produce the same trace.
    """
    backend = SimulationBackend(models, warmup_penalty=warmup_penalty)
    return scheduler.run(
        program, backend, seed=seed, trace_meta={"mode": "simulated"},
        metrics=metrics, probe=probe, engine_backend=engine_backend,
    )


@dataclass
class ValidationResult:
    """Outcome of one real-vs-simulated validation experiment."""

    real: Trace
    simulated: Trace
    comparison: TraceComparison
    gflops_real: float
    gflops_sim: float

    @property
    def error_percent(self) -> float:
        """Unsigned relative makespan (equivalently GFLOP/s) error, percent."""
        return self.comparison.abs_error_percent

    def report(self) -> str:
        return (
            f"performance: real={self.gflops_real:.2f} GFLOP/s "
            f"sim={self.gflops_sim:.2f} GFLOP/s "
            f"error={self.error_percent:.2f}%\n" + self.comparison.report()
        )


def validate(
    program: Program,
    scheduler: SchedulerBase,
    machine: Union[Machine, str, MachineBackend],
    models: KernelModelSet,
    *,
    seed_real: int = 1,
    seed_sim: int = 2,
    warmup_penalty: float = 0.0,
    metrics_real: Optional[RunMetrics] = None,
    metrics_sim: Optional[RunMetrics] = None,
) -> ValidationResult:
    """Run real and simulated executions of ``program`` and compare them.

    Distinct seeds are deliberate: the paper's runs and simulations are
    *different stochastic realisations* whose agreement is the claim under
    test, so validating with shared randomness would be self-deception.
    ``metrics_real`` / ``metrics_sim``, when given, collect each side's run
    counters.
    """
    real = run_real(program, scheduler, machine, seed=seed_real, metrics=metrics_real)
    sim = simulate(
        program, scheduler, models, seed=seed_sim, warmup_penalty=warmup_penalty,
        metrics=metrics_sim,
    )
    comparison = compare_traces(real, sim)
    flops = program.total_flops
    return ValidationResult(
        real=real,
        simulated=sim,
        comparison=comparison,
        gflops_real=real.gflops(flops),
        gflops_sim=sim.gflops(flops),
    )
