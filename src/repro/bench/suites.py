"""The benchmark suite: micro hot-path timings and macro ``simulate()`` runs.

Micro benchmarks isolate the four paths the profiler names hottest in a
simulated run — the discrete-event dispatch loop, Task Execution Queue
push/pop traffic, kernel-duration sampling, and incremental hazard
analysis.  Macro benchmarks time end-to-end :func:`repro.core.simulator.simulate`
across program sizes (Cholesky/QR tile counts) and all three scheduler
models, reporting simulated tasks per second — the headline number of the
ROADMAP's "as fast as the hardware allows" goal.

All benchmarks are hermetic: kernel timing models are synthetic (fixed
parameters derived from the kernel name, no calibration run needed), every
run is seeded, and program construction happens outside the timed region.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms import cholesky_program, qr_program
from ..core.simulator import simulate
from ..core.task import Program
from ..core.teq import TaskExecutionQueue
from ..kernels.distributions import LognormalModel
from ..kernels.timing import KernelModelSet
from ..schedulers import make_scheduler
from ..schedulers.taskdep import HazardTracker
from .harness import BenchReport, BenchResult, run_benchmark

__all__ = [
    "BenchSpec",
    "synthetic_models",
    "default_suite",
    "run_suite",
]

#: Scheduler models every macro benchmark covers.
SCHEDULERS = ("quark", "starpu", "ompss")

#: (algorithm, nt) grid for macro benchmarks; the last entry is the largest
#: program — the one the CI gate and the README table headline.
MACRO_SIZES_QUICK = (("cholesky", 8), ("cholesky", 20))
MACRO_SIZES_FULL = (("cholesky", 8), ("qr", 10), ("cholesky", 20), ("cholesky", 28))

_GENERATORS = {"cholesky": cholesky_program, "qr": qr_program}


def synthetic_models(program: Program) -> KernelModelSet:
    """Deterministic per-kernel lognormal models (no calibration run).

    Parameters vary by kernel so draws exercise the per-kernel model lookup
    exactly like calibrated models do, while staying a pure function of the
    program — benchmark runs are comparable across machines and commits.
    """
    models = {
        kernel: LognormalModel(mu_log=-9.0 + 0.2 * i, sigma_log=0.08 + 0.01 * i)
        for i, kernel in enumerate(sorted(program.kernels()))
    }
    return KernelModelSet(models=models, family="lognormal")


def _independent_program(n_tasks: int) -> Program:
    """``n_tasks`` dependence-free tasks: pure dispatch-loop stress."""
    program = Program(f"independent-{n_tasks}")
    refs = [program.registry.alloc("T", 64, key=("T", i)) for i in range(n_tasks)]
    for ref in refs:
        program.add_task("DGEMM", [ref.write()], flops=1.0)
    return program


@dataclass
class BenchSpec:
    """A named, lazily-constructed benchmark.

    ``make()`` builds the workload outside the timed region and returns
    ``(fn, ops)`` where ``fn`` is the timed callable (may return an ops
    override) and ``ops`` the declared per-repetition operation count.
    """

    name: str
    group: str
    unit: str
    make: Callable[[], Tuple[Callable[[], Optional[int]], int]]
    repeats: int = 5
    params: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> BenchResult:
        fn, ops = self.make()
        return run_benchmark(
            self.name,
            fn,
            group=self.group,
            ops=ops,
            unit=self.unit,
            repeats=self.repeats,
            params=self.params,
        )


# -- micro benchmarks -------------------------------------------------------
def _make_teq_push_pop(n: int):
    def setup():
        # Completion times arrive out of order (reversed pairs) so the heap
        # actually reorders; pops always take the true front.
        ends = [float((i ^ 1) + 1) for i in range(n)]

        def fn() -> None:
            teq = TaskExecutionQueue()
            insert = teq.insert
            pop = teq.pop_front
            front = teq.front
            for tid, end in enumerate(ends):
                insert(tid, end)
            for _ in range(n):
                pop(front())

        return fn, 2 * n

    return setup


def _make_dispatch_loop(n_tasks: int, n_workers: int, engine_backend: str = "object"):
    def setup():
        program = _independent_program(n_tasks)
        models = KernelModelSet(
            models={"DGEMM": LognormalModel(mu_log=-9.0, sigma_log=0.05)},
            family="lognormal",
        )

        def fn() -> Optional[int]:
            from ..core.metrics import RunMetrics
            from ..core.simbackend import SimulationBackend

            metrics = RunMetrics()
            make_scheduler("quark", n_workers).run(
                program,
                SimulationBackend(models),
                seed=0,
                metrics=metrics,
                engine_backend=engine_backend,
            )
            return metrics.events_processed

        return fn, 2 * n_tasks

    return setup


def _make_duration_sampling(n_draws: int):
    def setup():
        import numpy as np

        program = cholesky_program(6, 200)
        models = synthetic_models(program)
        kernels = [spec.kernel for spec in program]
        # Repeat the program's kernel sequence until n_draws draws.
        sequence = (kernels * (n_draws // len(kernels) + 1))[:n_draws]

        def fn() -> None:
            rng = np.random.default_rng(123)
            sampler = models.make_sampler(rng)
            draw = sampler.draw
            for kernel in sequence:
                draw(kernel)

        return fn, n_draws

    return setup


def _make_hazard_tracking(nt: int):
    def setup():
        program = cholesky_program(nt, 200)

        def fn() -> None:
            tracker = HazardTracker()
            add = tracker.add_task
            for spec in program:
                add(spec)

        return fn, len(program)

    return setup


def _make_calib_fit(n_samples: int):
    def setup():
        import numpy as np

        from ..calib import fit_from_samples

        # Per-kernel sample sets with distinct shapes so every candidate
        # family (incl. the EM mixture and the KDE) does real work.
        rng = np.random.default_rng(42)
        half = n_samples // 2
        samples = {
            "DGEMM": np.exp(rng.normal(-6.0, 0.1, n_samples)),  # lognormal
            "DSYRK": np.concatenate(  # bimodal -> mixture/KDE path
                [
                    np.exp(rng.normal(-7.0, 0.08, half)),
                    np.exp(rng.normal(-5.5, 0.08, n_samples - half)),
                ]
            ),
            "DTRSM": rng.gamma(30.0, 1e-4, n_samples),  # gamma-ish
            "DPOTRF": rng.normal(2e-3, 1e-4, n_samples),  # normal
        }

        def fn() -> None:
            fit_from_samples(samples)

        return fn, len(samples)

    return setup


# -- macro benchmarks -------------------------------------------------------
def _make_simulate(algorithm: str, nt: int, scheduler: str, n_workers: int):
    def setup():
        program = _GENERATORS[algorithm](nt, 200)
        models = synthetic_models(program)

        def fn() -> None:
            sched = make_scheduler(scheduler, n_workers)
            simulate(program, sched, models, seed=1234)

        return fn, len(program)

    return setup


def default_suite(
    *,
    quick: bool = False,
    workers: int = 48,
    engine_backend: str = "object",
) -> List[BenchSpec]:
    """The standard suite: the micro benchmarks plus the macro grid.

    ``engine_backend`` (``repro bench --engine-backend``) applies to the
    plain ``micro/dispatch-loop`` entry only — ``micro/dispatch-loop-array``
    pins ``engine_backend="array"`` so the two engines can be compared
    inside a single report regardless of the flag (without a built core it
    measures the recorded object-engine fallback).
    """
    micro_scale = 1 if quick else 4
    macro_repeats = 3 if quick else 5
    specs = [
        BenchSpec(
            name="micro/teq-push-pop",
            group="micro",
            unit="ops/s",
            make=_make_teq_push_pop(20_000 * micro_scale),
            params={"n": 20_000 * micro_scale},
        ),
        BenchSpec(
            name="micro/dispatch-loop",
            group="micro",
            unit="events/s",
            make=_make_dispatch_loop(
                4_000 * micro_scale, 16, engine_backend=engine_backend
            ),
            params={
                "n_tasks": 4_000 * micro_scale,
                "n_workers": 16,
                "engine_backend": engine_backend,
            },
        ),
        BenchSpec(
            name="micro/dispatch-loop-array",
            group="micro",
            unit="events/s",
            make=_make_dispatch_loop(4_000 * micro_scale, 16, engine_backend="array"),
            params={
                "n_tasks": 4_000 * micro_scale,
                "n_workers": 16,
                "engine_backend": "array",
            },
        ),
        BenchSpec(
            name="micro/duration-sampling",
            group="micro",
            unit="draws/s",
            make=_make_duration_sampling(50_000 * micro_scale),
            params={"n_draws": 50_000 * micro_scale},
        ),
        BenchSpec(
            name="micro/calib-fit",
            group="micro",
            unit="fits/s",
            make=_make_calib_fit(100 * micro_scale),
            repeats=3,
            params={"n_samples": 100 * micro_scale, "n_kernels": 4},
        ),
        BenchSpec(
            name="micro/hazard-tracking",
            group="micro",
            unit="tasks/s",
            make=_make_hazard_tracking(16 if quick else 24),
            params={"nt": 16 if quick else 24},
        ),
    ]
    sizes = MACRO_SIZES_QUICK if quick else MACRO_SIZES_FULL
    for algorithm, nt in sizes:
        for scheduler in SCHEDULERS:
            specs.append(
                BenchSpec(
                    name=f"macro/simulate/{algorithm}-nt{nt}/{scheduler}",
                    group="macro",
                    unit="tasks/s",
                    make=_make_simulate(algorithm, nt, scheduler, workers),
                    repeats=macro_repeats,
                    params={
                        "algorithm": algorithm,
                        "nt": nt,
                        "scheduler": scheduler,
                        "n_workers": workers,
                    },
                )
            )
    return specs


def run_suite(
    specs: Sequence[BenchSpec],
    *,
    only: Optional[Sequence[str]] = None,
    label: str = "",
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run ``specs`` (optionally filtered by ``only`` glob patterns)."""
    selected = [
        s
        for s in specs
        if only is None or any(fnmatch.fnmatch(s.name, pat) for pat in only)
    ]
    if not selected:
        raise ValueError(
            f"no benchmarks match {list(only or [])!r}; "
            f"available: {[s.name for s in specs]}"
        )
    report = BenchReport(label=label)
    for spec in selected:
        if progress is not None:
            progress(f"bench: {spec.name}")
        report.add(spec.run())
    return report
