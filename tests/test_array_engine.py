"""Tests for the array-native (SoA + compiled core) simulation engine.

The headline guarantee: ``engine_backend="array"`` produces the *same
bytes* as the object engine.  The golden digests in
``tests/data/preopt_trace_digests.json`` must hold through the compiled C
event loop and through every fallback to the object engine — no core
built, a probe attached, real-mode and calibrated duration backends,
StarPU ``dmda``.  On top of that, a Hypothesis differential drives random
hazard DAGs through both backends, and the selection/fallback plumbing
(``REPRO_ENGINE_BACKEND``, ``RunSpec.engine_backend``, cache-key
compatibility, the recorded fallback reason) is pinned down.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import cholesky_program, qr_program
from repro.bench import synthetic_models
from repro.core.metrics import RunMetrics
from repro.core.simbackend import SimulationBackend
from repro.core.simulator import run_real, simulate
from repro.core.soa import ENGINE_BACKENDS, SoAProgram, default_engine_backend
from repro.core.task import Program
from repro.kernels.distributions import LognormalMixtureModel
from repro.kernels.timing import KernelModelSet
from repro.machine import MachineBackend
from repro.obs import NullProbe, RecordingProbe
from repro.runner import ProgramSpec, RunSpec, SchedulerSpec
from repro.schedulers import array_engine as array_engine_module
from repro.schedulers import QuarkScheduler, make_scheduler
from repro.schedulers.array_engine import array_backend_unsupported
from repro.trace.events import ColumnTrace
from repro.trace.textio import dumps_trace

DATA = Path(__file__).parent / "data"
SCHEDULERS = ("quark", "starpu", "ompss")
DIGESTS = json.loads((DATA / "preopt_trace_digests.json").read_text())["digests"]


def _digest(trace) -> str:
    return hashlib.sha256(dumps_trace(trace).encode()).hexdigest()


requires_core = pytest.mark.skipif(
    array_engine_module._c_run is None, reason="compiled array core not built"
)


@pytest.fixture(params=["compiled", "pure-python"])
def core_variant(request, monkeypatch):
    """Run a test with the compiled core and in a pure-Python process.

    The ``compiled`` variant skips (not fails) where no C core was built so
    the suite stays green on compiler-less machines.  ``pure-python`` hides
    the core (``_c_run = None``): array requests then take the recorded
    object-engine fallback and must still produce the same bytes.
    """
    if request.param == "compiled":
        if array_engine_module._c_run is None:
            pytest.skip("compiled array core not built")
    else:
        monkeypatch.setattr(array_engine_module, "_c_run", None)
    return request.param


def _mixture_models(program) -> KernelModelSet:
    """A calibrated-family model set with no closed-form transforms."""
    return KernelModelSet(
        models={
            spec.kernel: LognormalMixtureModel(
                weights=(0.5, 0.5), mus_log=(-7.0, -6.5), sigmas_log=(0.05, 0.1)
            )
            for spec in program
        },
        family="calibrated",
    )


# -- golden byte-identity ---------------------------------------------------
class TestGoldenDigests:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_simulated_matches_golden(self, scheduler, core_variant):
        for algorithm, gen in (("cholesky", cholesky_program), ("qr", qr_program)):
            program = gen(8, 200)
            models = synthetic_models(program)
            trace = simulate(
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=1234,
                warmup_penalty=1e-3,
                engine_backend="array",
            )
            assert _digest(trace) == DIGESTS[f"sim/{algorithm}/{scheduler}/nt8"], (
                f"array simulated trace drifted ({core_variant}): "
                f"{algorithm}/{scheduler}"
            )

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_real_mode_matches_golden(self, scheduler):
        # MachineBackend has no sweep transforms, so real-mode array
        # requests exercise the object-engine fallback.
        for algorithm, gen in (("cholesky", cholesky_program), ("qr", qr_program)):
            program = gen(8, 200)
            trace = run_real(
                program,
                make_scheduler(scheduler, 16),
                "magny_cours_48",
                seed=77,
                engine_backend="array",
            )
            assert _digest(trace) == DIGESTS[f"real/{algorithm}/{scheduler}/nt8"], (
                f"array real-mode trace drifted: {algorithm}/{scheduler}"
            )

    def test_probe_attachment_does_not_perturb_trace(self, core_variant):
        program = cholesky_program(8, 200)
        models = synthetic_models(program)
        trace = simulate(
            program,
            make_scheduler("quark", 16),
            models,
            seed=1234,
            warmup_penalty=1e-3,
            engine_backend="array",
            probe=RecordingProbe(),
        )
        assert _digest(trace) == DIGESTS["sim/cholesky/quark/nt8"]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_probe_stream_matches_object_engine(self, scheduler):
        program = cholesky_program(6, 200)
        models = synthetic_models(program)
        probes = {}
        for backend in ENGINE_BACKENDS:
            probe = RecordingProbe()
            simulate(
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=7,
                engine_backend=backend,
                probe=probe,
            )
            probes[backend] = probe
        assert probes["object"].events == probes["array"].events
        assert probes["object"].deps == probes["array"].deps


# -- metrics parity ---------------------------------------------------------
class TestMetricsParity:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_counters_equal_across_backends(self, scheduler, core_variant):
        program = cholesky_program(8, 200)
        models = synthetic_models(program)
        collected = {}
        for backend in ENGINE_BACKENDS:
            metrics = RunMetrics()
            simulate(
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=1234,
                warmup_penalty=1e-3,
                engine_backend=backend,
                metrics=metrics,
            )
            collected[backend] = metrics
        a, b = collected["object"], collected["array"]
        assert a.events_processed == b.events_processed
        assert a.heap_pushes == b.heap_pushes
        assert a.heap_pops == b.heap_pops
        assert a.peak_heap_depth == b.peak_heap_depth
        assert a.tasks_executed == b.tasks_executed
        assert a.window_stalls == b.window_stalls
        assert a.dispatch_stalls == b.dispatch_stalls
        assert a.peak_ready_depth == b.peak_ready_depth
        assert a.makespan == pytest.approx(b.makespan)


# -- differential (Hypothesis) ----------------------------------------------
@st.composite
def _random_programs(draw):
    """Small random task DAGs with genuine RAW/WAR/WAW hazard structure."""
    n_refs = draw(st.integers(min_value=2, max_value=6))
    n_tasks = draw(st.integers(min_value=1, max_value=25))
    program = Program("hypothesis")
    refs = [program.registry.alloc("R", 64, key=("R", i)) for i in range(n_refs)]
    for _ in range(n_tasks):
        kernel = draw(st.sampled_from(["DGEMM", "DTRSM", "DSYRK"]))
        w = draw(st.integers(min_value=0, max_value=n_refs - 1))
        reads = draw(
            st.lists(st.integers(min_value=0, max_value=n_refs - 1), max_size=3)
        )
        accesses = [refs[w].write()] + [refs[r].read() for r in set(reads) - {w}]
        program.add_task(kernel, accesses, flops=1.0)
    return program


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        program=_random_programs(),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_workers=st.sampled_from([1, 2, 13, 16, 48]),
    )
    def test_array_trace_identical_to_object(
        self, program, scheduler, seed, n_workers
    ):
        models = synthetic_models(program)
        traces = {}
        for backend in ENGINE_BACKENDS:
            traces[backend] = simulate(
                program,
                make_scheduler(scheduler, n_workers),
                models,
                seed=seed,
                engine_backend=backend,
            )
        assert dumps_trace(traces["object"]) == dumps_trace(traces["array"])


# -- backend selection, fallback, spec plumbing -----------------------------
class TestBackendSelection:
    def test_default_engine_backend_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
        assert default_engine_backend() == "object"
        for backend in ENGINE_BACKENDS:
            monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
            assert default_engine_backend() == backend
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "vectorized")
        with pytest.raises(ValueError, match="REPRO_ENGINE_BACKEND"):
            default_engine_backend()

    def test_unknown_backend_rejected(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_scheduler("quark", 4).run(
                program, SimulationBackend(models), engine_backend="vectorized"
            )

    def test_unsupported_reasons(self, monkeypatch):
        program = cholesky_program(4, 100)
        sim = SimulationBackend(synthetic_models(program))
        quark = make_scheduler("quark", 4)
        if array_engine_module._c_run is not None:
            for name in SCHEDULERS:
                assert array_backend_unsupported(make_scheduler(name, 4), sim) is None
            # A disabled probe costs nothing, so it keeps the core path.
            assert array_backend_unsupported(quark, sim, NullProbe()) is None
        assert "dmda" in array_backend_unsupported(
            make_scheduler("starpu", 4, policy="dmda"), sim
        )

        class CustomQuark(QuarkScheduler):
            pass

        assert "CustomQuark" in array_backend_unsupported(CustomQuark(4), sim)
        assert "MachineBackend" in array_backend_unsupported(
            quark, MachineBackend("magny_cours_48")
        )
        assert "'calibrated'" in array_backend_unsupported(
            quark, SimulationBackend(_mixture_models(program))
        )
        assert "probe" in array_backend_unsupported(quark, sim, RecordingProbe())
        monkeypatch.setattr(array_engine_module, "_c_run", None)
        assert "not built" in array_backend_unsupported(quark, sim)

    # Each cause the core cannot replay -> text its recorded reason names.
    FALLBACK_CAUSES = {
        "core-absent": "not built",
        "probe": "probe",
        "real-mode": "MachineBackend",
        "calibrated": "'calibrated'",
        "starpu-dmda": "'dmda'",
    }

    @pytest.mark.parametrize("cause", FALLBACK_CAUSES)
    def test_fallback_records_reason_and_preserves_trace(self, cause, monkeypatch):
        if cause == "core-absent":
            monkeypatch.setattr(array_engine_module, "_c_run", None)
        program = cholesky_program(6, 200)

        def run(engine_backend, metrics=None):
            if cause == "starpu-dmda":
                sched = make_scheduler("starpu", 16, policy="dmda")
            else:
                sched = make_scheduler("quark", 16)
            kwargs = {"seed": 3, "engine_backend": engine_backend, "metrics": metrics}
            if cause == "real-mode":
                return run_real(program, sched, "magny_cours_48", **kwargs)
            models = (
                _mixture_models(program)
                if cause == "calibrated"
                else synthetic_models(program)
            )
            probe = RecordingProbe() if cause == "probe" else None
            return simulate(program, sched, models, probe=probe, **kwargs)

        metrics = RunMetrics()
        expected = dumps_trace(run("object"))
        assert dumps_trace(run("array", metrics)) == expected
        record = metrics.extra["engine_backend"]
        assert record["requested"] == "array"
        assert record["used"] == "object"
        assert self.FALLBACK_CAUSES[cause] in record["fallback_reason"]

    @requires_core
    def test_array_run_records_backend_used(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        metrics = RunMetrics()
        simulate(
            program,
            make_scheduler("quark", 4),
            models,
            seed=0,
            engine_backend="array",
            metrics=metrics,
        )
        assert metrics.extra["engine_backend"] == {
            "requested": "array",
            "used": "array",
        }

    def test_object_run_leaves_metrics_extra_untouched(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        metrics = RunMetrics()
        simulate(
            program,
            make_scheduler("quark", 4),
            models,
            seed=0,
            metrics=metrics,
            engine_backend="object",
        )
        assert "engine_backend" not in metrics.extra


class TestRunSpec:
    def _spec(self, **kwargs):
        return RunSpec(
            program=ProgramSpec("cholesky", 4, 100),
            scheduler=SchedulerSpec("quark", 16),
            machine="magny_cours_48",
            seed=0,
            mode="real",
            **kwargs,
        )

    def test_object_backend_keeps_historical_cache_key(self):
        # engine_backend="object" is normalized out of the key so every
        # pre-existing cache entry stays valid.
        assert self._spec().cache_key() == self._spec(engine_backend="object").cache_key()
        assert "engine_backend" not in json.dumps(self._spec().cache_key())

    def test_array_backend_changes_cache_key(self):
        assert self._spec(engine_backend="array").cache_key() != self._spec().cache_key()

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="engine_backend"):
            self._spec(engine_backend="vectorized")

    def test_threaded_runtime_requires_object_backend(self):
        with pytest.raises(ValueError, match="threaded"):
            self._spec(runtime="threaded", engine_backend="array")


# -- SoA construction and trace columns -------------------------------------
class TestSoAProgram:
    def test_for_program_caches_per_program(self):
        program = cholesky_program(4, 100)
        first = SoAProgram.for_program(program)
        assert SoAProgram.for_program(program) is first

    def test_cache_invalidated_by_append(self):
        program = Program("grow")
        ref = program.registry.alloc("T", 64, key=("T", 0))
        program.add_task("DGEMM", [ref.write()], flops=1.0)
        first = SoAProgram.for_program(program)
        program.add_task("DGEMM", [ref.write()], flops=1.0)
        second = SoAProgram.for_program(program)
        assert second is not first
        assert second.n_tasks == 2

    def test_wide_task_beyond_workers_raises(self):
        program = Program("wide")
        ref = program.registry.alloc("T", 64, key=("T", 0))
        program.add_task("DGEMM", [ref.write()], flops=1.0).width = 8
        models = synthetic_models(program)
        # Worded differently by the core and the object engine, which an
        # array request without the core falls back to.
        with pytest.raises(ValueError, match="requires 8 workers"):
            simulate(
                program,
                make_scheduler("quark", 4),
                models,
                seed=0,
                engine_backend="array",
            )


@requires_core
class TestColumnTrace:
    def _array_trace(self):
        program = cholesky_program(4, 100)
        models = synthetic_models(program)
        return simulate(
            program,
            make_scheduler("quark", 8),
            models,
            seed=5,
            engine_backend="array",
        ), len(program)

    def test_lazy_columns_serve_len_and_makespan(self):
        trace, n_tasks = self._array_trace()
        assert isinstance(trace, ColumnTrace)
        assert trace._cols is not None  # not yet materialized
        assert len(trace) == n_tasks
        assert trace.makespan > 0.0
        assert trace._cols is not None  # still lazy after both reads

    def test_materialized_events_are_plain_python(self):
        trace, n_tasks = self._array_trace()
        events = trace.events
        assert len(events) == n_tasks
        for e in events[:10]:
            assert type(e.task_id) is int
            assert type(e.worker) is int
            assert type(e.start) is float
            assert type(e.end) is float


# -- calibrated model sets (repro.calib) ------------------------------------
class TestCalibratedModels:
    """The calibration layer must not break the headline byte-identity.

    Mixture/KDE models sample via one inverse-CDF draw per task
    (``rng_use == "other"``), which keeps the calibrated model set
    non-batchable and without closed-form transforms — array requests run
    on the object engine and its per-call DirectSampler, so byte identity
    has to hold with no engine-side special cases.
    """

    @pytest.fixture(scope="class")
    def calibrated(self):
        from repro.calib import fit_from_samples
        from repro.machine import collect_samples

        program = cholesky_program(6, 200)
        trace = run_real(
            program, make_scheduler("quark", 16), "magny_cours_48", seed=3
        )
        document = fit_from_samples(collect_samples(trace))
        return program, document

    def test_refit_selects_nontrivial_families(self, calibrated):
        _, document = calibrated
        models = document.to_model_set()
        assert models.family == "calibrated"
        # Noisy-machine samples must not all collapse to constants, and the
        # set must refuse batch sampling (that is what keeps the engines on
        # the shared per-call path).
        assert any(f.family != "constant" for f in document.kernels.values())
        assert not models.batchable

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_array_identical_to_object_under_calibration(
        self, calibrated, scheduler, core_variant
    ):
        program, document = calibrated
        traces = {}
        for backend in ENGINE_BACKENDS:
            traces[backend] = simulate(
                program,
                make_scheduler(scheduler, 16),
                document.to_model_set(),
                seed=99,
                warmup_penalty=1e-3,
                engine_backend=backend,
            )
        assert dumps_trace(traces["object"]) == dumps_trace(traces["array"])

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_refit_reproduces_makespan_within_5_percent(self, scheduler):
        # The differential claim behind ``sweep --calibration``: models
        # refit from a run's own samples must predict that workload's
        # makespan inside the paper's 5% accuracy band, on every scheduler.
        from repro.calib import fit_from_samples
        from repro.machine import collect_samples, get_machine

        machine = get_machine("magny_cours_48")
        program = cholesky_program(8, 200)
        real = run_real(program, make_scheduler(scheduler, 16), machine, seed=11)
        models = fit_from_samples(collect_samples(real)).to_model_set()
        sims = [
            simulate(
                program,
                make_scheduler(scheduler, 16),
                models,
                seed=12 + s,
                warmup_penalty=machine.warmup_penalty,
            ).makespan
            for s in range(3)  # mean-of-3, like the portfolio oracle
        ]
        sim = sum(sims) / len(sims)
        err = abs(sim - real.makespan) / real.makespan
        assert err < 0.05, f"{scheduler}: calibrated sim off by {err * 100:.2f}%"
