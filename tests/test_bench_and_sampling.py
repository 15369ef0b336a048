"""Tests for the benchmark subsystem and the batched duration sampler.

The sampling tests enforce the contract the whole optimization pass rests
on: for a fixed seed, the batched sampler's draw sequence is *bit-identical*
to per-call sampling, and therefore optimized `simulate()` traces are
byte-identical to the reference path.  The golden-digest test extends that
guarantee across commits: the digests in ``tests/data/preopt_trace_digests.json``
were captured from the pre-optimization simulator.
"""

import hashlib
import itertools
import json
import types
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import cholesky_program, qr_program
from repro.bench import (
    BENCH_SCHEMA,
    BenchReport,
    BenchResult,
    compare_reports,
    default_suite,
    run_benchmark,
    run_suite,
    synthetic_models,
)
from repro.core.simbackend import SimulationBackend
from repro.core.simulator import run_real, simulate
from repro.kernels.distributions import (
    ConstantModel,
    GammaModel,
    LognormalModel,
    NormalModel,
)
from repro.kernels.timing import BatchedNormalSampler, DirectSampler, KernelModelSet
from repro.schedulers import make_scheduler
from repro.trace.compare import compare_traces
from repro.trace.textio import dumps_trace

DATA = Path(__file__).parent / "data"


def _normal_models() -> KernelModelSet:
    return KernelModelSet(
        models={
            "A": LognormalModel(mu_log=-9.0, sigma_log=0.1),
            "B": NormalModel(mu=2e-4, sigma=1e-5),
            "C": ConstantModel(value=5e-5),
            "D": LognormalModel(mu_log=-8.0, sigma_log=0.2),
        },
        family="mixed",
    )


class TestBatchedSampler:
    def test_batchable_classification(self):
        assert _normal_models().batchable
        with_gamma = KernelModelSet(
            models={
                "A": NormalModel(mu=1e-4, sigma=1e-5),
                "G": GammaModel(shape=4.0, scale=1e-5),
            },
            family="mixed",
        )
        assert not with_gamma.batchable
        assert isinstance(with_gamma.make_sampler(np.random.default_rng(0)), DirectSampler)
        assert isinstance(_normal_models().make_sampler(np.random.default_rng(0)), BatchedNormalSampler)

    def test_batched_flag_forces_direct(self):
        sampler = _normal_models().make_sampler(np.random.default_rng(0), batched=False)
        assert isinstance(sampler, DirectSampler)

    @pytest.mark.parametrize("seed", [0, 1, 1234, 999])
    def test_draw_sequences_bit_identical(self, seed):
        """Property: batched and direct sampling yield the same floats.

        The kernel sequence interleaves all four model kinds (including the
        rng-free ConstantModel) and crosses several refill boundaries.
        """
        models = _normal_models()
        rng = np.random.default_rng(seed)
        kernels = [["A", "B", "C", "D"][int(rng.integers(4))] for _ in range(2000)]

        direct = models.make_sampler(np.random.default_rng(seed), batched=False)
        batched = models.make_sampler(np.random.default_rng(seed))
        assert isinstance(batched, BatchedNormalSampler)
        for kernel in kernels:
            assert direct.draw(kernel) == batched.draw(kernel)

    def test_unknown_kernel_raises(self):
        sampler = _normal_models().make_sampler(np.random.default_rng(0))
        with pytest.raises(KeyError, match="no timing model"):
            sampler.draw("NOPE")

    def test_small_block_refills(self):
        models = KernelModelSet(
            models={"A": LognormalModel(mu_log=-9.0, sigma_log=0.1)}, family="lognormal"
        )
        batched = BatchedNormalSampler(models.models, np.random.default_rng(7), block=3)
        direct = models.make_sampler(np.random.default_rng(7), batched=False)
        for _ in range(20):
            assert batched.draw("A") == direct.draw("A")

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchedNormalSampler({}, np.random.default_rng(0), block=0)


class TestTraceEquivalence:
    @pytest.mark.parametrize("scheduler", ["quark", "starpu", "ompss"])
    def test_batched_vs_direct_traces_identical(self, scheduler):
        program = cholesky_program(8, 200)
        models = synthetic_models(program)
        traces = []
        for batched in (True, False):
            sched = make_scheduler(scheduler, 16)
            backend = SimulationBackend(models, warmup_penalty=1e-3, batched=batched)
            trace = sched.run(program, backend, seed=1234, trace_meta={"mode": "simulated"})
            traces.append(trace)
        assert dumps_trace(traces[0]) == dumps_trace(traces[1])
        assert compare_traces(traces[0], traces[1]).abs_error_percent == 0.0

    def test_golden_digests_from_pre_optimization_commit(self):
        """Optimized runs reproduce pre-optimization traces byte-for-byte."""
        golden = json.loads((DATA / "preopt_trace_digests.json").read_text())
        digests = golden["digests"]
        for algorithm, gen in (("cholesky", cholesky_program), ("qr", qr_program)):
            program = gen(8, 200)
            models = synthetic_models(program)
            for scheduler in ("quark", "starpu", "ompss"):
                sim_trace = simulate(
                    program,
                    make_scheduler(scheduler, 16),
                    models,
                    seed=1234,
                    warmup_penalty=1e-3,
                )
                got = hashlib.sha256(dumps_trace(sim_trace).encode()).hexdigest()
                assert got == digests[f"sim/{algorithm}/{scheduler}/nt8"], (
                    f"simulated trace drifted: {algorithm}/{scheduler}"
                )
                real_trace = run_real(
                    program, make_scheduler(scheduler, 16), "magny_cours_48", seed=77
                )
                got = hashlib.sha256(dumps_trace(real_trace).encode()).hexdigest()
                assert got == digests[f"real/{algorithm}/{scheduler}/nt8"], (
                    f"real-mode trace drifted: {algorithm}/{scheduler}"
                )


class TestBenchHarness:
    def test_run_benchmark_records_best_and_mean(self):
        calls = []

        def fn():
            calls.append(1)

        result = run_benchmark("t/x", fn, group="micro", ops=10, unit="ops/s", repeats=3, warmup=1)
        assert len(calls) == 4  # warmup + repeats
        assert result.repeats == 3
        assert len(result.all_wall_s) == 3
        assert result.wall_s == min(result.all_wall_s)
        assert result.ops_per_s == pytest.approx(10 / result.wall_s)

    def test_ops_override_from_fn(self):
        result = run_benchmark("t/y", lambda: 42, group="micro", ops=1, unit="events/s", repeats=2)
        assert result.ops == 42

    def test_report_roundtrip_and_schema(self, tmp_path):
        report = BenchReport(label="test")
        report.add(
            BenchResult(
                name="a", group="micro", ops=5, unit="ops/s", repeats=1,
                wall_s=0.5, ops_per_s=10.0, mean_wall_s=0.5, all_wall_s=[0.5],
            )
        )
        path = report.write_json(tmp_path / "b.json")
        loaded = BenchReport.read_json(path)
        assert loaded.to_dict()["schema"] == BENCH_SCHEMA
        assert loaded.by_name()["a"].ops_per_s == 10.0

        doc = json.loads(Path(path).read_text())
        doc["schema"] = "something/else"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            BenchReport.read_json(bad)

    def test_default_suite_composition(self):
        quick = default_suite(quick=True)
        full = default_suite()
        names_quick = {s.name for s in quick}
        names_full = {s.name for s in full}
        assert "micro/teq-push-pop" in names_quick
        assert "macro/simulate/cholesky-nt28/quark" in names_full
        assert names_quick < names_full

    def test_run_suite_filter_and_no_match(self):
        specs = default_suite(quick=True)
        with pytest.raises(ValueError, match="no benchmarks match"):
            run_suite(specs, only=["nothing/*"])

        for spec in specs:
            spec.repeats = 1
        report = run_suite(specs, only=["micro/hazard*"], label="t")
        assert [r.name for r in report.results] == ["micro/hazard-tracking"]


class TestBenchGate:
    def _report(self, throughput):
        report = BenchReport(label="x")
        for name, ops_per_s in throughput.items():
            report.add(
                BenchResult(
                    name=name, group="macro", ops=1, unit="tasks/s", repeats=1,
                    wall_s=1.0, ops_per_s=ops_per_s, mean_wall_s=1.0, all_wall_s=[1.0],
                )
            )
        return report

    def test_regression_detected(self):
        baseline = self._report({"a": 100.0, "b": 100.0})
        fresh = self._report({"a": 95.0, "b": 60.0})  # b lost 40% > 30%
        gate = compare_reports(baseline, fresh, max_regression=0.30)
        assert not gate.ok
        assert [d.name for d in gate.regressions] == ["b"]
        assert "REGRESSED" in gate.table()

    def test_within_threshold_passes(self):
        gate = compare_reports(
            self._report({"a": 100.0}), self._report({"a": 75.0}), max_regression=0.30
        )
        assert gate.ok

    def test_new_benchmarks_never_fail(self):
        gate = compare_reports(
            self._report({"a": 100.0}),
            self._report({"a": 100.0, "new": 1.0}),
            max_regression=0.30,
        )
        assert gate.ok
        statuses = {d.name: d.status for d in gate.deltas}
        assert statuses == {"a": "compared", "new": "new"}

    def test_truncated_fresh_report_fails_gate(self):
        # A fresh report missing a baseline suite (crashed/truncated bench
        # run) must fail the gate by name, not silently pass.
        gate = compare_reports(
            self._report({"a": 100.0, "b": 100.0}),
            self._report({"a": 100.0}),
            max_regression=0.30,
        )
        assert not gate.ok
        assert [d.name for d in gate.missing] == ["b"]
        assert not gate.regressions
        table = gate.table()
        assert "MISSING" in table
        assert "b" in table.splitlines()[-1]

    def test_only_scopes_missing_check(self):
        # Baseline suites outside the --only patterns are intentionally
        # unselected, not missing.
        baseline = self._report({"micro/x": 100.0, "macro/y": 100.0})
        fresh = self._report({"micro/x": 100.0})
        gate = compare_reports(baseline, fresh, max_regression=0.30, only=["micro/*"])
        assert gate.ok
        assert [d.name for d in gate.deltas] == ["micro/x"]

    def test_threshold_validated(self):
        report = self._report({"a": 1.0})
        with pytest.raises(ValueError):
            compare_reports(report, report, max_regression=0.0)
        with pytest.raises(ValueError):
            compare_reports(report, report, max_regression=1.0)


class TestBenchCli:
    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        from repro.cli import main

        assert main([]) == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_bench_writes_schema_tagged_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_test.json"
        code = main(
            ["bench", "--quick", "--only", "micro/hazard*", "--repeats", "1",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["results"][0]["name"] == "micro/hazard-tracking"
        assert "env" in doc

    def test_bench_gate_fails_on_artificial_slowdown(self, tmp_path, capsys, monkeypatch):
        from repro.bench import harness
        from repro.cli import main

        def fake_clock(step):
            # Every reading advances by ``step``, so each timed repeat
            # measures exactly ``step`` seconds whatever the work cost.
            ticks = itertools.count()
            return types.SimpleNamespace(perf_counter=lambda: next(ticks) * step)

        baseline = tmp_path / "baseline.json"
        monkeypatch.setattr(harness, "time", fake_clock(1.0))
        assert main(
            ["bench", "--quick", "--only", "micro/hazard*", "--repeats", "1",
             "--out", str(baseline)]
        ) == 0
        monkeypatch.setattr(harness, "time", fake_clock(2.0))  # exactly 2x slower
        code = main(
            ["bench", "--quick", "--only", "micro/hazard*", "--repeats", "1",
             "--compare", str(baseline)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_unknown_filter_exits_2(self, capsys):
        from repro.cli import main

        assert main(["bench", "--quick", "--only", "zzz/*"]) == 2


class TestSweepTransforms:
    def test_kinds_and_parameters(self):
        from repro.kernels.timing import SWEEP_CONST, SWEEP_LOGNORMAL, SWEEP_NORMAL

        transforms = _normal_models().sweep_transforms()
        assert transforms["A"] == (SWEEP_LOGNORMAL, -9.0, 0.1)
        assert transforms["B"] == (SWEEP_NORMAL, 2e-4, 1e-5)
        kind, a, b = transforms["C"]
        assert (kind, a, b) == (SWEEP_CONST, 5e-5, 0.0)

    def test_transforms_match_from_standard_normal_bitwise(self):
        import math

        from repro.kernels.timing import SWEEP_CONST, SWEEP_LOGNORMAL, SWEEP_NORMAL

        models = _normal_models()
        transforms = models.sweep_transforms()
        zs = np.random.default_rng(9).standard_normal(256)
        for kernel, model in models.models.items():
            kind, a, b = transforms[kernel]
            for z in zs:
                z = float(z)
                if kind == SWEEP_CONST:
                    expected = model.sample(np.random.default_rng(0))
                    assert a == expected
                    continue
                d = a + b * z
                if kind == SWEEP_LOGNORMAL:
                    d = math.exp(d)
                d = max(d, 1e-9)
                assert d == model.from_standard_normal(z), (kernel, z)

    def test_unsupported_model_disqualifies(self):
        with_gamma = KernelModelSet(
            models={"A": GammaModel(shape=2.0, scale=1e-4)}, family="gamma"
        )
        assert with_gamma.sweep_transforms() is None

    def test_subclass_disqualifies(self):
        class Tweaked(LognormalModel):
            def from_standard_normal(self, z: float) -> float:
                return 1.0

        subclassed = KernelModelSet(
            models={"A": Tweaked(mu_log=-9.0, sigma_log=0.1)}, family="lognormal"
        )
        assert subclassed.sweep_transforms() is None


class TestBenchTrend:
    def _report(self, throughput, label="run"):
        report = BenchReport(label=label)
        for name, ops_per_s in throughput.items():
            report.add(
                BenchResult(
                    name=name, group="micro", ops=1, unit="events/s", repeats=1,
                    wall_s=1.0, ops_per_s=ops_per_s, mean_wall_s=1.0, all_wall_s=[1.0],
                )
            )
        return report

    def test_append_and_load_round_trip(self, tmp_path):
        from repro.bench import TREND_SCHEMA, append_history, load_history

        history = tmp_path / "hist.jsonl"
        entry = append_history(
            self._report({"micro/x": 100.0}), history, meta={"commit": "abc"}
        )
        append_history(self._report({"micro/x": 120.0}), history)
        assert entry["schema"] == TREND_SCHEMA
        assert entry["meta"] == {"commit": "abc"}
        loaded = load_history(history)
        assert len(loaded) == 2
        assert loaded[0]["results"]["micro/x"]["ops_per_s"] == 100.0
        assert loaded[1]["results"]["micro/x"]["ops_per_s"] == 120.0

    def test_load_skips_corrupt_and_foreign_lines(self, tmp_path):
        from repro.bench import append_history, load_history

        history = tmp_path / "hist.jsonl"
        append_history(self._report({"micro/x": 100.0}), history)
        with history.open("a") as fh:
            fh.write("{truncated\n")
            fh.write('{"schema": "something.else/v9"}\n')
            fh.write("[1, 2, 3]\n")
        append_history(self._report({"micro/x": 110.0}), history)
        loaded = load_history(history)
        assert [e["results"]["micro/x"]["ops_per_s"] for e in loaded] == [100.0, 110.0]

    def test_missing_history_is_empty(self, tmp_path):
        from repro.bench import load_history

        assert load_history(tmp_path / "absent.jsonl") == []

    def test_trend_table_deltas(self, tmp_path):
        from repro.bench import append_history, load_history, trend_table

        history = tmp_path / "hist.jsonl"
        append_history(self._report({"micro/x": 100.0, "micro/gone": 50.0}), history)
        fresh = self._report({"micro/x": 150.0, "micro/new": 10.0})
        table = trend_table(load_history(history), fresh)
        lines = {line.split(" | ")[0].strip("| "): line for line in table.splitlines()}
        assert "+50.0%" in lines["micro/x"]
        assert "| new |" in lines["micro/new"]
        assert "| gone |" in lines["micro/gone"]

    def test_trend_table_with_empty_history(self):
        from repro.bench import trend_table

        table = trend_table([], self._report({"micro/x": 100.0}))
        assert "| micro/x | - | 100 events/s | new |" in table

    def test_bench_trend_cli(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "BENCH.json"
        self._report({"micro/x": 100.0}).write_json(report_path)
        history = tmp_path / "hist.jsonl"
        summary = tmp_path / "summary.md"
        assert main(
            ["bench-trend", "--report", str(report_path),
             "--history", str(history), "--meta", "commit=abc"]
        ) == 0
        out = capsys.readouterr().out
        assert "| micro/x |" in out
        assert "1 run(s)" in out
        # Second run writes the table to the summary file instead.
        assert main(
            ["bench-trend", "--report", str(report_path),
             "--history", str(history), "--summary", str(summary)]
        ) == 0
        assert "+0.0%" in summary.read_text()
        assert main(
            ["bench-trend", "--report", str(tmp_path / "nope.json"),
             "--history", str(history)]
        ) == 2
        assert main(
            ["bench-trend", "--report", str(report_path),
             "--history", str(history), "--meta", "notakv"]
        ) == 2
