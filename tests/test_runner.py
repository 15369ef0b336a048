"""Tests for the parallel sweep runner: specs, cache, metrics, determinism."""

import json
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.core.metrics import METRICS_SCHEMA, RunMetrics
from repro.core.task import TaskSpec
from repro.core.threaded import ThreadedRuntime
from repro.algorithms import cholesky_program
from repro.runner import spec as spec_mod
from repro.runner import (
    ProgramSpec,
    ResultCache,
    RunSpec,
    SchedulerSpec,
    execute_spec,
    partition_cache_dir,
    run_cached,
    sweep,
)


def _spec(nt=4, seed=0, mode="real", scheduler="quark", **kwargs):
    n_workers = 48 if scheduler == "quark" else 47
    sched_kwargs = {"policy": "prio"} if scheduler == "starpu" else {}
    return RunSpec(
        program=ProgramSpec("cholesky", nt, 100),
        scheduler=SchedulerSpec(scheduler, n_workers, **sched_kwargs),
        machine="magny_cours_48",
        seed=seed,
        mode=mode,
        **({"cal_nt": 4} if mode == "simulated" else {}),
        **kwargs,
    )


class TestSpecs:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            ProgramSpec("lu_pp", 4, 100)

    def test_cache_key_stable(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_cache_key_sensitive_to_every_param(self):
        base = _spec().cache_key()
        assert _spec(nt=5).cache_key() != base
        assert _spec(seed=1).cache_key() != base
        assert _spec(scheduler="starpu").cache_key() != base
        assert _spec(mode="simulated").cache_key() != base

    def test_real_key_ignores_calibration_fields(self):
        # Calibration settings do not affect a real run, so they must not
        # fragment the cache.
        a = _spec(mode="real")
        b = RunSpec(
            program=a.program, scheduler=a.scheduler, machine=a.machine,
            seed=a.seed, mode="real", cal_nt=8, cal_seed=7, family="gamma",
        )
        assert a.cache_key() == b.cache_key()

    def test_calibration_spec_is_real(self):
        cal = _spec(mode="simulated").calibration_spec()
        assert cal.mode == "real"
        assert cal.program.nt == 4

    def test_threaded_runtime_requires_simulated(self):
        with pytest.raises(ValueError, match="simulated"):
            _spec(mode="real", runtime="threaded")

    def test_threaded_spec_validates_guard_and_policy(self):
        with pytest.raises(ValueError, match="race guard"):
            _spec(mode="simulated", runtime="threaded", guard="mutex")
        with pytest.raises(ValueError, match="on_stall"):
            _spec(mode="simulated", runtime="threaded", on_stall="retry")
        with pytest.raises(ValueError, match="stall_timeout"):
            _spec(mode="simulated", runtime="threaded", stall_timeout=-1.0)
        with pytest.raises(ValueError, match="runtime"):
            _spec(runtime="hybrid")

    def test_threaded_key_includes_guard_but_not_stall_policy(self):
        base = _spec(mode="simulated", runtime="threaded")
        assert base.cache_key() != _spec(mode="simulated").cache_key()
        assert base.cache_key() != _spec(
            mode="simulated", runtime="threaded", guard="none"
        ).cache_key()
        # The watchdog never alters a successful trace: inert for identity.
        assert base.cache_key() == _spec(
            mode="simulated", runtime="threaded",
            stall_timeout=5.0, on_stall="recover",
        ).cache_key()

    # Keys computed before the engine_mode field was retired: stored
    # spec.json files, request logs and caches must keep resolving.
    PINNED_KEYS = (
        (
            RunSpec(
                ProgramSpec("cholesky", 6, 200), SchedulerSpec("quark", 8),
                machine="magny_cours_48", seed=3, mode="simulated", cal_nt=4,
            ),
            "392691c7e484d4e679ea5dba6f12b61a400493ee60184db8b0a02b9fbd165817",
        ),
        (
            RunSpec(
                ProgramSpec("qr", 4, 200), SchedulerSpec("starpu", 8, policy="dmda"),
                machine="magny_cours_48", seed=5, mode="real",
            ),
            "ec7e7372eaab66d77c451dfb130d97d31826038540039599bf19ca840908a8c8",
        ),
    )

    @pytest.mark.parametrize("spec, key", PINNED_KEYS, ids=["cholesky-sim", "qr-dmda-real"])
    def test_cache_key_backward_compatible(self, spec, key):
        assert spec.cache_key() == key
        legacy = {**spec.to_dict(), "engine_mode": "serialized"}
        assert RunSpec.from_dict(legacy) == spec
        assert RunSpec.from_dict(legacy).cache_key() == key

    @pytest.mark.parametrize("mode", ["multicell", "auto", "turbo"])
    def test_from_dict_rejects_removed_engine_modes(self, mode):
        doc = {**_spec().to_dict(), "engine_mode": mode}
        with pytest.raises(ValueError, match="partitioned engine modes were removed"):
            RunSpec.from_dict(doc)
        assert doc["engine_mode"] == mode  # the caller's document is not mutated

    @pytest.mark.parametrize(
        "field, value",
        [("nt", 6.0), ("nb", 200.0), ("panel_width", 1.0), ("nt", True), ("cal_nt", 4.0)],
    )
    def test_program_sizes_must_be_plain_ints(self, field, value):
        doc = self.PINNED_KEYS[0][0].to_dict()
        (doc if field == "cal_nt" else doc["program"])[field] = value
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            RunSpec.from_dict(doc)
        from repro.service import RunRequest

        with pytest.raises(ValueError, match="invalid spec"):
            RunRequest.from_document({"spec": doc})

    def test_rejected_float_spec_leaves_the_int_key_intact(self, generator_calls):
        # 200.0 == 200 and hashes alike, so a float spec that reached the
        # memos would set the program and key of the int spec too.
        spec, key = self.PINNED_KEYS[0]
        doc = spec.to_dict()
        doc["program"]["nb"] = 200.0
        with pytest.raises(TypeError):
            RunSpec.from_dict(doc)
        assert generator_calls == {}
        assert spec.cache_key() == key
        assert spec.program.build().name == "cholesky[nt=6,nb=200]"

    def test_engine_key_ignores_guard(self):
        # The race guard only exists on the threaded runtime.
        assert _spec().cache_key() == _spec(guard="none").cache_key()

    def test_stall_policy_helper(self):
        spec = _spec(
            mode="simulated", runtime="threaded",
            stall_timeout=7.5, on_stall="recover",
        )
        policy = spec.stall_policy()
        assert policy.timeout_s == 7.5
        assert policy.on_stall == "recover"


def _run_threads(target, n: int) -> list:
    """Run ``target(i)`` on ``n`` threads with a short switch interval, so
    unsynchronised updates interleave; returns the failures (exceptions,
    and threads still running after the timeout)."""
    failures = []

    def guarded(i):
        try:
            target(i)
        except Exception as exc:  # reported to the test, not swallowed
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    return failures + [f"{t.name} still running" for t in threads if t.is_alive()]


@pytest.fixture
def generator_calls(monkeypatch):
    """Cold program and digest memos, and a counter of generator calls keyed
    by ``(algorithm, nt)``; the memos are emptied again afterwards, so no
    test sees programs another test built."""

    def clear():
        spec_mod._PROGRAMS.clear()
        spec_mod._program_digest.cache_clear()

    calls = Counter()
    for name, gen in list(spec_mod._GENERATORS.items()):
        def counted(nt, *args, _gen=gen, _name=name, **kwargs):
            calls[(_name, nt)] += 1
            return _gen(nt, *args, **kwargs)

        monkeypatch.setitem(spec_mod._GENERATORS, name, counted)
    clear()
    yield calls
    clear()


class TestProgramMemo:
    """Each program is built and hashed once per process (counted, not timed)."""

    def test_new_seeds_build_main_and_calibration_program_once(
        self, tmp_path, generator_calls
    ):
        cache = ResultCache(tmp_path)
        for seed in range(5):
            result = run_cached(_spec(nt=6, mode="simulated", seed=seed), cache)
            assert not result.cached
        assert generator_calls == {("cholesky", 6): 1, ("cholesky", 4): 1}

    def test_warm_key_runs_no_generator(self, generator_calls):
        spec = _spec(nt=6, mode="simulated")
        key = spec.cache_key()
        generator_calls.clear()
        assert spec.cache_key() == key
        # The digest memo keeps keys cheap after the programs are evicted.
        spec_mod._PROGRAMS.clear()
        assert _spec(nt=6, mode="simulated").cache_key() == key
        assert generator_calls == {}

    def test_build_is_shared_and_sealed(self, generator_calls):
        program = ProgramSpec("cholesky", 5, 100).build()
        assert program is ProgramSpec("cholesky", 5, 100).build()
        assert program.sealed
        n = len(program)
        with pytest.raises(RuntimeError, match="sealed"):
            program.add(TaskSpec("DGEMM", ()))
        assert len(program) == n
        assert generator_calls == {("cholesky", 5): 1}

    def test_concurrent_cold_builds_run_one_generator_call(
        self, monkeypatch, generator_calls
    ):
        counted = spec_mod._GENERATORS["cholesky"]

        def slow(*args, **kwargs):
            time.sleep(0.05)  # keep the first build open while the others arrive
            return counted(*args, **kwargs)

        monkeypatch.setitem(spec_mod._GENERATORS, "cholesky", slow)
        spec = ProgramSpec("cholesky", 7, 100)
        start = threading.Barrier(8)
        built = []

        def worker(i):
            start.wait(timeout=10)
            built.append(spec.build())

        assert _run_threads(worker, 8) == []
        assert len(built) == 8
        assert len({id(p) for p in built}) == 1
        assert generator_calls == {("cholesky", 7): 1}

    def test_concurrent_builds_under_eviction_keep_the_task_count(
        self, monkeypatch, generator_calls
    ):
        memo = spec_mod._PROGRAMS
        monkeypatch.setattr(memo, "budget", 100)  # a few nt=5..8 programs
        specs = [ProgramSpec("cholesky", nt, 50) for nt in (5, 6, 7, 8)]

        def worker(i):
            for j in range(40):
                program = specs[(i + j * 3) % len(specs)].build()
                assert program.sealed

        assert _run_threads(worker, 8) == []
        held = list(memo._programs.values())
        assert memo.tasks == sum(len(p) for p in held)
        assert memo.tasks <= 100 or len(held) == 1

    def test_memo_stays_within_its_task_budget(self, generator_calls):
        memo, budget = spec_mod._PROGRAMS, spec_mod._PROGRAM_MEMO_TASKS
        # Cholesky nt: 4,960 / 11,480 / 22,100 / 1,540 / 37,820 / 220 tasks.
        for nt in (30, 40, 50, 20, 60, 10, 40):
            program = ProgramSpec("cholesky", nt, 50).build()
            held = list(memo._programs.values())
            assert memo.tasks == sum(len(p) for p in held)
            assert held[-1] is program  # the newest always stays
            assert memo.tasks <= budget or len(held) == 1
        # The nt=60 program alone is over budget: it was held by itself,
        # then evicted by the next build.
        assert len(ProgramSpec("cholesky", 60, 50).build()) == 37_820
        assert len(memo) == 1

    def test_forked_sweep_workers_inherit_built_programs(
        self, monkeypatch, generator_calls
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers inherit memos only when forked")
        parent = os.getpid()
        for name, gen in list(spec_mod._GENERATORS.items()):
            def parent_only(*args, _gen=gen, **kwargs):
                assert os.getpid() == parent, "a sweep worker built a program"
                return _gen(*args, **kwargs)

            monkeypatch.setitem(spec_mod._GENERATORS, name, parent_only)
        specs = [_spec(nt=6, mode="simulated", seed=seed) for seed in range(4)]
        result = sweep(specs, jobs=2)
        assert result.cache_misses == len(specs)
        assert generator_calls == {("cholesky", 6): 1, ("cholesky", 4): 1}

    def test_least_recently_used_program_is_evicted_first(self, generator_calls):
        a, b, c = (ProgramSpec("cholesky", nt, 50) for nt in (30, 40, 50))
        a.build()
        b.build()
        a.build()  # a is now more recent than b
        c.build()  # 4,960 + 11,480 + 22,100 > budget: b goes
        generator_calls.clear()
        a.build()
        assert generator_calls == {}
        b.build()
        assert generator_calls == {("cholesky", 40): 1}


class TestPartitionNaming:
    def test_int_and_str_ids_map_to_one_partition(self, tmp_path):
        # Regression: `5` used to format as shard-05 but `"5"` as shard-5,
        # silently splitting one logical shard into two disjoint partitions.
        assert partition_cache_dir(tmp_path, 5) == partition_cache_dir(tmp_path, "5")
        assert partition_cache_dir(tmp_path, 5).name == "shard-05"
        assert partition_cache_dir(tmp_path, "05") == partition_cache_dir(tmp_path, 5)

    def test_wide_ids_agree_without_truncation(self, tmp_path):
        assert partition_cache_dir(tmp_path, 123) == partition_cache_dir(tmp_path, "123")
        assert partition_cache_dir(tmp_path, 123).name == "shard-123"

    def test_non_numeric_string_ids_used_verbatim(self, tmp_path):
        assert partition_cache_dir(tmp_path, "canary").name == "shard-canary"

    def test_invalid_ids_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="bool"):
            partition_cache_dir(tmp_path, True)
        with pytest.raises(ValueError, match="non-negative"):
            partition_cache_dir(tmp_path, -1)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        assert spec.cache_key() not in cache
        run_cached(spec, cache)
        run_cached(spec, cache)
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) >= 1

    def test_param_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cached(_spec(), cache)
        run_cached(_spec(seed=1), cache)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_cached_trace_identical_to_fresh(self, tmp_path):
        from repro.trace.textio import dumps_trace

        spec = _spec()
        fresh, _ = execute_spec(spec)
        cached = run_cached(spec, ResultCache(tmp_path)).load_trace()
        assert dumps_trace(cached) == dumps_trace(fresh)

    def test_entry_files_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_cached(_spec(), cache)
        assert result.trace_path is not None
        entry = cache.get(_spec().cache_key())
        assert entry.trace_path.exists()
        assert entry.metrics_path.exists()
        spec_dict = entry.load_spec_dict()
        assert spec_dict["program"]["algorithm"] == "cholesky"
        payload = json.loads(entry.metrics_path.read_text())
        assert payload["schema"] == METRICS_SCHEMA

    def test_partial_entry_recomputed_and_replaced(self, tmp_path):
        # A stale entry directory missing its trace (interrupted writer,
        # manual deletion) must be treated as a miss and overwritten.
        cache = ResultCache(tmp_path)
        entry = run_cached(_spec(), cache)
        ResultCache(tmp_path).get(_spec().cache_key()).trace_path.unlink()
        healed = run_cached(_spec(), ResultCache(tmp_path))
        assert not healed.cached
        assert healed.trace_dump() == entry.trace_dump()
        assert _spec().cache_key() in ResultCache(tmp_path)

    def test_truncated_entry_invisible_to_entries_and_len(self, tmp_path):
        # Regression: an entry missing its metrics file counts as a miss in
        # get(), so entries()/len() must not report it either — they used
        # to require only the trace file, making len(cache) disagree with
        # what lookups could see and handing out entries whose
        # load_metrics() would blow up.
        cache = ResultCache(tmp_path)
        run_cached(_spec(), cache)
        run_cached(_spec(seed=1), cache)
        assert len(cache) == 2

        victim = cache.get(_spec().cache_key())
        victim.metrics_path.unlink()  # hand-truncated entry: trace only

        fresh = ResultCache(tmp_path)
        assert fresh.get(_spec().cache_key()) is None  # miss, as before
        assert len(fresh) == 1
        listed = list(fresh.entries())
        assert [e.key for e in listed] == [_spec(seed=1).cache_key()]
        for entry in listed:
            entry.load_metrics()  # every listed entry is fully loadable

    def test_corrupt_trace_is_a_miss_and_republished(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(seed=41)
        published = run_cached(spec, cache).trace_dump()
        entry = cache.get(spec.cache_key())
        data = bytearray(entry.trace_path.read_bytes())
        data[len(data) // 2] ^= 0x01  # flip one bit of one byte
        entry.trace_path.write_bytes(bytes(data))

        fresh = ResultCache(tmp_path)
        assert fresh.get(spec.cache_key()) is None
        assert fresh.corrupt == 1 and fresh.misses == 1 and fresh.hits == 0
        assert not entry.path.exists()  # removed, not served again
        healed = run_cached(spec, fresh)
        assert not healed.cached
        assert healed.trace_dump() == published
        assert run_cached(spec, fresh).cached
        assert fresh.corrupt == 1

    def test_hit_serves_the_verified_bytes(self, tmp_path):
        from repro.trace.textio import dumps_trace

        cache = ResultCache(tmp_path)
        spec = _spec(seed=43)
        published = run_cached(spec, cache).trace_dump()
        hit = run_cached(spec, cache)
        assert hit.cached
        # The trace was read once, to verify it; what is served is that read,
        # not a later one of a file that may have changed since.
        hit_path = cache.get(spec.cache_key()).trace_path
        hit_path.write_text("altered after the check\n")
        assert hit.trace_dump() == published
        assert dumps_trace(hit.load_trace()) == published

    def test_entry_without_digest_is_republished_once(self, tmp_path):
        # Entries published before the digest sidecar existed.
        cache = ResultCache(tmp_path)
        spec = _spec(seed=42)
        published = run_cached(spec, cache).trace_dump()
        (cache.get(spec.cache_key()).path / "trace.sha256").unlink()

        fresh = ResultCache(tmp_path)
        assert fresh.get(spec.cache_key()) is None
        assert fresh.corrupt == 0
        assert len(fresh) == 0
        healed = run_cached(spec, fresh)
        assert not healed.cached and healed.trace_dump() == published
        assert run_cached(spec, fresh).cached

    def test_clear_removes_partial_entries_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cached(_spec(), cache)
        run_cached(_spec(seed=1), cache)
        cache.get(_spec().cache_key()).metrics_path.unlink()
        assert len(cache) == 1
        assert cache.clear() == 2  # the partial directory is swept as well
        assert len(list(ResultCache(tmp_path)._entry_dirs())) == 0

    def test_simulated_run_caches_calibration(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cached(_spec(mode="simulated", seed=3), cache)
        # calibration (real) run + simulated run
        assert cache.misses == 2
        # A second simulated spec sharing cal settings hits the calibration.
        cache2 = ResultCache(tmp_path)
        run_cached(_spec(mode="simulated", seed=4), cache2)
        assert cache2.hits == 1  # the shared calibration run
        assert cache2.misses == 1


class TestMetrics:
    def test_engine_metrics_populated(self):
        _, metrics = execute_spec(_spec())
        assert metrics.events_processed > 0
        assert metrics.heap_pushes == metrics.heap_pops
        assert metrics.tasks_executed == metrics.n_tasks == 20  # nt=4 Cholesky
        assert metrics.peak_heap_depth > 0
        assert metrics.makespan > 0
        assert metrics.wall_time_s > 0

    def test_metrics_json_roundtrip(self, tmp_path):
        _, metrics = execute_spec(_spec())
        path = metrics.write_json(tmp_path / "m.json")
        back = RunMetrics.read_json(path)
        assert back.to_dict() == metrics.to_dict()

    def test_from_dict_rejects_foreign_schema_tag(self):
        # Feeding another artifact kind (here a sweep document) used to
        # produce a silently-default RunMetrics; now it is an error that
        # names both tags.
        with pytest.raises(ValueError, match=r"repro\.sweep/v1.*repro\.run_metrics/v1"):
            RunMetrics.from_dict({"schema": "repro.sweep/v1", "makespan": 1.0})

    def test_from_dict_rejects_missing_schema_tag(self):
        with pytest.raises(ValueError, match="schema tag None"):
            RunMetrics.from_dict({"makespan": 1.0})

    def test_from_dict_keeps_unknown_fields_with_warning(self):
        # Forward compat: a document written by a newer version must not
        # silently lose its extra fields on the way through this parser.
        doc = RunMetrics(makespan=2.5).to_dict()
        doc["added_in_v2"] = "future"
        with pytest.warns(UserWarning, match="added_in_v2"):
            back = RunMetrics.from_dict(doc)
        assert back.makespan == 2.5
        assert back.extra["unknown_fields"] == {"added_in_v2": "future"}

    def test_from_dict_does_not_mutate_caller_document(self):
        doc = RunMetrics(extra={"a": 1}).to_dict()
        doc["new_key"] = 7
        with pytest.warns(UserWarning):
            back = RunMetrics.from_dict(doc)
        assert doc["extra"] == {"a": 1}
        assert back.extra["a"] == 1
        assert back.extra["unknown_fields"] == {"new_key": 7}

    def test_summary_includes_teq_and_recovery_counters_when_nonzero(self):
        m = RunMetrics(teq_inserts=5, teq_pops=5, peak_teq_depth=3, stall_recoveries=2)
        line = m.summary()
        assert "teq 5i/5p peak 3" in line
        assert "recovered 2 stalls" in line

    def test_summary_omits_threaded_counters_for_engine_runs(self):
        line = RunMetrics(tasks_executed=4).summary()
        assert "teq" not in line
        assert "recovered" not in line

    def test_teq_metrics_via_threaded_runtime(self):
        metrics = RunMetrics()
        runtime = ThreadedRuntime(2, mode="simulate", guard="quiesce")
        from repro.kernels.timing import KernelModelSet
        from repro.machine.calibration import collect_samples

        trace, cal_metrics = execute_spec(_spec())
        models = KernelModelSet.from_samples(collect_samples(trace))
        runtime.run(cholesky_program(4, 100), models=models, seed=1, metrics=metrics)
        assert metrics.teq_inserts > 0
        assert metrics.teq_pops == metrics.teq_inserts
        assert metrics.peak_teq_depth >= 1


class TestSweep:
    def test_serial_parallel_traces_byte_identical(self, tmp_path):
        specs = [_spec(seed=s, scheduler=n)
                 for s in (0, 1) for n in ("quark", "starpu", "ompss")]
        serial = sweep(specs, jobs=1, cache=tmp_path / "a")
        parallel = sweep(specs, jobs=4, cache=tmp_path / "b")
        for rs, rp in zip(serial.results, parallel.results):
            assert rs.trace_dump() == rp.trace_dump()

    def test_repeat_sweep_reports_cache_hits(self, tmp_path):
        # Acceptance: an N-point grid rerun reports >= N-1 hits.
        specs = [_spec(nt=nt, seed=nt) for nt in (3, 4, 5, 6)]
        cold = sweep(specs, jobs=2, cache=tmp_path)
        assert cold.cache_hits == 0 and cold.cache_misses == len(specs)
        warm = sweep(specs, jobs=2, cache=tmp_path)
        assert warm.cache_hits >= len(specs) - 1
        assert warm.cache_misses == 0

    def test_results_in_spec_order(self, tmp_path):
        specs = [_spec(nt=nt) for nt in (6, 3, 5)]
        outcome = sweep(specs, jobs=3, cache=tmp_path)
        assert [r.spec.program.nt for r in outcome.results] == [6, 3, 5]

    def test_sim_specs_share_one_calibration_entry(self, tmp_path):
        specs = [_spec(mode="simulated", seed=s) for s in (10, 11)]
        sweep(specs, jobs=1, cache=tmp_path)
        # 2 simulated entries + ONE shared calibration entry, not two.
        assert len(ResultCache(tmp_path)) == 3

    def test_ephemeral_cache_traces_survive_cleanup(self):
        specs = [_spec(mode="simulated", seed=s) for s in (10, 11)]
        outcome = sweep(specs, jobs=1)  # no cache given
        assert outcome.cache_misses == len(specs)
        for r in outcome.results:
            assert r.trace_dump()  # pulled in-memory before the tmp dir died
            assert r.load_trace().makespan > 0

    def test_metrics_document(self, tmp_path):
        outcome = sweep([_spec()], cache=tmp_path / "c")
        path = outcome.write_metrics(tmp_path / "sweep.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.sweep_metrics/v1"
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["cached"] is False
        assert run["metrics"]["schema"] == METRICS_SCHEMA
        assert run["spec"]["mode"] == "real"


class TestCliSweep:
    def test_sweep_command_cold_then_warm(self, tmp_path, capsys):
        argv = ["sweep", "--algorithm", "cholesky", "--nts", "4", "--nb", "100",
                "--schedulers", "quark", "--seeds", "0", "--mode", "real",
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics-out", str(tmp_path / "m.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 hits, 1 misses" in out
        assert (tmp_path / "m.json").exists()
        assert main(argv) == 0
        assert "1 hits, 0 misses" in capsys.readouterr().out

    def test_sweep_validate_mode_table(self, tmp_path, capsys):
        assert main(
            ["sweep", "--nts", "4", "--nb", "100", "--seeds", "0",
             "--cal-nt", "4", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "real GF/s" in out
        assert "sim GF/s" in out

    def test_sweep_rejects_bad_jobs(self, capsys):
        assert main(["sweep", "--jobs", "0", "--no-cache"]) == 2


class TestObservedRunsAndCache:
    """Pin the probe/cache interplay: an observed run must bypass cache
    *reads* (a cached trace carries no probe stream to replay) while still
    *publishing* its result, so the artifacts and the cache stay in sync and
    the next unobserved run hits."""

    def test_observed_run_bypasses_read_but_still_publishes(self, tmp_path):
        from repro.runner import run_observed

        cache = ResultCache(tmp_path / "cache")
        spec = _spec(seed=21)
        observed = run_observed(spec, cache, tmp_path / "probes")
        assert observed.cached is False
        artifacts = list((tmp_path / "probes").iterdir())
        assert artifacts, "observed run exported no timeline artifacts"
        # The observed run published: the plain rerun is a hit with the
        # exact same bytes.
        warm = run_cached(spec, cache)
        assert warm.cached is True
        assert warm.trace_dump() == observed.trace_dump()

    def test_observed_run_executes_even_when_cache_is_warm(self, tmp_path):
        from repro.runner import run_observed

        cache = ResultCache(tmp_path / "cache")
        spec = _spec(seed=22)
        run_cached(spec, cache)  # warm the key first
        observed = run_observed(spec, cache, tmp_path / "probes")
        assert observed.cached is False  # probes force execution
        assert list((tmp_path / "probes").iterdir())
        # Purity: re-executing over a warm key reproduced the same bytes.
        assert observed.trace_dump() == run_cached(spec, cache).trace_dump()

    def test_observed_sweep_publishes_for_next_unobserved_sweep(self, tmp_path):
        specs = [_spec(seed=s) for s in (31, 32)]
        probed = sweep(specs, jobs=1, cache=tmp_path / "cache",
                       probe_dir=tmp_path / "probes")
        assert probed.cache_hits == 0 and probed.cache_misses == 2
        # Artifact families are named by cache-key prefix: one per spec.
        prefixes = {p.name.split(".")[0] for p in (tmp_path / "probes").iterdir()}
        assert prefixes == {r.key[:16] for r in probed.results}
        unobserved = sweep(specs, jobs=1, cache=tmp_path / "cache")
        assert unobserved.cache_hits == 2 and unobserved.cache_misses == 0
        for ro, ru in zip(probed.results, unobserved.results):
            assert ro.trace_dump() == ru.trace_dump()

    def test_sweep_cli_probe_dir_then_warm_cache(self, tmp_path, capsys):
        base = ["sweep", "--nts", "4", "--nb", "100", "--seeds", "3",
                "--mode", "real", "--cache-dir", str(tmp_path / "cache")]
        assert main(base + ["--probe-dir", str(tmp_path / "probes")]) == 0
        assert "0 hits, 1 misses" in capsys.readouterr().out
        assert list((tmp_path / "probes").iterdir())
        # The observed sweep published: the unobserved rerun is all hits.
        assert main(base) == 0
        assert "1 hits, 0 misses" in capsys.readouterr().out
