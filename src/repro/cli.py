"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``simulate``
    Full paper pipeline for one problem: calibrate on a small run, simulate,
    validate against a real run, report (optionally SVG / ASCII Gantt).
``run``
    One real run on the machine model; prints trace statistics.
``dag``
    Build a factorization DAG; print statistics, optionally write DOT.
``stream``
    Print the serial task stream (the paper's Fig. 2 view).
``figure``
    Regenerate one of the paper's figures by experiment id.
``sweep``
    Run a (scheduler x size x seed) grid through the parallel runner with
    result caching; export per-run metrics JSON.
``calibrate``
    Fit per-kernel duration models from a probe directory's timing
    artifacts; select families via AIC/BIC + KS gate; emit a versioned
    ``repro.calib/v1`` document (feed back via ``sweep --calibration``).
``recommend``
    Rank every scheduler x policy candidate by simulated makespan under a
    calibrated model set and recommend the winner; optionally validate
    against exhaustive real runs.
``portfolio``
    Portfolio validation experiment: recommendations vs. exhaustive sweeps
    over an (algorithm x size) grid, reporting top-1 accuracy, regret, and
    prediction error with CI-gateable thresholds.
``stress``
    Randomized stress sweep of the threaded runtime: programs x race
    guards x worker counts, optionally with injected faults, every trace
    verified.  Exit status 1 when any combination fails.
``bench``
    Micro/macro benchmark suite over the simulation hot paths; writes a
    schema-tagged ``BENCH_*.json`` report and optionally gates against a
    committed baseline (exit status 1 on regression or on baseline suites
    missing from the fresh report).
``bench-trend``
    Append a benchmark report to the cross-build JSONL history and emit a
    markdown per-suite delta table (the CI job-summary trend step).
``timeline``
    One observed run with a recording probe attached: exports the Chrome
    ``trace_event`` JSON (open at https://ui.perfetto.dev), the virtual-time
    counter series (CSV + JSON), the per-task wait attribution report, and
    the run metrics.
``serve``
    Persistent simulation service over local HTTP/JSON: coalesces identical
    in-flight requests, shares the result cache across clients, applies
    backpressure past a pending limit, and drains gracefully on SIGTERM.
``client``
    Query a running ``serve`` daemon: health/stats probes, or fan a
    (scheduler x size x seed) grid out over the service.
``fleet``
    Sharded service fleet: N ``serve`` daemons (one process and one cache
    partition each) behind a router that consistent-hashes ``cache_key``
    across them, with fleet-level admission control, shard mark-down +
    failover retry, and whole-fleet SIGTERM drain.
``loadgen``
    Open- or closed-loop load generator: replay a spec grid (or a recorded
    request log) against a live ``serve`` daemon or ``fleet`` router and
    report throughput, latency quantiles (client-side and scraped from the
    server's ``/metrics`` histograms), 429 rate, and per-shard balance as a
    ``repro.loadgen/v2`` JSON document.

Every command is pure offline computation on the bundled machine models.
"""

from __future__ import annotations

import argparse
import sys
from importlib import metadata as _importlib_metadata
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from .algorithms import cholesky_program, lu_program, qr_program
from .calib import DEFAULT_FAMILIES as _CALIB_DEFAULT_FAMILIES
from .core.soa import ENGINE_BACKENDS, default_engine_backend
from .core.simulator import run_real, validate
from .dag import build_dag, dag_stats, write_dot
from .experiments import (
    SMOKE_SWEEP_NTS,
    SWEEP_NTS,
    distribution_figure,
    fig1_dag,
    fig2_stream,
    figure_table,
    performance_figure,
    race_experiment,
    speedup_experiment,
    trace_experiment,
)
from .experiments.config import CAL_NT, experiment_scheduler_spec
from .machine import calibrate, get_machine
from .runner import ProgramSpec, ResultCache, RunSpec, default_cache_dir
from .runner import sweep as runner_sweep
from .schedulers import make_scheduler
from .trace.ascii import ascii_gantt
from .trace.compare import compare_traces
from .trace.stats import trace_statistics
from .trace.svg import write_comparison_svg, write_svg

__all__ = ["main"]

_GENERATORS: Dict[str, Callable] = {
    "cholesky": cholesky_program,
    "qr": qr_program,
    "lu": lu_program,
}


def _program(args, nt: Optional[int] = None):
    gen = _GENERATORS[args.algorithm]
    kwargs = {}
    if getattr(args, "panel_width", 1) != 1:
        kwargs["panel_width"] = args.panel_width
    return gen(nt if nt is not None else args.nt, args.nb, **kwargs)


def _scheduler(args):
    kwargs = {}
    if args.scheduler == "starpu" and getattr(args, "policy", None):
        kwargs["policy"] = args.policy
    if getattr(args, "window", None):
        kwargs["window"] = args.window
    return make_scheduler(args.scheduler, args.workers, **kwargs)


def _add_engine_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine-backend", choices=ENGINE_BACKENDS, default=None,
                   dest="engine_backend",
                   help="engine implementation: object (per-task-node event "
                   "loop) or array (compiled SoA core, byte-identical traces; "
                   "runs on the object engine where the core cannot); "
                   "default $REPRO_ENGINE_BACKEND or object")


def _engine_backend(args) -> str:
    backend = getattr(args, "engine_backend", None)
    return default_engine_backend() if backend is None else backend


def _add_problem_args(p: argparse.ArgumentParser, *, with_sched: bool = True) -> None:
    p.add_argument("--algorithm", choices=sorted(_GENERATORS), default="cholesky")
    p.add_argument("--nt", type=int, default=16, help="tiles per matrix side")
    p.add_argument("--nb", type=int, default=200, help="tile order")
    p.add_argument("--panel-width", type=int, default=1, dest="panel_width",
                   help="cores per panel task (multi-threaded tasks)")
    if with_sched:
        p.add_argument("--scheduler", choices=("quark", "starpu", "ompss"),
                       default="quark")
        p.add_argument("--policy", default=None,
                       help="StarPU policy (eager/prio/ws/dmda)")
        p.add_argument("--workers", type=int, default=48)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--machine", default="magny_cours_48")
        p.add_argument("--seed", type=int, default=0)


def _cmd_simulate(args) -> int:
    machine = get_machine(args.machine)
    models, _ = calibrate(
        _program(args, nt=args.cal_nt), _scheduler(args), machine,
        family=args.family, seed=args.seed,
    )
    metrics_real = metrics_sim = None
    if args.metrics_out:
        from .core.metrics import RunMetrics

        metrics_real, metrics_sim = RunMetrics(), RunMetrics()
    result = validate(
        _program(args), _scheduler(args), machine, models,
        seed_real=args.seed + 1, seed_sim=args.seed + 2,
        warmup_penalty=machine.warmup_penalty,
        metrics_real=metrics_real, metrics_sim=metrics_sim,
    )
    print(result.report())
    if args.metrics_out:
        import json
        from pathlib import Path

        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": "repro.validate_metrics/v1",
            "real": metrics_real.to_dict(),
            "simulated": metrics_sim.to_dict(),
        }
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    if args.svg:
        path = write_comparison_svg(result.real, result.simulated, args.svg)
        print(f"wrote {path}")
    if args.gantt:
        print("\nreal run:")
        print(ascii_gantt(result.real, width=args.gantt_width))
        print("\nsimulated run:")
        print(ascii_gantt(result.simulated, width=args.gantt_width))
    return 0


def _cmd_run(args) -> int:
    machine = get_machine(args.machine)
    metrics = None
    if args.metrics_out:
        from .core.metrics import RunMetrics

        metrics = RunMetrics()
    trace = run_real(
        _program(args), _scheduler(args), machine, seed=args.seed, metrics=metrics,
        engine_backend=_engine_backend(args),
    )
    trace.validate()
    if args.metrics_out:
        print(f"wrote {metrics.write_json(args.metrics_out)}")
    stats = trace_statistics(trace)
    print(stats.report())
    print(f"achieved {trace.gflops(_program(args).total_flops):.2f} GFLOP/s "
          f"(machine peak {machine.peak_gflops:.0f})")
    if args.svg:
        print(f"wrote {write_svg(trace, args.svg)}")
    if args.gantt:
        print(ascii_gantt(trace, width=args.gantt_width))
    return 0


def _cmd_dag(args) -> int:
    program = _program(args)
    dag = build_dag(program)
    stats = dag_stats(dag)
    print(f"{program.name}: {stats.n_tasks} tasks, {dag.number_of_edges()} hazard "
          f"edges over {stats.n_edges} parent/child pairs")
    print(f"depth {stats.depth}, max width {stats.max_width}, "
          f"average parallelism {stats.average_parallelism:.2f}")
    if args.dot:
        print(f"wrote {write_dot(dag, args.dot)}")
    return 0


def _cmd_stream(args) -> int:
    print(_program(args).describe(limit=args.limit))
    return 0


def _cmd_figure(args) -> int:
    name = args.id
    if name == "fig1":
        print(fig1_dag().report())
    elif name == "fig2":
        _, described = fig2_stream()
        print(described)
    elif name in ("fig3", "fig4"):
        fig = distribution_figure(name)
        print(fig.table())
        print(f"best by AIC: {fig.best_family}")
    elif name == "fig5":
        _, table = race_experiment()
        print(table)
    elif name in ("fig6", "fig7", "fig6_7"):
        print(trace_experiment().report())
    elif name in ("fig8", "fig9", "fig10"):
        scheduler = {"fig8": "ompss", "fig9": "starpu", "fig10": "quark"}[name]
        nts = SWEEP_NTS if args.full else SMOKE_SWEEP_NTS
        data = performance_figure(scheduler, nts=nts)
        print(figure_table(scheduler, data))
    elif name == "speedup":
        print(speedup_experiment().report())
    else:
        print(f"unknown figure id {name!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.reporting import format_table

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    sched_spec = {
        name: experiment_scheduler_spec(name, n_cores=args.workers)
        for name in args.schedulers
    }
    points = []  # (scheduler, nt, seed, [spec indices])
    specs = []
    for name in args.schedulers:
        for nt in args.nts:
            for seed in args.seeds:
                program = ProgramSpec(args.algorithm, nt, args.nb)
                idx = []
                if args.mode in ("real", "validate"):
                    idx.append(len(specs))
                    specs.append(
                        RunSpec(
                            program=program,
                            scheduler=sched_spec[name],
                            machine=args.machine,
                            seed=seed * 1000 + nt,
                            mode="real",
                            engine_backend=_engine_backend(args),
                        )
                    )
                if args.mode in ("simulated", "validate"):
                    idx.append(len(specs))
                    specs.append(
                        RunSpec(
                            program=program,
                            scheduler=sched_spec[name],
                            machine=args.machine,
                            seed=seed * 1000 + nt + 1,
                            mode="simulated",
                            cal_nt=args.cal_nt,
                            cal_seed=seed,
                            family=args.family,
                            calibration=args.calibration,
                            engine_backend=_engine_backend(args),
                        )
                    )
                points.append((name, nt, seed, idx))

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir else default_cache_dir())
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    outcome = runner_sweep(
        specs, jobs=args.jobs, cache=cache, progress=progress,
        probe_dir=args.probe_dir,
    )

    rows = []
    for name, nt, seed, idx in points:
        results = [outcome.results[i] for i in idx]
        flops = ProgramSpec(args.algorithm, nt, args.nb).build().total_flops
        cached = "+".join("hit" if r.cached else "run" for r in results)
        wall = sum(r.wall_s for r in results)
        if args.mode == "validate":
            real, sim = (r.load_trace() for r in results)
            err = compare_traces(real, sim).abs_error_percent
            rows.append(
                (name, nt, seed, real.gflops(flops), sim.gflops(flops), err, cached, wall)
            )
        else:
            gf = results[0].load_trace().gflops(flops)
            real_gf, sim_gf = (gf, "-") if args.mode == "real" else ("-", gf)
            rows.append((name, nt, seed, real_gf, sim_gf, "-", cached, wall))
    headers = ("scheduler", "nt", "seed", "real GF/s", "sim GF/s", "err %", "cache", "wall s")
    print(
        format_table(
            headers,
            rows,
            title=f"sweep: {args.algorithm} nb={args.nb} machine={args.machine} "
            f"mode={args.mode}",
        )
    )
    print(outcome.summary())
    if args.metrics_out:
        print(f"wrote {outcome.write_metrics(args.metrics_out)}")
    return 0


def _cmd_calibrate(args) -> int:
    from .calib import fit_from_probe_dir

    try:
        doc = fit_from_probe_dir(
            args.probe_dir,
            families=tuple(args.families),
            criterion=args.criterion,
            ks_alpha=args.ks_alpha,
            min_samples=args.min_samples,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(doc.summary())
    print(f"digest {doc.digest()}")
    if args.out:
        print(f"wrote {doc.write(args.out)}")
    return 0


def _cmd_recommend(args) -> int:
    import json

    from .calib import fit_from_samples, load_calibration
    from .machine import collect_samples
    from .portfolio import candidate_scheduler_spec, default_candidates, recommend

    machine = get_machine(args.machine)
    n_cores = args.workers if args.workers else machine.n_cores
    program = _program(args)

    if args.calibration:
        try:
            document = load_calibration(args.calibration)
        except (FileNotFoundError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cal_source = f"document {args.calibration}"
    else:
        # No document supplied: refit from one real run of the calibration
        # problem under QUARK (the ``simulate`` command's recipe, routed
        # through the calib fitting pipeline instead of ``calibrate``).
        cal_program = _program(args, nt=args.cal_nt)
        cal_sched = experiment_scheduler_spec("quark", n_cores=n_cores).build()
        cal_trace = run_real(cal_program, cal_sched, machine, seed=args.seed)
        samples = collect_samples(cal_trace, drop_first_per_worker=True)
        document = fit_from_samples(
            samples,
            provenance={"source": "recommend", "cal_nt": args.cal_nt,
                        "machine": args.machine, "seed": args.seed},
        )
        cal_source = f"refit from quark run (cal_nt={args.cal_nt})"

    rec = recommend(
        program,
        machine,
        document.to_model_set(),
        n_cores=n_cores,
        seed=args.seed + 1,
        n_sims=args.sims,
    )
    print(f"portfolio for {args.algorithm} nt={args.nt} on {args.machine} "
          f"({n_cores} cores), calibration: {cal_source}")
    print(rec.table())

    status = 0
    if args.validate:
        measured = {}
        for candidate in default_candidates():
            sched = candidate_scheduler_spec(candidate, n_cores).build()
            trace = run_real(program, sched, machine, seed=args.seed)
            measured[candidate.label] = float(trace.makespan)
        true_best = min(sorted(measured), key=lambda lb: measured[lb])
        hit = true_best == rec.best.candidate.label
        regret = (measured[rec.best.candidate.label] - measured[true_best]) / measured[
            true_best
        ]
        print(f"measured best: {true_best} ({measured[true_best]:.6f}s) -- "
              f"{'HIT' if hit else 'MISS'}, regret {regret * 100:.2f}%")
        status = 0 if hit else 1
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rec.to_document(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def _cmd_portfolio(args) -> int:
    import json

    from .experiments import SWEEP_NTS, portfolio_experiment

    kwargs = {}
    if args.full:
        kwargs = {"machine": "magny_cours_48", "nts": tuple(SWEEP_NTS[:3])}
    if args.machine:
        kwargs["machine"] = args.machine
    if args.nts:
        kwargs["nts"] = tuple(args.nts)
    if args.algorithms:
        kwargs["algorithms"] = tuple(args.algorithms)
    report = portfolio_experiment(seed=args.seed, **kwargs)
    print(report.report())
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.to_document(), sort_keys=True, indent=2) + "\n"
        )
        print(f"wrote {path}")
    ok = report.top1_accuracy >= args.min_accuracy and (
        report.mean_prediction_error <= args.max_error
    )
    if not ok:
        print(
            f"below target: top-1 {report.top1_accuracy * 100:.0f}% "
            f"(need >= {args.min_accuracy * 100:.0f}%), prediction error "
            f"{report.mean_prediction_error * 100:.2f}% "
            f"(need <= {args.max_error * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_stress(args) -> int:
    from .core.faults import FaultPlan
    from .core.threaded import RACE_GUARDS
    from .core.watchdog import StallPolicy
    from .experiments.stress import run_stress

    for g in args.guards:
        if g not in RACE_GUARDS:
            print(f"unknown guard {g!r}; choose from {RACE_GUARDS}", file=sys.stderr)
            return 2
    faults = None
    if args.drop_notify_rate > 0.0 or args.wait_delay > 0.0 or args.kill_worker is not None:
        faults = FaultPlan(
            wait_delay=args.wait_delay,
            drop_notify_rate=args.drop_notify_rate,
            kill_worker=args.kill_worker,
            seed=args.fault_seed,
        )
    stall = StallPolicy.for_deadline(args.stall_timeout, on_stall=args.on_stall)
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    report = run_stress(
        n_programs=args.programs,
        n_tasks=args.tasks,
        guards=args.guards,
        worker_counts=args.workers,
        base_seed=args.base_seed,
        faults=faults,
        stall=stall,
        progress=progress,
        probe_dir=args.probe_dir,
    )
    print(report.table())
    if not report.all_ok:
        print(f"{len(report.failures)} failing combinations", file=sys.stderr)
        return 1
    return 0


def _cmd_timeline(args) -> int:
    from .core.metrics import RunMetrics
    from .obs import RecordingProbe, load_trace_event
    from .obs.timeline import export_timeline

    machine = get_machine(args.machine)
    program = _program(args)
    probe = RecordingProbe()
    metrics = RunMetrics()

    if args.runtime == "threaded":
        if args.mode != "simulated":
            print("--runtime threaded requires --mode simulated", file=sys.stderr)
            return 2
        from .core.threaded import ThreadedRuntime

        models, _ = calibrate(
            _program(args, nt=args.cal_nt), _scheduler(args), machine,
            family=args.family, seed=args.seed,
        )
        runtime = ThreadedRuntime(
            args.workers,
            mode="simulate",
            guard=args.guard,
            window=args.window if args.window else 4096,
        )
        trace = runtime.run(
            program, models=models, seed=args.seed, metrics=metrics, probe=probe
        )
    elif args.mode == "simulated":
        from .core.simulator import simulate

        models, _ = calibrate(
            _program(args, nt=args.cal_nt), _scheduler(args), machine,
            family=args.family, seed=args.seed,
        )
        trace = simulate(
            program, _scheduler(args), models, seed=args.seed,
            warmup_penalty=machine.warmup_penalty, metrics=metrics, probe=probe,
        )
    else:
        trace = run_real(
            program, _scheduler(args), machine, seed=args.seed,
            metrics=metrics, probe=probe,
        )

    art = export_timeline(args.out_dir, trace, probe, metrics=metrics, prefix=args.prefix)
    # Self-check: the emitted document must round-trip through our own
    # strict loader before we point anyone at ui.perfetto.dev with it.
    load_trace_event(art.perfetto)
    print(art.report.report())
    print()
    for path in art.paths():
        print(f"wrote {path}")
    print(f"open {art.perfetto} at https://ui.perfetto.dev")
    return 0


def _cmd_serve(args) -> int:
    from .service import serve

    cache = None
    if not args.no_cache:
        cache = args.cache_dir if args.cache_dir else default_cache_dir()
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr, flush=True))
    serve(
        host=args.host,
        port=args.port,
        workers=args.pool_workers,
        max_pending=args.max_pending,
        cache=cache,
        probe_dir=args.probe_dir,
        default_timeout_s=args.timeout,
        log=log,
        log_json=args.log_json,
        shard_id=args.shard_id,
    )
    return 0


def _grid_specs(args) -> list:
    """The (scheduler x nt x seed) grid shared by client and loadgen."""
    sched_spec = {
        name: experiment_scheduler_spec(name, n_cores=args.workers)
        for name in args.schedulers
    }
    specs = []
    for name in args.schedulers:
        for nt in args.nts:
            for seed in args.seeds:
                kwargs = {}
                if args.mode == "simulated":
                    kwargs.update(cal_nt=args.cal_nt, cal_seed=seed, family=args.family)
                specs.append(
                    RunSpec(
                        program=ProgramSpec(args.algorithm, nt, args.nb),
                        scheduler=sched_spec[name],
                        machine=args.machine,
                        seed=seed * 1000 + nt,
                        mode=args.mode,
                        **kwargs,
                    )
                )
    return specs


def _cmd_client(args) -> int:
    import json

    from .service import ServiceClient, ServiceError, sweep_via_service

    client = ServiceClient(args.host, args.port, max_retries=args.max_retries)
    if args.health or args.stats:
        try:
            doc = client.health() if args.health else client.stats()
        except (OSError, ServiceError) as exc:
            print(f"service unreachable: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0 if doc.get("ok", False) or args.health else 1

    specs = _grid_specs(args)
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    try:
        docs = sweep_via_service(
            specs, client, jobs=args.jobs, timeline=args.timeline,
            timeout_s=args.timeout, progress=progress,
        )
    except OSError as exc:
        print(f"service unreachable at {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    from .experiments.reporting import format_table

    rows = []
    failures = 0
    for spec, doc in zip(specs, docs):
        if doc.get("ok"):
            rows.append(
                (spec.scheduler.name, spec.program.nt, spec.seed,
                 "hit" if doc["cached"] else "run",
                 "coalesced" if doc.get("coalesced") else "-",
                 f"{doc['wall_s']:.3f}")
            )
        else:
            failures += 1
            rows.append(
                (spec.scheduler.name, spec.program.nt, spec.seed,
                 doc.get("error", "failed"), "-", "-")
            )
    print(
        format_table(
            ("scheduler", "nt", "seed", "cache", "flight", "wall s"),
            rows,
            title=f"served: {args.algorithm} nb={args.nb} mode={args.mode} "
            f"via {args.host}:{args.port}",
        )
    )
    if args.metrics_out:
        from .service import write_client_sweep

        # Strict serialisation: a spec that would not survive replay
        # validation fails here instead of producing a poisoned log.
        path = write_client_sweep(args.metrics_out, specs, docs)
        print(f"wrote {path}")
    if failures:
        print(f"{failures}/{len(specs)} requests failed", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args) -> int:
    from .service import run_fleet

    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = args.cache_dir if args.cache_dir else default_cache_dir()
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr, flush=True))
    return run_fleet(
        shards=args.shards,
        host=args.host,
        port=args.port,
        cache_dir=cache,
        shard_workers=args.pool_workers,
        max_pending=args.max_pending,
        max_inflight=args.max_inflight,
        retries=args.retries,
        revive_after_s=args.revive_after,
        default_timeout_s=args.timeout,
        vnodes=args.vnodes,
        log_dir=args.log_dir,
        state_file=args.state_file,
        log=log,
        log_json=args.log_json,
    )


def _cmd_loadgen(args) -> int:
    import json
    from pathlib import Path

    from .service import RunRequest, load_request_log
    from .service.loadgen import run_loadgen, summarize

    loop = args.loop or ("open" if args.rate is not None else "closed")
    if loop == "open" and args.rate is None:
        print("open-loop load needs --rate", file=sys.stderr)
        return 2
    if args.requests:
        try:
            docs = load_request_log(args.requests)
        except (OSError, ValueError) as exc:
            print(f"unusable request log: {exc}", file=sys.stderr)
            return 2
    else:
        docs = [
            RunRequest(spec=spec, timeout_s=args.timeout).to_document()
            for spec in _grid_specs(args)
        ]
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    report = run_loadgen(
        args.host,
        args.port,
        docs,
        loop=loop,
        duration_s=args.duration,
        rate=args.rate,
        concurrency=args.concurrency,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        label=args.label,
        progress=progress,
        trace_out=args.trace_out,
    )
    print(summarize(report))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    if report["failed"]:
        print(
            f"{report['failed']}/{report['requests']} requests failed", file=sys.stderr
        )
        return 1
    return 0


def _cmd_bench(args) -> int:
    from .bench import compare_reports, default_suite, run_suite
    from .bench.harness import BenchReport

    if args.repeats is not None and args.repeats < 1:
        print("--repeats must be at least 1", file=sys.stderr)
        return 2
    specs = default_suite(
        quick=args.quick, workers=args.workers, engine_backend=_engine_backend(args),
    )
    if args.repeats is not None:
        for spec in specs:
            spec.repeats = args.repeats
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    try:
        report = run_suite(specs, only=args.only, label=args.label, progress=progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.table())
    if args.out:
        print(f"wrote {report.write_json(args.out)}")
    if args.compare:
        baseline = BenchReport.read_json(args.compare)
        gate = compare_reports(
            baseline, report, max_regression=args.max_regression, only=args.only
        )
        print()
        print(gate.table())
        if not gate.ok:
            return 1
    return 0


def _cmd_bench_trend(args) -> int:
    from .bench.harness import BenchReport
    from .bench.trend import append_history, load_history, trend_table

    try:
        report = BenchReport.read_json(args.report)
    except (OSError, ValueError) as exc:
        print(f"cannot read report {args.report}: {exc}", file=sys.stderr)
        return 2
    history = load_history(args.history)
    table = trend_table(history, report)
    meta = {}
    for item in args.meta or []:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"--meta takes key=value pairs, got {item!r}", file=sys.stderr)
            return 2
        meta[key] = value
    append_history(report, args.history, meta=meta)
    if args.summary:
        path = Path(args.summary)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(table + "\n")
        print(f"appended trend table to {path}")
    else:
        print(table)
    print(f"history: {len(history) + 1} run(s) in {args.history}")
    return 0


def _package_version() -> str:
    try:
        return _importlib_metadata.version("repro")
    except _importlib_metadata.PackageNotFoundError:  # running from a checkout
        return "unknown"


def _add_service_grid_args(p: argparse.ArgumentParser) -> None:
    """The (scheduler x nt x seed) grid flags shared by client and loadgen."""
    p.add_argument("--algorithm", choices=sorted(_GENERATORS), default="cholesky")
    p.add_argument("--nts", type=int, nargs="+", default=[4],
                   help="tiles-per-side grid points")
    p.add_argument("--nb", type=int, default=200, help="tile order")
    p.add_argument("--schedulers", nargs="+", choices=("quark", "starpu", "ompss"),
                   default=["quark"])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--mode", choices=("real", "simulated"), default="real")
    p.add_argument("--machine", default="magny_cours_48")
    p.add_argument("--workers", type=int, default=48,
                   help="cores per scheduler configuration")
    p.add_argument("--cal-nt", type=int, default=CAL_NT, dest="cal_nt")
    p.add_argument("--family", default="lognormal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Simulation of Superscalar Scheduling "
        "(ICPP 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="calibrate, simulate, and validate")
    _add_problem_args(p)
    p.add_argument("--cal-nt", type=int, default=16, dest="cal_nt")
    p.add_argument("--family", default="lognormal")
    p.add_argument("--svg", default=None, help="write real/sim comparison SVG")
    p.add_argument("--gantt", action="store_true", help="print ASCII Gantt charts")
    p.add_argument("--gantt-width", type=int, default=100, dest="gantt_width")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write both runs' RunMetrics documents (JSON) here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("run", help="one real run on the machine model")
    _add_problem_args(p)
    _add_engine_backend_arg(p)
    p.add_argument("--svg", default=None)
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--gantt-width", type=int, default=100, dest="gantt_width")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write the run's RunMetrics document (JSON) here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("dag", help="build and analyse a dependence DAG")
    _add_problem_args(p, with_sched=False)
    p.add_argument("--dot", default=None, help="write Graphviz DOT file")
    p.set_defaults(fn=_cmd_dag)

    p = sub.add_parser("stream", help="print the serial task stream (Fig. 2 view)")
    _add_problem_args(p, with_sched=False)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("id", help="fig1..fig10, fig6_7, speedup")
    p.add_argument("--full", action="store_true", help="full-size sweeps")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "sweep", help="run a (scheduler x size x seed) grid through the parallel runner"
    )
    p.add_argument("--algorithm", choices=sorted(_GENERATORS), default="cholesky")
    p.add_argument("--nts", type=int, nargs="+", default=[4],
                   help="tiles-per-side grid points")
    p.add_argument("--nb", type=int, default=200, help="tile order")
    p.add_argument("--schedulers", nargs="+", choices=("quark", "starpu", "ompss"),
                   default=["quark"])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--mode", choices=("validate", "real", "simulated"),
                   default="validate",
                   help="validate pairs a real and a simulated run per point")
    p.add_argument("--machine", default="magny_cours_48")
    p.add_argument("--workers", type=int, default=48,
                   help="cores per scheduler (master included where applicable)")
    p.add_argument("--cal-nt", type=int, default=CAL_NT, dest="cal_nt")
    p.add_argument("--family", default="lognormal")
    p.add_argument("--calibration", default=None,
                   help="repro.calib/v1 document for simulated runs (replaces "
                   "the cal-nt/family calibration recipe; see 'repro calibrate')")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep fan-out")
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="result cache directory (default: $REPRO_CACHE or .repro_cache)")
    p.add_argument("--no-cache", action="store_true", dest="no_cache",
                   help="skip the on-disk cache (ephemeral per-sweep cache only)")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write the sweep metrics document (JSON) here")
    p.add_argument("--probe-dir", default=None, dest="probe_dir",
                   help="attach a recording probe to every run and write "
                   "timeline artifacts (Perfetto/series/attribution) here")
    _add_engine_backend_arg(p)
    p.add_argument("--verbose", action="store_true",
                   help="print per-run progress to stderr")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "calibrate",
        help="fit per-kernel duration models from probe artifacts "
        "(repro.calib/v1 document)",
    )
    p.add_argument("--probe-dir", required=True, dest="probe_dir",
                   help="directory of timeline artifacts (*.samples.json / "
                   "*.attribution.json), e.g. a sweep's --probe-dir")
    p.add_argument("--out", default=None,
                   help="write the calibration document (JSON) here")
    p.add_argument("--families", nargs="+",
                   default=list(_CALIB_DEFAULT_FAMILIES),
                   help="candidate model families to fit per kernel")
    p.add_argument("--criterion", choices=("aic", "bic"), default="aic",
                   help="information criterion for family selection")
    p.add_argument("--ks-alpha", type=float, default=0.05, dest="ks_alpha",
                   help="KS-gate significance level")
    p.add_argument("--min-samples", type=int, default=8, dest="min_samples",
                   help="below this many samples a kernel gets a constant model")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser(
        "recommend",
        help="rank scheduler x policy candidates by simulated makespan",
    )
    _add_problem_args(p, with_sched=False)
    p.add_argument("--machine", default="magny_cours_48")
    p.add_argument("--workers", type=int, default=None,
                   help="cores to schedule on (default: the whole machine)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--calibration", default=None,
                   help="repro.calib/v1 document; default refits from a real "
                   "quark run of the --cal-nt problem")
    p.add_argument("--cal-nt", type=int, default=CAL_NT, dest="cal_nt",
                   help="calibration problem size when no --calibration given")
    p.add_argument("--sims", type=int, default=3,
                   help="simulation seeds averaged per candidate")
    p.add_argument("--validate", action="store_true",
                   help="also run every candidate for real and report whether "
                   "the recommendation matches the measured argmin (exit 1 on "
                   "a miss)")
    p.add_argument("--out", default=None,
                   help="write the repro.portfolio/v1 recommendation here")
    p.set_defaults(fn=_cmd_recommend)

    p = sub.add_parser(
        "portfolio",
        help="validate portfolio recommendations against exhaustive real sweeps",
    )
    p.add_argument("--algorithms", nargs="+", choices=sorted(_GENERATORS),
                   default=None, help="default: cholesky qr")
    p.add_argument("--nts", type=int, nargs="+", default=None,
                   help="tiles-per-side grid points (default: 4 8)")
    p.add_argument("--machine", default=None,
                   help="default: uniform_4 (quick), magny_cours_48 with --full")
    p.add_argument("--full", action="store_true",
                   help="paper-grade grid: magny_cours_48, first three sweep sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-accuracy", type=float, default=0.8, dest="min_accuracy",
                   help="top-1 accuracy gate (exit 1 below this)")
    p.add_argument("--max-error", type=float, default=0.05, dest="max_error",
                   help="mean prediction-error gate (exit 1 above this)")
    p.add_argument("--out", default=None,
                   help="write the repro.portfolio_validation/v1 report here")
    p.set_defaults(fn=_cmd_portfolio)

    p = sub.add_parser(
        "stress",
        help="randomized stress sweep of the threaded runtime (all race guards)",
    )
    p.add_argument("--programs", type=int, default=25,
                   help="number of random task streams")
    p.add_argument("--tasks", type=int, default=14, help="tasks per stream")
    p.add_argument("--guards", nargs="+",
                   default=["quiesce", "sleep", "yield", "none"],
                   help="race guards to sweep")
    p.add_argument("--workers", type=int, nargs="+", default=[2, 4],
                   help="worker-count grid points")
    p.add_argument("--base-seed", type=int, default=0, dest="base_seed")
    p.add_argument("--stall-timeout", type=float, default=30.0, dest="stall_timeout",
                   help="watchdog budget per run (seconds of real time)")
    p.add_argument("--on-stall", choices=("raise", "recover"), default="raise",
                   dest="on_stall")
    p.add_argument("--drop-notify-rate", type=float, default=0.0,
                   dest="drop_notify_rate",
                   help="inject: probability of losing each TEQ wake-up")
    p.add_argument("--wait-delay", type=float, default=0.0, dest="wait_delay",
                   help="inject: sleep between TEQ insert and front wait (s)")
    p.add_argument("--kill-worker", type=int, default=None, dest="kill_worker",
                   help="inject: this worker dies on its first claim")
    p.add_argument("--fault-seed", type=int, default=0, dest="fault_seed")
    p.add_argument("--probe-dir", default=None, dest="probe_dir",
                   help="write per-combination timeline artifacts here")
    p.add_argument("--verbose", action="store_true",
                   help="print per-combination progress to stderr")
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser(
        "bench",
        help="micro/macro benchmarks of the simulation hot paths",
    )
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes/repeats (the CI bench-gate profile)")
    p.add_argument("--out", default=None,
                   help="write the BENCH_*.json report here")
    p.add_argument("--only", nargs="+", default=None,
                   help="glob patterns selecting benchmarks, e.g. 'macro/*'")
    p.add_argument("--repeats", type=int, default=None,
                   help="override per-benchmark repetition count")
    p.add_argument("--workers", type=int, default=48,
                   help="simulated workers for macro benchmarks")
    p.add_argument("--label", default="",
                   help="free-form label recorded in the report")
    p.add_argument("--compare", default=None,
                   help="baseline BENCH_*.json to gate against")
    p.add_argument("--max-regression", type=float, default=0.30,
                   dest="max_regression",
                   help="gate threshold: fail when throughput falls below "
                   "(1 - this) x baseline")
    p.add_argument("--verbose", action="store_true",
                   help="print per-benchmark progress to stderr")
    _add_engine_backend_arg(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "bench-trend",
        help="append a BENCH_*.json report to the run history and print "
        "a markdown per-suite delta table vs the previous run",
    )
    p.add_argument("--report", required=True,
                   help="fresh BENCH_*.json report to record")
    p.add_argument("--history", required=True,
                   help="JSONL history file (appended; created if absent)")
    p.add_argument("--summary", default=None,
                   help="append the markdown table here (e.g. "
                   "$GITHUB_STEP_SUMMARY) instead of stdout")
    p.add_argument("--meta", nargs="*", default=None, metavar="KEY=VALUE",
                   help="provenance recorded with the history entry "
                   "(e.g. commit=$GITHUB_SHA branch=$GITHUB_REF_NAME)")
    p.set_defaults(fn=_cmd_bench_trend)

    p = sub.add_parser(
        "serve",
        help="persistent simulation service over local HTTP/JSON "
        "(single-flight, shared cache, backpressure, SIGTERM drain)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8425,
                   help="listening port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2, dest="pool_workers",
                   help="simulation threads executing requests")
    p.add_argument("--max-pending", type=int, default=16, dest="max_pending",
                   help="distinct in-flight requests admitted before "
                   "backpressure (429 + Retry-After)")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-request deadline in seconds "
                   "(threaded specs inherit it as their stall budget)")
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="shared result cache (default: $REPRO_CACHE or .repro_cache)")
    p.add_argument("--no-cache", action="store_true", dest="no_cache",
                   help="serve without a shared on-disk cache")
    p.add_argument("--probe-dir", default=None, dest="probe_dir",
                   help="enable timeline=true requests: artifacts land here")
    p.add_argument("--log-json", default=None, dest="log_json",
                   help="structured JSON access log (one line per request, "
                   "with trace id / route / status / latency)")
    p.add_argument("--shard-id", default=None, dest="shard_id",
                   help="telemetry component name suffix when this daemon "
                   "is a fleet shard (set by repro fleet)")
    p.add_argument("--quiet", action="store_true", help="suppress the serve log")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="query a running serve daemon (health/stats or a run grid)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8425)
    p.add_argument("--health", action="store_true",
                   help="print the health document and exit")
    p.add_argument("--stats", action="store_true",
                   help="print the service counters and exit")
    _add_service_grid_args(p)
    p.add_argument("--jobs", type=int, default=4,
                   help="concurrent client threads issuing requests")
    p.add_argument("--timeline", action="store_true",
                   help="request timeline artifacts (server needs --probe-dir)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--max-retries", type=int, default=5, dest="max_retries",
                   help="retries for retriable rejections (backpressure/drain)")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write every response document (JSON) here")
    p.add_argument("--verbose", action="store_true",
                   help="print per-request progress to stderr")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "fleet",
        help="sharded service fleet: N serve daemons behind a "
        "consistent-hash router",
    )
    p.add_argument("--shards", type=int, default=2,
                   help="shard daemons to spawn (one process each)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8430,
                   help="router listening port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2, dest="pool_workers",
                   help="simulation threads per shard")
    p.add_argument("--max-pending", type=int, default=16, dest="max_pending",
                   help="per-shard admission limit (shard-side 429)")
    p.add_argument("--max-inflight", type=int, default=32, dest="max_inflight",
                   help="router-side in-flight cap per shard (fleet-level 429)")
    p.add_argument("--retries", type=int, default=2,
                   help="forward retries to the rehash successor when a "
                   "shard is down")
    p.add_argument("--revive-after", type=float, default=5.0, dest="revive_after",
                   help="seconds a marked-down shard stays out of the ring "
                   "before the next forward probes it")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per shard on the hash ring")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-request deadline passed to every shard")
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="cache root; each shard gets its own partition "
                   "under it (default: $REPRO_CACHE or .repro_cache)")
    p.add_argument("--no-cache", action="store_true", dest="no_cache",
                   help="run every shard without an on-disk cache")
    p.add_argument("--log-dir", default=None, dest="log_dir",
                   help="write per-shard stderr logs here")
    p.add_argument("--state-file", default=None, dest="state_file",
                   help="write the repro.fleet/v1 topology document "
                   "(router + shard pids/ports) here")
    p.add_argument("--log-json", default=None, dest="log_json",
                   help="router JSON access log; each shard logs beside it "
                   "as <stem>-shard-<id>.jsonl")
    p.add_argument("--quiet", action="store_true", help="suppress the fleet log")
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "loadgen",
        help="open/closed-loop load generator against a serve daemon or fleet",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8430)
    p.add_argument("--loop", choices=("open", "closed"), default=None,
                   help="arrival model (default: open when --rate is given, "
                   "closed otherwise)")
    p.add_argument("--rate", type=float, default=None,
                   help="open-loop arrival rate in requests/second")
    p.add_argument("--concurrency", type=int, default=None,
                   help="closed-loop worker threads (default 4)")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds of load to generate")
    p.add_argument("--requests", default=None,
                   help="replay a recorded request log (JSON) instead of "
                   "the spec grid")
    _add_service_grid_args(p)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--max-retries", type=int, default=5, dest="max_retries",
                   help="retries for retriable rejections before a request "
                   "counts as failed")
    p.add_argument("--label", default="",
                   help="free-form label recorded in the report")
    p.add_argument("--out", default=None,
                   help="write the repro.loadgen/v2 report (JSON) here")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="issue one traced request and write its spans as a "
                   "Perfetto trace-event file here")
    p.add_argument("--verbose", action="store_true",
                   help="print progress to stderr")
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser(
        "timeline",
        help="one observed run: Perfetto trace, counter series, wait attribution",
    )
    _add_problem_args(p)
    p.add_argument("--mode", choices=("real", "simulated"), default="real",
                   help="duration source: machine model (real) or calibrated "
                   "timing models (simulated)")
    p.add_argument("--runtime", choices=("engine", "threaded"), default="engine",
                   help="discrete-event engine or the real-thread runtime "
                   "(threaded requires --mode simulated)")
    p.add_argument("--guard", choices=("quiesce", "sleep", "yield", "none"),
                   default="quiesce", help="race guard for --runtime threaded")
    p.add_argument("--cal-nt", type=int, default=8, dest="cal_nt",
                   help="calibration problem size for --mode simulated")
    p.add_argument("--family", default="lognormal")
    p.add_argument("--out-dir", default="timeline-artifacts", dest="out_dir",
                   help="directory receiving the artifact files")
    p.add_argument("--prefix", default="timeline",
                   help="artifact filename prefix")
    p.set_defaults(fn=_cmd_timeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is None:
        # No subcommand: show usage and signal misuse (argparse would accept
        # the bare invocation since subcommands are optional for --version).
        parser.print_help(sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
