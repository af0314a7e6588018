"""Command-line driver: compile, optimize, run, and inspect J32 programs.

Usage::

    python -m repro run program.j32            # compile + execute
    python -m repro run program.j32 --telemetry out.json
    python -m repro ir program.j32             # dump optimized IR
    python -m repro asm program.j32 --machine ppc64
    python -m repro variants program.j32       # all 12 table rows
    python -m repro compile a.j32 b.j32 --jobs 2 --cache
    python -m repro bench huffman --jobs 2 --cache
    python -m repro profile huffman --heatmap hot.html   # hot-block profile
    python -m repro trace program.j32 --out trace.json   # about://tracing
    python -m repro fuzz --seeds 1000 --jobs 4           # differential fuzz
    python -m repro perf record                          # append to perf history
    python -m repro perf compare --against perf/baseline.jsonl \
                                 --fail-on-regression 10%
    python -m repro perf report --out perf-report.html   # SVG dashboard

Every subcommand builds one :class:`repro.CompileOptions` from its
flags (`CompileOptions.from_cli_args`) and goes through the
:mod:`repro.api` facade; ``--jobs N`` fans compilation out over worker
processes and ``--cache`` reuses prior compilations from the
content-addressed cache (``--cache-dir``, default ``~/.cache/repro``).

Every optimized execution is checked against the unoptimized gold run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import api
from .core import DEFAULT_VARIANT, VARIANTS
from .core.config import DEFAULT_ENGINE, ENGINE_CHOICES, CompileOptions
from .frontend import compile_source
from .frontend.errors import SourceError
from .ir import format_program
from .machine import MACHINES
from .machine.lower import lower_function
from .telemetry import Telemetry
from .workloads import JBYTEMARK, SPECJVM98


def _load(path: str):
    source = pathlib.Path(path).read_text()
    return compile_source(source, pathlib.Path(path).stem)


def _int_in(low: int, high: int | None = None):
    """An argparse ``type=`` for integers in ``[low, high]``, so an
    out-of-range value is a usage error rather than a traceback."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < low or (high is not None and value > high):
            allowed = f">= {low}" if high is None else f"{low}-{high}"
            raise argparse.ArgumentTypeError(
                f"must be {allowed}, got {value}")
        return value

    return parse


def _common_args(parser: argparse.ArgumentParser, *,
                 telemetry: bool = False, driver: bool = False) -> None:
    parser.add_argument("--variant", default=DEFAULT_VARIANT,
                        choices=sorted(VARIANTS),
                        help="optimization variant (a Table 1/2 row)")
    parser.add_argument("--machine", default="ia64",
                        choices=sorted(MACHINES), help="target traits")
    parser.add_argument("--fuel", type=int, default=100_000_000,
                        help="interpreter step budget")
    if telemetry:
        parser.add_argument("--telemetry", default=None, metavar="OUT.JSON",
                            help="write the full telemetry document "
                                 "(spans, metrics, decision log) here")
    if driver:
        _driver_args(parser)


def _engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", default=None, choices=ENGINE_CHOICES,
                        help="execution engine: pre-translated closure "
                             "code (default), the reference interpreter, "
                             "or both with a parity cross-check")


def _driver_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("batch driver")
    group.add_argument("--jobs", type=_int_in(1), default=1, metavar="N",
                       help="compile over N worker processes")
    group.add_argument("--cache", action="store_true",
                       help="reuse compilations from the compile cache")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default ~/.cache/repro)")
    group.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="N",
                       help="byte budget for the on-disk cache tier "
                            "(oldest entries evicted; also honours "
                            "$REPRO_CACHE_MAX_BYTES)")
    group.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-job pool timeout before in-process "
                            "fallback")
    group.add_argument("--stats", default=None, metavar="OUT.JSON",
                       help="write driver cache/pool counters here")


def _finish_telemetry(args: argparse.Namespace,
                      telemetry: Telemetry | None) -> None:
    if telemetry is None or getattr(args, "telemetry", None) is None:
        return
    telemetry.write_json(args.telemetry)
    print(f"[telemetry written to {args.telemetry}]")


def _finish_stats(args: argparse.Namespace, stats: dict) -> None:
    if getattr(args, "stats", None):
        with open(args.stats, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[driver stats written to {args.stats}]")


def cmd_run(args: argparse.Namespace) -> int:
    options = CompileOptions.from_cli_args(args)
    try:
        outcome = api.run(_load(args.file), options)
    except api.SoundnessError:
        print("ERROR: optimized behaviour diverged from gold run",
              file=sys.stderr)
        return 1
    print(f"result    : {outcome.ret_value}")
    print(f"checksum  : {outcome.checksum:#018x} (verified against gold)")
    print(f"steps     : {outcome.steps}")
    print(f"extends   : 32-bit {outcome.extend_counts[32]}, "
          f"16-bit {outcome.extend_counts[16]}, "
          f"8-bit {outcome.extend_counts[8]}")
    print(f"cycles    : {outcome.cycles.total:.0f} modelled "
          f"({outcome.cycles.extend_cycles:.0f} in sign extensions)")
    _finish_telemetry(args, outcome.telemetry)
    return 0


def cmd_ir(args: argparse.Namespace) -> int:
    from .workloads import get_workload

    options = CompileOptions.from_cli_args(args)
    if args.file in JBYTEMARK + SPECJVM98:
        source = get_workload(args.file).program()
    else:
        source = _load(args.file)
    compiled = api.compile(source, options)
    print(format_program(compiled.program))
    _finish_telemetry(args, compiled.telemetry)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Batch-compile files through the cache-aware parallel driver."""
    from .driver import CompileJob

    options = CompileOptions.from_cli_args(args)
    config = options.config()
    jobs = []
    for path in args.files:
        program = _load(path)
        jobs.append(CompileJob(label=program.name, program=program,
                               config=config))
    with api.driver_from_options(options) as driver:
        results = driver.compile_batch(jobs)
        stats = driver.stats()
    for path, compiled in zip(args.files, results):
        print(f"{path:30s} extends {compiled.static_extend_count:>5d}  "
              f"eliminated {compiled.total_eliminated:>5d}  "
              f"compile {compiled.timing.total()*1000:>8.2f} ms")
    if options.cache:
        print(f"[cache: {stats.get('hits', 0)} hits, "
              f"{stats.get('misses', 0)} misses]")
    _finish_stats(args, stats)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Compile + execute under full telemetry; write a Chrome trace."""
    from .core.pipeline import compile_ir
    from .interp import execute

    program = _load(args.file)
    traits = MACHINES[args.machine]
    config = VARIANTS[args.variant].with_traits(traits)
    telemetry = Telemetry(label=pathlib.Path(args.file).stem)
    compiled = compile_ir(program, config, telemetry=telemetry)
    run = execute(compiled.program, traits=traits, fuel=args.fuel,
                  metrics=telemetry.metrics)

    out = pathlib.Path(args.out)
    with open(out, "w") as handle:
        json.dump(telemetry.tracer.to_chrome_trace(), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    span_count = sum(1 for _ in telemetry.tracer.walk())
    decisions = telemetry.decisions
    print(f"trace     : {out} ({span_count} spans; load in "
          "about://tracing or ui.perfetto.dev)")
    print(f"decisions : {len(decisions)} candidates "
          f"({len(decisions.eliminated())} eliminated, "
          f"{len(decisions.kept())} kept)")
    print(f"extends   : {compiled.static_extend_count} static after "
          f"compile, {run.extend_counts[32]} executed (32-bit)")
    if args.full is not None:
        telemetry.write_json(args.full)
        print(f"full      : {args.full} (spans + metrics + decision log)")
    return 0


def cmd_asm(args: argparse.Namespace) -> int:
    options = CompileOptions.from_cli_args(args)
    traits = options.traits()
    compiled = api.compile(_load(args.file), options)
    for func in compiled.program.functions.values():
        code = lower_function(func, traits)
        print(code.text)
        print()
    return 0


def cmd_variants(args: argparse.Namespace) -> int:
    from .interp import execute
    from .machine.costs import count_cycles

    program = _load(args.file)
    traits = MACHINES[args.machine]
    gold = execute(program, mode="ideal", fuel=args.fuel)
    baseline = None
    print(f"{'variant':30s}{'dyn ext32':>12s}{'% of base':>12s}"
          f"{'cycles':>14s}")
    for name, config in VARIANTS.items():
        compiled = api.compile(program, config=config.with_traits(traits))
        run = execute(compiled.program, traits=traits, fuel=args.fuel)
        if run.observable() != gold.observable():
            print(f"{name:30s}  BEHAVIOUR DIVERGED", file=sys.stderr)
            return 1
        cycles = count_cycles(compiled.program, run, traits)
        if baseline is None:
            baseline = run.extends32 or 1
        print(f"{name:30s}{run.extends32:>12d}"
              f"{100 * run.extends32 / baseline:>11.2f}%"
              f"{cycles.total:>14.0f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .harness import export_json, format_dynamic_count_table

    if args.workload not in JBYTEMARK + SPECJVM98:
        print(f"unknown workload {args.workload!r}; available: "
              + ", ".join(JBYTEMARK + SPECJVM98), file=sys.stderr)
        return 1
    options = CompileOptions.from_cli_args(args)
    suite = api.bench([args.workload], options=options)
    results = suite.workload(args.workload)
    print(format_dynamic_count_table(
        [results], f"Dynamic 32-bit sign extensions: {args.workload}"
    ))
    if args.json:
        export_json([results], args.json)
        print(f"\n[json written to {args.json}]")
    if options.cache:
        print(f"[cache: {suite.cache_hits} hits, "
              f"{suite.cache_misses} misses]")
    if options.profile_dir:
        print(f"[profile artifacts written under {options.profile_dir}]")
    if args.telemetry is not None:
        document = {
            "workload": args.workload,
            "variants": {
                name: cell.telemetry
                for name, cell in results.cells.items()
            },
        }
        with open(args.telemetry, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[telemetry written to {args.telemetry}]")
    _finish_stats(args, suite.driver_stats)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one workload (or ``.j32`` file) and render the views."""
    from .profile import (
        format_annotated_ir,
        format_flamegraph,
        format_profile_summary,
        render_heatmap_html,
    )
    from .workloads import get_workload

    options = CompileOptions.from_cli_args(args)
    if args.target in JBYTEMARK + SPECJVM98:
        source = get_workload(args.target)
    elif pathlib.Path(args.target).exists():
        source = _load(args.target)
    else:
        print(f"unknown workload or file {args.target!r}; workloads: "
              + ", ".join(JBYTEMARK + SPECJVM98), file=sys.stderr)
        return 1
    outcome = api.profile(source, options)
    prof = outcome.profile

    print(format_profile_summary(prof))
    if outcome.artifact is not None:
        print(f"[profile artifact written to {outcome.artifact}]")
    if args.ir:
        print()
        print(format_annotated_ir(outcome.compile.program, prof))
    if args.flame:
        with open(args.flame, "w") as handle:
            handle.write(format_flamegraph(prof) + "\n")
        print(f"[collapsed stacks written to {args.flame} — feed to any "
              "flamegraph tool]")
    if args.heatmap:
        with open(args.heatmap, "w", encoding="utf-8") as handle:
            handle.write(render_heatmap_html(
                [prof], title=f"repro profile: {prof.workload or prof.program}"
            ))
        print(f"[heatmap written to {args.heatmap} — self-contained, "
              "open in any browser]")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a differential fuzzing campaign (see docs/FUZZING.md)."""
    from .fuzz import CampaignConfig

    config = CampaignConfig(
        seeds=args.seeds,
        seed_start=args.seed_start,
        jobs=args.jobs,
        time_budget=args.time_budget,
        corpus_dir=args.corpus_dir,
        variants=tuple(args.variant) if args.variant else tuple(VARIANTS),
        machines=tuple(args.machines),
        fuel=args.fuel,
        reduce=args.reduce,
        inject_bug=args.inject_bug,
        replay_only=args.replay,
        max_divergences=args.max_divergences,
        engine=args.engine or DEFAULT_ENGINE,
        profile_dir=args.profile_dir,
    )
    telemetry = (Telemetry(label="fuzz-campaign")
                 if args.telemetry is not None else None)
    result = api.fuzz_campaign(config, telemetry=telemetry)

    cells = len(config.cell_configs())
    print(f"corpus    : {result.corpus_dir} "
          f"({result.regressions_checked} witnesses replayed, "
          f"{result.regressions_failing} still failing)")
    if not args.replay:
        print(f"seeds     : {result.seeds_run} fuzzed "
              f"({result.skipped_seeds} skipped), "
              f"{cells} cells each, {result.cells_checked} cells checked")
    print(f"duration  : {result.duration:.2f}s"
          + (" (time budget exhausted)" if result.budget_exhausted else ""))
    if result.divergences:
        kinds = ", ".join(f"{kind}: {count}" for kind, count
                          in sorted(result.divergence_kinds().items()))
        print(f"DIVERGED  : {len(result.divergences)} new witnesses "
              f"({kinds})")
        for witness in result.divergences:
            ratio = witness.reduction_ratio()
            shrink = (f", reduced to {100 * ratio:.0f}% "
                      f"({len(witness.reduced_source)} bytes)"
                      if ratio is not None else "")
            print(f"  seed {witness.seed:>6d}  {witness.variant} / "
                  f"{witness.machine}  [{witness.kind}] "
                  f"{len(witness.source)} bytes{shrink}")
    else:
        print("divergence: none")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[campaign report written to {args.json}]")
    _finish_telemetry(args, telemetry)
    return 0 if result.ok else 1


def cmd_perf_record(args: argparse.Namespace) -> int:
    """Run the fixed perf grid and append records to the history."""
    from .perf import HistoryStore, PerfRecorder, record_grid

    options = CompileOptions.from_cli_args(args)
    store = HistoryStore(args.history)
    recorder = PerfRecorder(store, source="cli")
    variants = list(VARIANTS) if args.all_variants else args.variants
    summary = record_grid(
        args.workloads,
        engines=args.engines,
        variants=variants,
        options=options,
        repeat=args.repeat,
        recorder=recorder,
    )
    print(f"recorded  : {summary['recorded']} records "
          f"({summary['deduplicated']} deduplicated) over "
          f"{summary['cells']} cells x {summary['repeat']} repeats")
    print(f"run id    : {recorder.run_id}")
    print(f"history   : {store.path}")
    return 0


def cmd_perf_compare(args: argparse.Namespace) -> int:
    """Compare the latest recorded run against a baseline."""
    from .perf import (
        HistoryStore,
        compare_records,
        format_compare,
        load_jsonl,
        parse_threshold,
    )

    store = HistoryStore(args.history)
    runs = store.latest_runs(2)
    if not runs:
        print(f"no perf records in {store.path}; run "
              "`repro perf record` first", file=sys.stderr)
        return 2
    current = runs[0]
    if args.against:
        baseline = load_jsonl(args.against)
        if not baseline:
            print(f"no baseline records in {args.against}",
                  file=sys.stderr)
            return 2
        baseline_name = args.against
    elif len(runs) > 1:
        baseline = runs[1]
        baseline_name = "previous recorded run"
    else:
        print("history holds a single run and no --against baseline "
              "was given; nothing to compare", file=sys.stderr)
        return 2

    threshold = parse_threshold(args.fail_on_regression
                                if args.fail_on_regression is not None
                                else args.threshold)
    report = compare_records(current, baseline, threshold=threshold)
    print(f"baseline  : {baseline_name}")
    print(format_compare(report, verbose=args.verbose))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[verdict written to {args.json}]")
    if not report.ok:
        if args.fail_on_regression is not None:
            print(f"REGRESSED: {len(report.regressed)} cells beyond "
                  f"the {threshold:.0%} gate", file=sys.stderr)
            return 1
        print(f"warning: {len(report.regressed)} cells regressed "
              "(pass --fail-on-regression to make this fatal)")
    return 0


def cmd_perf_report(args: argparse.Namespace) -> int:
    """Render the history as a self-contained HTML dashboard."""
    from .perf import (
        HistoryStore,
        format_history_summary,
        load_jsonl,
        render_html,
    )

    records = []
    if args.baseline:
        records.extend(load_jsonl(args.baseline))
    records.extend(HistoryStore(args.history).records())
    profiles = None
    if args.profiles:
        from .profile import load_profiles

        profiles = load_profiles(args.profiles)
        print(f"[{len(profiles)} profile artifacts loaded from "
              f"{args.profiles}]")
    print(format_history_summary(records))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_html(records, profiles=profiles))
    print(f"[dashboard written to {args.out} — self-contained, "
          "open in any browser]")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a whole suite and write tables, figures, and JSON."""
    from .harness import (
        export_json,
        format_dynamic_count_table,
        format_percent_figure,
        format_performance_figure,
        format_timing_table,
    )

    suites = {"jbytemark": JBYTEMARK, "specjvm98": SPECJVM98}
    options = CompileOptions.from_cli_args(args)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suite_name in (args.suite,) if args.suite else tuple(suites):
        suite = api.bench(suites[suite_name], options=options)
        results = suite.results
        sections = [
            format_dynamic_count_table(
                results, f"Dynamic 32-bit sign extensions ({suite_name})"
            ),
            format_percent_figure(
                results, f"Residual extensions, % of baseline ({suite_name})"
            ),
            format_performance_figure(
                results, f"Modelled run-time improvement ({suite_name})"
            ),
            format_timing_table(results),
        ]
        text_path = out_dir / f"{suite_name}.txt"
        text_path.write_text("\n\n".join(sections) + "\n")
        export_json(results, str(out_dir / f"{suite_name}.json"))
        print(f"wrote {text_path} and {suite_name}.json")
        if options.cache:
            print(f"[cache: {suite.cache_hits} hits, "
                  f"{suite.cache_misses} misses]")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile service front door (docs/SERVING.md)."""
    import asyncio

    from .serve import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        fuel=args.fuel,
        flight_capacity=args.flight_capacity,
        flight_dir=args.flight_dir,
        log_path=args.log,
        slo_window_s=args.slo_window,
        slo_target_p95_ms=args.slo_p95_ms,
        slo_target_error_rate=args.slo_error_rate,
        debug_hooks=args.debug_hooks,
    )

    async def _serve() -> None:
        server = ReproServer(config)
        await server.start()
        print(f"serving   : http://{config.host}:{server.port} "
              f"(workers={config.workers}, "
              f"queue_limit={config.queue_limit})")
        print("endpoints : POST /v1/compile /v1/run /v1/bench "
              "/v1/profile; GET /healthz /metricsz /debugz")
        print(f"fingerprint: {server.config_fingerprint}")
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\n[server stopped]")
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive a running server; verify and measure (docs/SERVING.md)."""
    from dataclasses import replace as _replace

    from .perf import HistoryStore, PerfRecorder, recorder_from_env
    from .serve import (
        Loadtest,
        LoadtestConfig,
        ServerConfig,
        ServerThread,
        record_report,
    )

    config = LoadtestConfig(
        url=args.url,
        requests=args.requests,
        concurrency=args.concurrency,
        mode=args.mode,
        rate=args.rate,
        ops=tuple(args.ops),
        variant=args.variant,
        machine=args.machine,
        engine=args.engine or DEFAULT_ENGINE,
        fuel=args.fuel,
        seed=args.seed,
        verify=not args.no_verify,
        trace_path=args.trace,
    )
    spawned = None
    if args.spawn:
        spawned = ServerThread(ServerConfig(
            port=0, workers=args.workers, queue_limit=args.queue_limit,
        )).start()
        config = _replace(config, url=spawned.base_url)
        print(f"[spawned a server at {spawned.base_url}]")
    try:
        report = Loadtest(config).run()
    finally:
        if spawned is not None:
            spawned.stop()

    document = report.to_dict()
    latency = document["latency_ms"]
    print(f"mode      : {report.mode} ({config.concurrency} clients)"
          if report.mode == "closed"
          else f"mode      : open ({config.rate:g} req/s offered)")
    print(f"requests  : {report.offered} offered, "
          f"{report.completed} completed, {report.shed} shed, "
          f"{report.errors} errors")
    print(f"coalesced : {report.coalesced} (server-side)")
    print(f"latency   : p50 {latency['p50']:.1f} ms, "
          f"p95 {latency['p95']:.1f} ms, p99 {latency['p99']:.1f} ms "
          f"(max {latency['max']:.1f} ms)")
    print(f"throughput: {document['throughput_rps']:.1f} req/s over "
          f"{document['wall_seconds']:.2f}s")
    if config.verify:
        print(f"verified  : {report.verified} run responses bit-identical "
              "to local execution")
    if config.trace_path:
        print(f"traced    : {len(report.trace_ids)} requests, "
              f"{report.correlated} correlated with server spans — "
              f"Chrome trace at {config.trace_path}")
    for mismatch in report.mismatches:
        print(f"MISMATCH  : {mismatch}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[report written to {args.json}]")
    recorder = recorder_from_env("loadtest")
    if recorder is None and args.history:
        recorder = PerfRecorder(HistoryStore(args.history),
                                source="loadtest")
    if recorder is not None:
        record_report(report, recorder, config)
        print(f"[latency recorded to perf history "
              f"{recorder.store.path} — see `repro perf report`]")
    return 0 if report.ok else 1


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running server."""
    from .serve.top import TopConfig, run_top

    config = TopConfig(
        url=args.url,
        interval=args.interval,
        rows=args.rows,
        timeout=args.timeout,
    )
    return run_top(config, once=args.once, as_json=args.as_json)


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or trim the on-disk compile cache."""
    from .driver import CompileCache, default_cache_dir

    cache_dir = pathlib.Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    cache = CompileCache(cache_dir, max_bytes=args.cache_max_bytes)

    if args.cache_command == "stats":
        entries, used = cache.disk_usage()
        budget = cache.max_bytes
        print(f"cache dir : {cache_dir}")
        print(f"entries   : {entries}")
        print(f"bytes     : {used}")
        print(f"budget    : {budget if budget is not None else 'unbounded'}")
        return 0
    if args.cache_command == "prune":
        if cache.max_bytes is None:
            print("error: no byte budget; pass --cache-max-bytes or set "
                  "$REPRO_CACHE_MAX_BYTES", file=sys.stderr)
            return 2
        evicted = cache.prune()
        entries, used = cache.disk_usage()
        print(f"evicted   : {evicted} entries")
        print(f"remaining : {entries} entries, {used} bytes "
              f"(budget {cache.max_bytes})")
        return 0
    # clear
    entries, used = cache.disk_usage()
    cache.clear()
    print(f"cleared   : {entries} entries, {used} bytes from {cache_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Effective Sign Extension Elimination (PLDI 2002) — "
                    "compile, optimize, and measure J32 programs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="compile and execute")
    run_parser.add_argument("file")
    _common_args(run_parser, telemetry=True)
    _engine_arg(run_parser)
    run_parser.set_defaults(fn=cmd_run)

    ir_parser = subparsers.add_parser("ir", help="dump optimized IR")
    ir_parser.add_argument("file", help="a .j32 file or a workload name")
    _common_args(ir_parser, telemetry=True)
    ir_parser.set_defaults(fn=cmd_ir)

    compile_parser = subparsers.add_parser(
        "compile", help="batch-compile files through the parallel, "
                        "cache-aware driver"
    )
    compile_parser.add_argument("files", nargs="+", metavar="FILE")
    _common_args(compile_parser, driver=True)
    compile_parser.set_defaults(fn=cmd_compile)

    trace_parser = subparsers.add_parser(
        "trace", help="compile + run under full telemetry; write a "
                      "Chrome about://tracing JSON"
    )
    trace_parser.add_argument("file")
    trace_parser.add_argument("--out", default="trace.json",
                              help="Chrome trace_event output path")
    trace_parser.add_argument("--full", default=None, metavar="OUT.JSON",
                              help="also write the full telemetry "
                                   "document (metrics + decision log)")
    _common_args(trace_parser)
    trace_parser.set_defaults(fn=cmd_trace)

    asm_parser = subparsers.add_parser(
        "asm", help="dump assembly-flavoured lowering"
    )
    asm_parser.add_argument("file")
    _common_args(asm_parser)
    asm_parser.set_defaults(fn=cmd_asm)

    variants_parser = subparsers.add_parser(
        "variants", help="run all 12 algorithm variants"
    )
    variants_parser.add_argument("file")
    _common_args(variants_parser)
    variants_parser.set_defaults(fn=cmd_variants)

    bench_parser = subparsers.add_parser(
        "bench", help="sweep one named benchmark workload"
    )
    bench_parser.add_argument("workload")
    bench_parser.add_argument("--json", default=None,
                              help="also write results as JSON")
    bench_parser.add_argument("--telemetry", default=None,
                              metavar="OUT.JSON",
                              help="collect + write per-variant telemetry")
    bench_parser.add_argument("--profile-dir", default=None, metavar="DIR",
                              help="write one execution-profile artifact "
                                   "per (variant) cell under DIR")
    _engine_arg(bench_parser)
    _driver_args(bench_parser)
    bench_parser.set_defaults(fn=cmd_bench)

    profile_parser = subparsers.add_parser(
        "profile", help="profile one workload: hot blocks, annotated IR, "
                        "flamegraph stacks, HTML heatmap (docs/PROFILING.md)"
    )
    profile_parser.add_argument("target",
                                help="workload name or a .j32 file")
    profile_parser.add_argument("--dir", dest="profile_dir", default=None,
                                metavar="DIR",
                                help="write the profile artifact under DIR")
    profile_parser.add_argument("--ir", action="store_true",
                                help="print the hotness-annotated IR dump")
    profile_parser.add_argument("--flame", default=None, metavar="OUT.TXT",
                                help="write collapsed flamegraph stacks")
    profile_parser.add_argument("--heatmap", default=None,
                                metavar="OUT.HTML",
                                help="write the standalone heatmap panel")
    _common_args(profile_parser)
    _engine_arg(profile_parser)
    profile_parser.set_defaults(fn=cmd_profile)

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="differential fuzzing campaign across all variants "
                     "and machine lowerings"
    )
    fuzz_parser.add_argument("--seeds", type=int, default=1000,
                             help="number of consecutive generator seeds")
    fuzz_parser.add_argument("--seed-start", type=int, default=0,
                             metavar="N", help="first seed (shards the "
                             "seed space across campaigns)")
    fuzz_parser.add_argument("--jobs", type=_int_in(1), default=1,
                             metavar="N",
                             help="compile over N worker processes")
    fuzz_parser.add_argument("--time-budget", type=float, default=None,
                             metavar="SEC",
                             help="stop fuzzing new seeds after SEC "
                                  "seconds of wall clock")
    fuzz_parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                             help="divergence corpus location (default "
                                  "~/.cache/repro/fuzz-corpus)")
    fuzz_parser.add_argument("--variant", action="append", default=None,
                             choices=sorted(VARIANTS), metavar="NAME",
                             help="restrict to this variant (repeatable; "
                                  "default: all 12)")
    fuzz_parser.add_argument("--machines", nargs="+",
                             default=["ia64", "ppc64"],
                             choices=sorted(MACHINES),
                             help="machine lowerings to cross-check")
    fuzz_parser.add_argument("--fuel", type=int, default=2_000_000,
                             help="interpreter step budget per execution")
    fuzz_parser.add_argument("--reduce",
                             action=argparse.BooleanOptionalAction,
                             default=True,
                             help="shrink new witnesses with the "
                                  "delta-debugging reducer")
    fuzz_parser.add_argument("--replay", action="store_true",
                             help="only replay corpus witnesses as "
                                  "regressions; fuzz no new seeds")
    fuzz_parser.add_argument("--max-divergences", type=int, default=None,
                             metavar="N",
                             help="stop after N new divergences")
    fuzz_parser.add_argument("--inject-bug", action="store_true",
                             help="DEBUG: compile with a deliberately "
                                  "broken AnalyzeDEF to self-test the "
                                  "campaign oracle")
    fuzz_parser.add_argument("--profile-dir", default=None, metavar="DIR",
                             help="write a hotness profile of each new "
                                  "witness's gold run under DIR (triage)")
    fuzz_parser.add_argument("--json", default=None, metavar="OUT.JSON",
                             help="write the campaign report here")
    fuzz_parser.add_argument("--telemetry", default=None,
                             metavar="OUT.JSON",
                             help="write the full telemetry document "
                                  "(spans + fuzz.campaign.* counters)")
    _engine_arg(fuzz_parser)
    fuzz_parser.set_defaults(fn=cmd_fuzz)

    perf_parser = subparsers.add_parser(
        "perf", help="benchmark history: record runs, gate regressions, "
                     "render the HTML dashboard (docs/PERF.md)"
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command",
                                          required=True)

    perf_record = perf_sub.add_parser(
        "record", help="run the fixed perf grid; append one record per "
                       "cell repeat to the history"
    )
    perf_record.add_argument("--workloads", nargs="+",
                             default=["fourier", "huffman"],
                             choices=JBYTEMARK + SPECJVM98, metavar="NAME",
                             help="workloads in the grid (default: "
                                  "fourier huffman)")
    perf_record.add_argument("--engines", nargs="+",
                             default=[DEFAULT_ENGINE], choices=ENGINE_CHOICES,
                             help="execution engines to measure")
    perf_record.add_argument("--variants", nargs="+", default=None,
                             choices=sorted(VARIANTS), metavar="NAME",
                             help="variants in the grid (default: "
                                  "baseline + the full new algorithm)")
    perf_record.add_argument("--all-variants", action="store_true",
                             help="measure all 12 table variants")
    perf_record.add_argument("--repeat", type=int, default=3,
                             help="repeats per cell (min-of-repeats "
                                  "is applied at compare time)")
    perf_record.add_argument("--history", default=None, metavar="DIR",
                             help="history location (default "
                                  "~/.cache/repro/perf-history)")
    perf_record.add_argument("--machine", default="ia64",
                             choices=sorted(MACHINES))
    perf_record.add_argument("--fuel", type=int, default=100_000_000)
    _driver_args(perf_record)
    perf_record.set_defaults(fn=cmd_perf_record)

    perf_compare = perf_sub.add_parser(
        "compare", help="compare the latest recorded run against a "
                        "baseline; classify every cell"
    )
    perf_compare.add_argument("--history", default=None, metavar="DIR")
    perf_compare.add_argument("--against", default=None, metavar="JSONL",
                              help="baseline records (e.g. the "
                                   "repo-committed perf/baseline.jsonl); "
                                   "default: the previous recorded run")
    perf_compare.add_argument("--threshold", default="10%",
                              metavar="PCT",
                              help="relative wall-time noise floor "
                                   "(default 10%%)")
    perf_compare.add_argument("--fail-on-regression", default=None,
                              nargs="?", const="10%", metavar="PCT",
                              help="exit 1 on any regression beyond PCT "
                                   "(default 10%% when given bare)")
    perf_compare.add_argument("--json", default=None, metavar="OUT.JSON",
                              help="write the machine-readable verdict")
    perf_compare.add_argument("--verbose", action="store_true",
                              help="print every metric, not just "
                                   "regressions")
    perf_compare.set_defaults(fn=cmd_perf_compare)

    perf_report = perf_sub.add_parser(
        "report", help="render the history as a self-contained HTML "
                       "dashboard + terminal summary"
    )
    perf_report.add_argument("--history", default=None, metavar="DIR")
    perf_report.add_argument("--baseline", default=None, metavar="JSONL",
                             help="also merge a baseline file into the "
                                  "plots")
    perf_report.add_argument("--out", default="perf-report.html",
                             help="dashboard output path")
    perf_report.add_argument("--profiles", default=None, metavar="DIR",
                             help="embed per-workload hot-block heatmaps "
                                  "from the profile artifacts under DIR")
    perf_report.set_defaults(fn=cmd_perf_report)

    serve_parser = subparsers.add_parser(
        "serve", help="compile-as-a-service: async HTTP front door with "
                      "coalescing and backpressure (docs/SERVING.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=_int_in(0, 65535), default=8787,
                              help="listen port (0 = ephemeral)")
    serve_parser.add_argument("--workers", type=_int_in(1), default=2,
                              metavar="N",
                              help="worker threads executing jobs")
    serve_parser.add_argument("--queue-limit", type=int, default=8,
                              metavar="N",
                              help="max admitted jobs before requests "
                                   "are shed with 429")
    serve_parser.add_argument("--retry-after", type=float, default=0.5,
                              metavar="SEC",
                              help="Retry-After hint on shed requests")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="on-disk compile cache location "
                                   "(default: memory-only)")
    serve_parser.add_argument("--cache-max-bytes", type=int, default=None,
                              metavar="N",
                              help="disk cache byte budget (also "
                                   "$REPRO_CACHE_MAX_BYTES)")
    serve_parser.add_argument("--fuel", type=int, default=100_000_000,
                              help="default interpreter step budget")
    serve_parser.add_argument("--flight-capacity", type=int, default=256,
                              metavar="N",
                              help="flight-recorder ring size (recent "
                                   "requests kept for /debugz)")
    serve_parser.add_argument("--flight-dir", default=None, metavar="DIR",
                              help="write a JSONL flight dump here on "
                                   "every 5xx (default: no artifacts)")
    serve_parser.add_argument("--log", default=None, metavar="FILE",
                              help="structured JSONL access/event log "
                                   "with size-based rotation")
    serve_parser.add_argument("--slo-window", type=float, default=300.0,
                              metavar="SEC",
                              help="rolling SLO window length")
    serve_parser.add_argument("--slo-p95-ms", type=float, default=500.0,
                              metavar="MS",
                              help="windowed p95 latency target")
    serve_parser.add_argument("--slo-error-rate", type=float, default=0.01,
                              metavar="RATE",
                              help="windowed error-rate budget "
                                   "(0.01 = 99%% success)")
    serve_parser.add_argument("--debug-hooks", action="store_true",
                              help="honour client fault-injection fields "
                                   "(tests/CI only)")
    serve_parser.set_defaults(fn=cmd_serve)

    loadtest_parser = subparsers.add_parser(
        "loadtest", help="drive a repro serve with a seeded workload mix; "
                         "verify bit-identity and record latency "
                         "percentiles (docs/SERVING.md)"
    )
    loadtest_parser.add_argument("--url", default="http://127.0.0.1:8787",
                                 help="server base URL")
    loadtest_parser.add_argument("--spawn", action="store_true",
                                 help="spawn an in-process server on an "
                                      "ephemeral port instead of --url")
    loadtest_parser.add_argument("--requests", type=int, default=50,
                                 metavar="N")
    loadtest_parser.add_argument("--concurrency", type=int, default=8,
                                 metavar="N",
                                 help="closed-loop client count")
    loadtest_parser.add_argument("--mode", default="closed",
                                 choices=["closed", "open"],
                                 help="closed-loop (clients wait for "
                                      "answers) or open-loop (fixed "
                                      "request schedule)")
    loadtest_parser.add_argument("--rate", type=float, default=50.0,
                                 metavar="RPS",
                                 help="open-loop offered request rate")
    loadtest_parser.add_argument("--ops", nargs="+",
                                 default=["run", "run", "compile"],
                                 choices=["run", "compile"],
                                 help="endpoint mix (repeat to weight)")
    loadtest_parser.add_argument("--seed", type=int, default=0,
                                 help="workload-mix RNG seed")
    loadtest_parser.add_argument("--no-verify", action="store_true",
                                 help="skip the bit-identity check "
                                      "against local execution")
    loadtest_parser.add_argument("--workers", type=_int_in(1), default=2,
                                 metavar="N",
                                 help="worker threads of a --spawn server")
    loadtest_parser.add_argument("--queue-limit", type=int, default=8,
                                 metavar="N",
                                 help="queue limit of a --spawn server")
    loadtest_parser.add_argument("--json", default=None, metavar="OUT.JSON",
                                 help="write the full report here")
    loadtest_parser.add_argument("--trace", default=None,
                                 metavar="OUT.JSON",
                                 help="export a merged client+server "
                                      "Chrome trace correlated on "
                                      "X-Repro-Trace-Id")
    loadtest_parser.add_argument("--history", default=None, metavar="DIR",
                                 help="record latency percentiles to this "
                                      "perf history (also $REPRO_PERF_DIR)")
    _common_args(loadtest_parser)
    _engine_arg(loadtest_parser)
    loadtest_parser.set_defaults(fn=cmd_loadtest)

    top_parser = subparsers.add_parser(
        "top", help="live dashboard over a running repro serve: "
                    "throughput, latency, SLO burn, hottest requests "
                    "(docs/OBSERVABILITY.md)"
    )
    top_parser.add_argument("--url", default="http://127.0.0.1:8787",
                            help="server base URL")
    top_parser.add_argument("--interval", type=float, default=2.0,
                            metavar="SEC", help="refresh interval")
    top_parser.add_argument("--rows", type=int, default=8, metavar="N",
                            help="hottest-request rows shown")
    top_parser.add_argument("--timeout", type=float, default=10.0,
                            metavar="SEC", help="per-poll request timeout")
    top_parser.add_argument("--once", action="store_true",
                            help="sample once and exit")
    top_parser.add_argument("--json", dest="as_json", action="store_true",
                            help="with --once: print the sample as JSON "
                                 "(scripting mode)")
    top_parser.set_defaults(fn=cmd_top)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, trim, or clear the on-disk compile cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    for name, help_text in (
        ("stats", "show entry count, bytes used, and the byte budget"),
        ("prune", "evict oldest entries until under the byte budget"),
        ("clear", "delete every cached entry"),
    ):
        sub = cache_sub.add_parser(name, help=help_text)
        sub.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache location (default ~/.cache/repro)")
        sub.add_argument("--cache-max-bytes", type=int, default=None,
                         metavar="N",
                         help="byte budget (also $REPRO_CACHE_MAX_BYTES)")
        sub.set_defaults(fn=cmd_cache)

    report_parser = subparsers.add_parser(
        "report", help="run a whole suite; write tables, figures, JSON"
    )
    report_parser.add_argument("--suite", default=None,
                               choices=["jbytemark", "specjvm98"],
                               help="one suite (default: both)")
    report_parser.add_argument("--out", default="report",
                               help="output directory")
    _driver_args(report_parser)
    report_parser.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0
    except SourceError as exc:
        # A diagnosable input problem is a one-line message, never a
        # traceback: the line/column diagnostic is the whole story.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}",
              file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename or exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
