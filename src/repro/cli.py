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

Every flag is declared once, in :data:`FLAGS`, and every subcommand is
one row of :data:`COMMANDS` naming its flags.  A flag whose ``dest`` is
a config field has no default of its own: when it is not typed it is
absent from the namespace, and :func:`_config` builds the config
(:class:`repro.CompileOptions`, ``CampaignConfig``, ``ServerConfig``,
``LoadtestConfig`` or ``TopConfig``) from the fields that were typed, so
the dataclass supplies every default.  Handlers go through the
:mod:`repro.api` facade; ``--jobs N`` fans compilation out over worker
processes and ``--cache`` reuses prior compilations from the
content-addressed cache (``--cache-dir``, default ``~/.cache/repro``).

Every optimized execution is checked against the unoptimized gold run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import Iterable

from . import api
from .core import VARIANTS
from .core.config import ENGINE_CHOICES, CompileOptions
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


def _given(args: argparse.Namespace, names: Iterable[str]) -> dict:
    """The config fields among ``names`` that the command line set.

    Config-backed flags default to ``argparse.SUPPRESS``, so a field is
    in ``args`` only when its flag was typed.  Lists (``nargs="+"``,
    ``action="append"``) become tuples.
    """
    values = vars(args)
    return {
        name: tuple(values[name]) if isinstance(values[name], list)
        else values[name]
        for name in names if name in values
    }


def _config(cls, args: argparse.Namespace, **values):
    """A ``cls`` dataclass from the typed flags, overridden by ``values``;
    every other field keeps the dataclass default."""
    fields = (field.name for field in dataclasses.fields(cls))
    return cls(**{**_given(args, fields), **values})


def _options(args: argparse.Namespace) -> CompileOptions:
    """The command's :class:`CompileOptions`.  ``--telemetry`` names an
    output file; typing it means "collect telemetry"."""
    return _config(CompileOptions, args,
                   telemetry=getattr(args, "telemetry", None) is not None)


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
    options = _options(args)
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

    options = _options(args)
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

    options = _options(args)
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

    options = _options(args)
    program = _load(args.file)
    telemetry = Telemetry(label=pathlib.Path(args.file).stem)
    compiled = compile_ir(program, options.config(), telemetry=telemetry)
    run = execute(compiled.program, traits=options.traits(),
                  fuel=options.fuel, metrics=telemetry.metrics)

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
    options = _options(args)
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

    options = _options(args)
    program = _load(args.file)
    traits = options.traits()
    gold = execute(program, mode="ideal", fuel=options.fuel)
    baseline = None
    print(f"{'variant':30s}{'dyn ext32':>12s}{'% of base':>12s}"
          f"{'cycles':>14s}")
    for name, config in VARIANTS.items():
        compiled = api.compile(program, config=config.with_traits(traits))
        run = execute(compiled.program, traits=traits, fuel=options.fuel)
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
    options = _options(args)
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

    options = _options(args)
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

    config = _config(CampaignConfig, args)
    telemetry = (Telemetry(label="fuzz-campaign")
                 if args.telemetry is not None else None)
    result = api.fuzz_campaign(config, telemetry=telemetry)

    cells = len(config.cell_configs())
    print(f"corpus    : {result.corpus_dir} "
          f"({result.regressions_checked} witnesses replayed, "
          f"{result.regressions_failing} still failing)")
    if not config.replay_only:
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

    options = _options(args)
    store = HistoryStore(args.history)
    recorder = PerfRecorder(store, source="cli")
    # Only typed grid flags reach record_grid; its defaults are the grid.
    grid = _given(args, ("workloads", "engines", "variants", "repeat"))
    if args.all_variants:
        grid["variants"] = tuple(VARIANTS)
    summary = record_grid(**grid, options=options, recorder=recorder)
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
    options = _options(args)
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

    config = _config(ServerConfig, args)

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
    from .perf import HistoryStore, PerfRecorder, recorder_from_env
    from .serve import (
        Loadtest,
        LoadtestConfig,
        ServerConfig,
        ServerThread,
        record_report,
    )

    config = _config(LoadtestConfig, args)
    spawned = None
    if args.spawn:
        # The spawned server takes only its pool sizes from the flags.
        spawned = ServerThread(ServerConfig(
            port=0, **_given(args, ("workers", "queue_limit")),
        )).start()
        config = dataclasses.replace(config, url=spawned.base_url)
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

    return run_top(_config(TopConfig, args), once=args.once,
                   as_json=args.as_json)


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or trim the on-disk compile cache."""
    from .driver import CompileCache, default_cache_dir

    options = _options(args)
    cache_dir = pathlib.Path(options.cache_dir) if options.cache_dir \
        else default_cache_dir()
    cache = CompileCache(cache_dir, max_bytes=options.cache_max_bytes)

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


def _field(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """A flag that sets the config field named by its ``dest``.  It has
    no default: untyped, the field keeps the config's own."""
    return names, {"default": argparse.SUPPRESS, **kwargs}


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """A flag (or positional) that only its handler reads."""
    return names, kwargs


#: Every flag, declared once: key -> (option strings, ``add_argument``
#: keywords).  Two keys share option strings only where the flag means
#: two different things (``--timeout``, ``--json``, ``--out``,
#: ``--variant``).
FLAGS = {
    "file": _flag("file", help="a .j32 source file"),
    "file_or_workload": _flag("file", help="a .j32 file or a workload name"),
    "files": _flag("files", nargs="+", metavar="FILE",
                   help=".j32 source files"),
    "workload": _flag("workload", help="a workload name"),
    "target": _flag("target", help="workload name or a .j32 file"),
    # -- CompileOptions (and the same fields of the other configs)
    "variant": _field("--variant", choices=sorted(VARIANTS),
                      help="optimization variant (a Table 1/2 row)"),
    "machine": _field("--machine", choices=sorted(MACHINES),
                      help="target traits"),
    "fuel": _field("--fuel", type=int,
                   help="interpreter step budget per execution (serve: "
                        "for requests that set none)"),
    "engine": _field("--engine", choices=ENGINE_CHOICES,
                     help="execution engine: pre-translated closure code "
                          "(default), the reference interpreter, or both "
                          "with a parity cross-check"),
    "profile_dir": _field("--profile-dir", metavar="DIR",
                          help="write execution-profile artifacts under "
                               "DIR (bench: one per variant cell; fuzz: "
                               "each new witness's gold run, for triage)"),
    "dir": _field("--dir", dest="profile_dir", metavar="DIR",
                  help="write the profile artifact under DIR"),
    "jobs": _field("--jobs", type=_int_in(1), metavar="N",
                   help="compile over N worker processes"),
    "cache": _field("--cache", action="store_true",
                    help="reuse compilations from the compile cache"),
    "cache_dir": _field("--cache-dir", metavar="DIR",
                        help="compile cache location (default "
                             "~/.cache/repro; serve: memory-only)"),
    "cache_max_bytes": _field("--cache-max-bytes", type=int, metavar="N",
                              help="byte budget for the on-disk cache "
                                   "tier (oldest entries evicted; also "
                                   "honours $REPRO_CACHE_MAX_BYTES)"),
    "timeout": _field("--timeout", type=float, metavar="SEC",
                      help="per-job pool timeout before in-process "
                           "fallback"),
    # -- handler outputs
    "telemetry": _flag("--telemetry", metavar="OUT.JSON",
                       help="write the full telemetry document (spans, "
                            "metrics, decision log) here"),
    "stats": _flag("--stats", metavar="OUT.JSON",
                   help="write driver cache/pool counters here"),
    "json": _flag("--json", metavar="OUT.JSON",
                  help="also write the report as JSON here"),
    "trace_out": _flag("--out", default="trace.json",
                       help="Chrome trace_event output path"),
    "full": _flag("--full", metavar="OUT.JSON",
                  help="also write the full telemetry document "
                       "(metrics + decision log)"),
    "ir": _flag("--ir", action="store_true",
                help="print the hotness-annotated IR dump"),
    "flame": _flag("--flame", metavar="OUT.TXT",
                   help="write collapsed flamegraph stacks"),
    "heatmap": _flag("--heatmap", metavar="OUT.HTML",
                     help="write the standalone heatmap panel"),
    "report_dir": _flag("--out", default="report",
                        help="output directory"),
    "suite": _flag("--suite", choices=["jbytemark", "specjvm98"],
                   help="one suite (default: both)"),
    # -- CampaignConfig
    "seeds": _field("--seeds", type=int,
                    help="number of consecutive generator seeds"),
    "seed_start": _field("--seed-start", type=int, metavar="N",
                         help="first seed (shards the seed space across "
                              "campaigns)"),
    "time_budget": _field("--time-budget", type=float, metavar="SEC",
                          help="stop fuzzing new seeds after SEC seconds "
                               "of wall clock"),
    "corpus_dir": _field("--corpus-dir", metavar="DIR",
                         help="divergence corpus location (default "
                              "~/.cache/repro/fuzz-corpus)"),
    "variants": _field("--variant", dest="variants", action="append",
                       choices=sorted(VARIANTS), metavar="NAME",
                       help="restrict to this variant (repeatable; "
                            "default: all 12)"),
    "machines": _field("--machines", nargs="+", choices=sorted(MACHINES),
                       help="machine lowerings to cross-check"),
    "reduce": _field("--reduce", action=argparse.BooleanOptionalAction,
                     help="shrink new witnesses with the delta-debugging "
                          "reducer"),
    "replay_only": _field("--replay", dest="replay_only",
                          action="store_true",
                          help="only replay corpus witnesses as "
                               "regressions; fuzz no new seeds"),
    "max_divergences": _field("--max-divergences", type=int, metavar="N",
                              help="stop after N new divergences"),
    "inject_bug": _field("--inject-bug", action="store_true",
                         help="DEBUG: compile with a deliberately broken "
                              "AnalyzeDEF to self-test the campaign "
                              "oracle"),
    # -- record_grid's keywords
    "workloads": _field("--workloads", nargs="+",
                        choices=JBYTEMARK + SPECJVM98, metavar="NAME",
                        help="workloads in the grid (default: fourier "
                             "huffman)"),
    "engines": _field("--engines", nargs="+", choices=ENGINE_CHOICES,
                      help="execution engines to measure"),
    "grid_variants": _field("--variants", nargs="+",
                            choices=sorted(VARIANTS), metavar="NAME",
                            help="variants in the grid (default: "
                                 "baseline + the full new algorithm)"),
    "repeat": _field("--repeat", type=int,
                     help="repeats per cell (min-of-repeats is applied "
                          "at compare time)"),
    "all_variants": _flag("--all-variants", action="store_true",
                          help="measure all 12 table variants"),
    # -- perf history
    "history": _flag("--history", metavar="DIR",
                     help="perf history location (default "
                          "~/.cache/repro/perf-history; loadtest records "
                          "only when given or $REPRO_PERF_DIR is set)"),
    "against": _flag("--against", metavar="JSONL",
                     help="baseline records (e.g. the repo-committed "
                          "perf/baseline.jsonl); default: the previous "
                          "recorded run"),
    "threshold": _flag("--threshold", default="10%", metavar="PCT",
                       help="relative wall-time noise floor (default "
                            "10%%)"),
    "fail_on_regression": _flag("--fail-on-regression", nargs="?",
                                const="10%", metavar="PCT",
                                help="exit 1 on any regression beyond PCT "
                                     "(default 10%% when given bare)"),
    "verbose": _flag("--verbose", action="store_true",
                     help="print every metric, not just regressions"),
    "baseline": _flag("--baseline", metavar="JSONL",
                      help="also merge a baseline file into the plots"),
    "dashboard_out": _flag("--out", default="perf-report.html",
                           help="dashboard output path"),
    "profiles": _flag("--profiles", metavar="DIR",
                      help="embed per-workload hot-block heatmaps from "
                           "the profile artifacts under DIR"),
    # -- ServerConfig
    "host": _field("--host", help="listen address"),
    "port": _field("--port", type=_int_in(0, 65535),
                   help="listen port (0 = ephemeral)"),
    "workers": _field("--workers", type=_int_in(1), metavar="N",
                      help="worker threads executing jobs (loadtest: of "
                           "a --spawn server)"),
    "queue_limit": _field("--queue-limit", type=int, metavar="N",
                          help="max admitted jobs before requests are "
                               "shed with 429 (loadtest: of a --spawn "
                               "server)"),
    "retry_after": _field("--retry-after", type=float, metavar="SEC",
                          help="Retry-After hint on shed requests"),
    "flight_capacity": _field("--flight-capacity", type=int, metavar="N",
                              help="flight-recorder ring size (recent "
                                   "requests kept for /debugz)"),
    "flight_dir": _field("--flight-dir", metavar="DIR",
                         help="write a JSONL flight dump here on every "
                              "5xx (default: no artifacts)"),
    "log_path": _field("--log", dest="log_path", metavar="FILE",
                       help="structured JSONL access/event log with "
                            "size-based rotation"),
    "slo_window_s": _field("--slo-window", dest="slo_window_s", type=float,
                           metavar="SEC", help="rolling SLO window length"),
    "slo_target_p95_ms": _field("--slo-p95-ms", dest="slo_target_p95_ms",
                                type=float, metavar="MS",
                                help="windowed p95 latency target"),
    "slo_target_error_rate": _field("--slo-error-rate",
                                    dest="slo_target_error_rate",
                                    type=float, metavar="RATE",
                                    help="windowed error-rate budget "
                                         "(0.01 = 99%% success)"),
    "debug_hooks": _field("--debug-hooks", action="store_true",
                          help="honour client fault-injection fields "
                               "(tests/CI only)"),
    # -- LoadtestConfig and TopConfig
    "url": _field("--url", help="server base URL"),
    "spawn": _flag("--spawn", action="store_true",
                   help="spawn an in-process server on an ephemeral port "
                        "instead of --url"),
    "requests": _field("--requests", type=int, metavar="N",
                       help="requests to send"),
    "concurrency": _field("--concurrency", type=int, metavar="N",
                          help="closed-loop client count"),
    "mode": _field("--mode", choices=["closed", "open"],
                   help="closed-loop (clients wait for answers) or "
                        "open-loop (fixed request schedule)"),
    "rate": _field("--rate", type=float, metavar="RPS",
                   help="open-loop offered request rate"),
    "ops": _field("--ops", nargs="+", choices=["run", "compile"],
                  help="endpoint mix (repeat to weight)"),
    "seed": _field("--seed", type=int, help="workload-mix RNG seed"),
    "verify": _field("--no-verify", dest="verify", action="store_false",
                     help="skip the bit-identity check against local "
                          "execution"),
    "trace_path": _field("--trace", dest="trace_path", metavar="OUT.JSON",
                         help="export a merged client+server Chrome trace "
                              "correlated on X-Repro-Trace-Id"),
    "interval": _field("--interval", type=float, metavar="SEC",
                       help="refresh interval"),
    "rows": _field("--rows", type=int, metavar="N",
                   help="hottest-request rows shown"),
    "poll_timeout": _field("--timeout", type=float, metavar="SEC",
                           help="per-poll request timeout"),
    "once": _flag("--once", action="store_true",
                  help="sample once and exit"),
    "as_json": _flag("--json", dest="as_json", action="store_true",
                     help="with --once: print the sample as JSON "
                          "(scripting mode)"),
}

_COMPILE = ("variant", "machine", "fuel")
_DRIVER = ("jobs", "cache", "cache_dir", "cache_max_bytes", "timeout",
           "stats")
_CACHE = ("cache_dir", "cache_max_bytes")

#: One row per subcommand: (path, handler, help, flag keys).  A row with
#: no handler is a command group; its subcommands' rows follow it.
COMMANDS = (
    (("run",), cmd_run, "compile and execute",
     ("file", *_COMPILE, "telemetry", "engine")),
    (("ir",), cmd_ir, "dump optimized IR",
     ("file_or_workload", *_COMPILE, "telemetry")),
    (("compile",), cmd_compile,
     "batch-compile files through the parallel, cache-aware driver",
     ("files", *_COMPILE, *_DRIVER)),
    (("trace",), cmd_trace,
     "compile + run under full telemetry; write a Chrome about://tracing "
     "JSON",
     ("file", "trace_out", "full", *_COMPILE)),
    (("asm",), cmd_asm, "dump assembly-flavoured lowering",
     ("file", *_COMPILE)),
    (("variants",), cmd_variants, "run all 12 algorithm variants",
     ("file", "machine", "fuel")),
    (("bench",), cmd_bench, "sweep one named benchmark workload",
     ("workload", "json", "telemetry", "profile_dir", "engine", *_DRIVER)),
    (("profile",), cmd_profile,
     "profile one workload: hot blocks, annotated IR, flamegraph stacks, "
     "HTML heatmap (docs/PROFILING.md)",
     ("target", "dir", "ir", "flame", "heatmap", *_COMPILE, "engine")),
    (("fuzz",), cmd_fuzz,
     "differential fuzzing campaign across all variants and machine "
     "lowerings",
     ("seeds", "seed_start", "jobs", "time_budget", "corpus_dir",
      "variants", "machines", "fuel", "reduce", "replay_only",
      "max_divergences", "inject_bug", "profile_dir", "json", "telemetry",
      "engine")),
    (("perf",), None,
     "benchmark history: record runs, gate regressions, render the HTML "
     "dashboard (docs/PERF.md)", ()),
    (("perf", "record"), cmd_perf_record,
     "run the fixed perf grid; append one record per cell repeat to the "
     "history",
     ("workloads", "engines", "grid_variants", "all_variants", "repeat",
      "history", "machine", "fuel", *_DRIVER)),
    (("perf", "compare"), cmd_perf_compare,
     "compare the latest recorded run against a baseline; classify every "
     "cell",
     ("history", "against", "threshold", "fail_on_regression", "json",
      "verbose")),
    (("perf", "report"), cmd_perf_report,
     "render the history as a self-contained HTML dashboard + terminal "
     "summary",
     ("history", "baseline", "dashboard_out", "profiles")),
    (("serve",), cmd_serve,
     "compile-as-a-service: async HTTP front door with coalescing and "
     "backpressure (docs/SERVING.md)",
     ("host", "port", "workers", "queue_limit", "retry_after", *_CACHE,
      "fuel", "flight_capacity", "flight_dir", "log_path", "slo_window_s",
      "slo_target_p95_ms", "slo_target_error_rate", "debug_hooks")),
    (("loadtest",), cmd_loadtest,
     "drive a repro serve with a seeded workload mix; verify "
     "bit-identity and record latency percentiles (docs/SERVING.md)",
     ("url", "spawn", "requests", "concurrency", "mode", "rate", "ops",
      "seed", "verify", "workers", "queue_limit", "json", "trace_path",
      "history", *_COMPILE, "engine")),
    (("top",), cmd_top,
     "live dashboard over a running repro serve: throughput, latency, "
     "SLO burn, hottest requests (docs/OBSERVABILITY.md)",
     ("url", "interval", "rows", "poll_timeout", "once", "as_json")),
    (("cache",), None, "inspect, trim, or clear the on-disk compile cache",
     ()),
    (("cache", "stats"), cmd_cache,
     "show entry count, bytes used, and the byte budget", _CACHE),
    (("cache", "prune"), cmd_cache,
     "evict oldest entries until under the byte budget", _CACHE),
    (("cache", "clear"), cmd_cache, "delete every cached entry", _CACHE),
    (("report",), cmd_report,
     "run a whole suite; write tables, figures, JSON",
     ("suite", "report_dir", *_DRIVER)),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser, built from :data:`COMMANDS` and
    :data:`FLAGS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Effective Sign Extension Elimination (PLDI 2002) — "
                    "compile, optimize, and measure J32 programs.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, handler, help_text, flags in COMMANDS:
        sub = groups[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            groups[path] = sub.add_subparsers(
                dest=f"{path[-1]}_command", required=True)
            continue
        for key in flags:
            names, kwargs = FLAGS[key]
            sub.add_argument(*names, **kwargs)
        sub.set_defaults(fn=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
