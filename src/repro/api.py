"""The stable public facade of the reproduction.

Three verbs cover everything external callers do::

    import repro

    result = repro.compile("kernel.j32")          # -> CompileResult
    outcome = repro.run("kernel.j32")             # -> RunResult
    suite = repro.bench(["huffman", "compress"])  # -> SuiteResult

Each takes an optional :class:`~repro.core.config.CompileOptions`
(variant, machine, fuel, telemetry, ``jobs``/``cache`` driver knobs) so
call sites no longer thread loose keyword arguments around.  ``source``
may be a :class:`~repro.ir.function.Program`, a path to a ``.j32``
file, or J32 source text — whatever is most convenient.

Everything below this facade (``repro.core``, ``repro.harness``,
``repro.driver``) remains importable for IR-level work, but only the
names exported here are covered by the deprecation policy documented
in docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from .analysis.frequency import BranchProfile
from .core.config import CompileOptions, SignExtConfig
from .core.pipeline import CompileResult, compile_ir
from .driver import BatchCompiler, CompileCache, CompileJob, default_cache_dir
from .frontend import compile_source
from .fuzz import CampaignConfig, CampaignResult
from .fuzz import run_campaign as _run_campaign
from .harness import (
    SoundnessError,
    WorkloadResults,
    results_to_dict,
    run_suite,
)
from .interp import default_translation_cache, execute
from .ir.function import Program
from .machine.costs import CycleReport, count_cycles
from .profile import ExecutionProfile, artifact_path, build_profile, write_profile
from .telemetry import Telemetry
from .workloads import Workload, get_workload

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CompileOptions",
    "CompileResult",
    "ProfileResult",
    "RunResult",
    "SuiteResult",
    "bench",
    "compile",
    "driver_from_options",
    "fuzz_campaign",
    "profile",
    "run",
]


def _coerce_program(source: Program | str | Path,
                    name: str = "program") -> Program:
    """Accept a Program, a ``.j32`` path, or J32 source text."""
    if isinstance(source, Program):
        return source
    if isinstance(source, Path):
        return compile_source(source.read_text(), source.stem)
    if isinstance(source, str):
        # A path if it plausibly is one and exists; source text otherwise.
        if "\n" not in source:
            candidate = Path(source)
            try:
                exists = candidate.exists()
            except OSError:  # e.g. a one-line source past the name limit
                exists = False
            if exists:
                return compile_source(candidate.read_text(), candidate.stem)
            if source.endswith(".j32"):
                raise FileNotFoundError(source)
        return compile_source(source, name)
    raise TypeError(f"cannot compile {type(source).__name__}")


def driver_from_options(
    options: CompileOptions,
    *,
    telemetry: Telemetry | None = None,
) -> BatchCompiler:
    """The :class:`BatchCompiler` an options object describes."""
    cache = None
    if options.cache:
        cache_dir = (Path(options.cache_dir) if options.cache_dir
                     else default_cache_dir())
        cache = CompileCache(cache_dir, max_bytes=options.cache_max_bytes)
    return BatchCompiler(
        jobs=options.jobs,
        cache=cache,
        timeout=options.timeout,
        metrics=cache.metrics if cache is not None else None,
        telemetry=telemetry,
    )


def compile(
    source: Program | str | Path,
    options: CompileOptions | None = None,
    *,
    config: SignExtConfig | None = None,
    profiles: dict[str, BranchProfile] | None = None,
    driver: BatchCompiler | None = None,
    trace_id: str | None = None,
) -> CompileResult:
    """Compile ``source`` and return the optimized program + statistics.

    ``config`` overrides the variant/machine the options select (for
    ablation-style custom :class:`SignExtConfig` objects); ``profiles``
    supplies branch profiles for order determination.  ``driver``
    optionally routes the compilation through a caller-owned
    :class:`BatchCompiler` — long-lived services (``repro serve``)
    mount one driver so every request shares a single
    :class:`CompileCache` instead of re-opening it per call.
    ``trace_id`` is the request correlation token those services mint;
    it labels any telemetry this compilation produces and never affects
    the compilation itself.
    """
    options = options if options is not None else CompileOptions()
    program = _coerce_program(source)
    cfg = config if config is not None else options.config()

    if driver is not None:
        return driver.compile_one(CompileJob(
            label=program.name,
            program=program,
            config=cfg,
            profiles=profiles,
            collect_telemetry=options.telemetry,
            trace_id=trace_id,
        ))
    if options.cache or options.jobs > 1:
        with driver_from_options(options) as owned:
            return owned.compile_one(CompileJob(
                label=program.name,
                program=program,
                config=cfg,
                profiles=profiles,
                collect_telemetry=options.telemetry,
                trace_id=trace_id,
            ))
    telemetry = Telemetry(label=program.name) if options.telemetry else None
    # A program lowered from text or a path here is held by nothing else,
    # so only a caller's ``Program`` needs a defensive clone.
    return compile_ir(program, cfg, profiles,
                      clone=isinstance(source, Program), telemetry=telemetry)


@dataclass
class RunResult:
    """One compile-and-execute, verified against the unoptimized run."""

    compile: CompileResult
    ret_value: int | float | None
    checksum: int
    steps: int
    extend_counts: dict[int, int]
    cycles: CycleReport
    gold_checksum: int
    #: soundness check passed (``run`` raises otherwise, so always True)
    verified: bool = True

    @property
    def telemetry(self) -> Telemetry | None:
        return self.compile.telemetry


def run(
    source: Program | str | Path,
    options: CompileOptions | None = None,
    *,
    config: SignExtConfig | None = None,
    driver: BatchCompiler | None = None,
    trace_id: str | None = None,
) -> RunResult:
    """Compile ``source``, execute it, and verify observable behaviour.

    Raises :class:`~repro.harness.SoundnessError` if the optimized
    program's observable behaviour diverges from the unoptimized gold
    run.  ``driver`` routes the compile through a caller-owned
    :class:`BatchCompiler`, and ``trace_id`` labels request-scoped
    telemetry (see :func:`compile`).
    """
    options = options if options is not None else CompileOptions()
    program = _coerce_program(source)
    traits = config.traits if config is not None else options.traits()

    gold = execute(program, engine=options.engine, mode="ideal",
                   fuel=options.fuel)
    compiled = compile(program, options, config=config, driver=driver,
                       trace_id=trace_id)
    metrics = (compiled.telemetry.metrics
               if compiled.telemetry is not None else None)
    execution = execute(compiled.program, engine=options.engine,
                        traits=traits, fuel=options.fuel, metrics=metrics)
    if execution.observable() != gold.observable():
        raise SoundnessError(
            f"{program.name}: observable behaviour changed "
            f"(gold {gold.observable()} vs {execution.observable()})"
        )
    return RunResult(
        compile=compiled,
        ret_value=execution.ret_value,
        checksum=execution.checksum,
        steps=execution.steps,
        extend_counts=dict(execution.extend_counts),
        cycles=count_cycles(compiled.program, execution, traits),
        gold_checksum=gold.checksum,
    )


@dataclass
class ProfileResult:
    """A profiled compile-and-execute (see :func:`profile`)."""

    compile: CompileResult
    profile: ExecutionProfile
    #: artifact location when ``options.profile_dir`` was set
    artifact: Path | None = None

    @property
    def telemetry(self) -> Telemetry | None:
        return self.compile.telemetry


def profile(
    source: Program | str | Path | Workload,
    options: CompileOptions | None = None,
    *,
    config: SignExtConfig | None = None,
    workload: str = "",
) -> ProfileResult:
    """Compile ``source``, execute it under profiling, and return the
    :class:`~repro.profile.ExecutionProfile`.

    Telemetry is always collected so the profile can inline the
    compile-time elimination verdicts at surviving extend sites.  When
    ``options.profile_dir`` is set the artifact is also written there
    (deterministic JSON, see docs/PROFILING.md) and its path returned.
    ``engine="both"`` keeps the parity check: both engines run, and the
    profile is built from the closure engine's result.
    """
    options = options if options is not None else CompileOptions()
    if isinstance(source, Workload):
        workload = workload or source.name
        source = source.program()
    program = _coerce_program(source)
    traits = config.traits if config is not None else options.traits()

    if not options.telemetry:
        options = replace(options, telemetry=True)
    compiled = compile(program, options, config=config)
    execution = execute(compiled.program, engine=options.engine,
                        traits=traits, fuel=options.fuel,
                        collect_profile=True)
    decisions = (compiled.telemetry.decisions
                 if compiled.telemetry is not None else None)
    built = build_profile(
        compiled.program, execution,
        traits=traits,
        engine=options.engine,
        variant=options.variant,
        machine=options.machine,
        workload=workload,
        decisions=decisions,
    )
    artifact = None
    if options.profile_dir:
        artifact = artifact_path(options.profile_dir, workload or program.name,
                                 options.variant, options.machine)
        write_profile(built, artifact)
    return ProfileResult(compile=compiled, profile=built, artifact=artifact)


@dataclass
class SuiteResult:
    """A benchmark sweep plus the driver statistics it accumulated."""

    results: list[WorkloadResults]
    driver_stats: dict[str, int] = field(default_factory=dict)

    def workload(self, name: str) -> WorkloadResults:
        for result in self.results:
            if result.workload.name == name:
                return result
        raise KeyError(name)

    @property
    def cache_hits(self) -> int:
        return self.driver_stats.get("hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.driver_stats.get("misses", 0)

    def to_dict(self) -> dict[str, Any]:
        return results_to_dict(self.results)

    def write_json(self, path: str | Path) -> None:
        from .harness import export_json

        export_json(self.results, str(path))


def bench(
    workloads: Iterable[Workload | str] | None = None,
    variants: dict[str, SignExtConfig] | None = None,
    options: CompileOptions | None = None,
    *,
    driver: BatchCompiler | None = None,
) -> SuiteResult:
    """Sweep ``workloads`` × ``variants`` through the batch driver.

    ``workloads`` accepts :class:`Workload` objects or registry names
    (``None`` means the full 17-workload grid); ``variants`` defaults
    to the paper's twelve table rows.  ``options.jobs`` and
    ``options.cache`` turn on parallel compilation and the compile
    cache; every cell is still verified against its gold run.
    ``driver`` reuses a caller-owned :class:`BatchCompiler` instead of
    opening (and closing) one per sweep.
    """
    from .workloads import all_workloads

    options = options if options is not None else CompileOptions()
    if workloads is None:
        resolved = all_workloads()
    else:
        resolved = [
            w if isinstance(w, Workload) else get_workload(w)
            for w in workloads
        ]

    def _sweep(active: BatchCompiler) -> SuiteResult:
        results = run_suite(
            resolved,
            variants,
            traits=options.traits(),
            fuel=options.fuel,
            collect_telemetry=options.telemetry,
            driver=active,
            engine=options.engine,
            profile_dir=options.profile_dir,
        )
        stats = dict(active.stats())
        stats.update(default_translation_cache().stats())
        return SuiteResult(results=results, driver_stats=stats)

    if driver is not None:
        return _sweep(driver)
    with driver_from_options(options) as owned:
        return _sweep(owned)


def fuzz_campaign(
    config: CampaignConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> CampaignResult:
    """Run one differential fuzzing campaign (see :mod:`repro.fuzz`).

    Generates seeded J32 programs, compiles every (variant, machine)
    cell through the batch driver, and checks each cell against the
    unoptimized gold run.  Divergences persist to the on-disk corpus
    and — unless ``config.reduce`` is off — are shrunk to minimal
    witnesses; known witnesses replay as regressions first.
    """
    return _run_campaign(config, telemetry=telemetry)
