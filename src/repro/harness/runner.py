"""Experiment runner: compile + execute each workload under each variant.

For every (workload, variant) cell the runner:

1. compiles the workload's 32-bit-form program under the variant config
   (profiles for order determination come from one profiling run of the
   unconverted program, as the paper's mixed-mode interpreter provides);
2. executes the compiled program on the machine-faithful interpreter;
3. checks the observable behaviour (checksums, return value) against the
   unoptimized gold run — any unsound elimination fails loudly;
4. records the dynamic count of remaining 32-bit sign extensions
   (Tables 1/2), modelled cycles (Figures 13/14), and compile timing
   (Table 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core import VARIANTS
from ..core.config import DEFAULT_ENGINE, SignExtConfig
from ..driver import BatchCompiler, CompileJob, fingerprint_program
from ..driver.fingerprint import fingerprint_config
from ..interp import execute
from ..interp.profiler import collect_branch_profiles
from ..machine.costs import CycleReport, count_cycles
from ..machine.model import IA64, MachineTraits
from ..opt.pass_manager import Timing
from ..workloads import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..perf import PerfRecorder


class SoundnessError(AssertionError):
    """An optimization variant changed observable behaviour."""


@dataclass
class CellResult:
    workload: str
    variant: str
    dyn_extend32: int
    dyn_extend16: int
    dyn_extend8: int
    static_extends: int
    cycles: CycleReport
    timing: Timing
    steps: int
    #: full telemetry document for this (workload, variant) cell; only
    #: populated when the runner was asked to collect telemetry
    telemetry: dict | None = None

    def percent_of(self, baseline: "CellResult") -> float:
        if baseline.dyn_extend32 == 0:
            return 100.0 if self.dyn_extend32 == 0 else float("inf")
        return 100.0 * self.dyn_extend32 / baseline.dyn_extend32


@dataclass
class WorkloadResults:
    workload: Workload
    gold_checksum: int
    cells: dict[str, CellResult] = field(default_factory=dict)

    @property
    def baseline(self) -> CellResult:
        return self.cells["baseline"]


def measure_workload(
    workload: Workload,
    variants: dict[str, SignExtConfig] | None = None,
    *,
    traits: MachineTraits = IA64,
    fuel: int = 100_000_000,
    collect_telemetry: bool = False,
    driver: BatchCompiler | None = None,
    engine: str = DEFAULT_ENGINE,
    recorder: "PerfRecorder | None" = None,
    repeat_index: int = 0,
    profile_dir: str | None = None,
) -> WorkloadResults:
    """Run one workload under every variant; verify soundness throughout.

    ``engine`` selects the execution engine for the gold, profiling and
    per-cell runs (``"closure"``/``"reference"``); ``"both"`` runs every
    execution on both engines and fails on any divergence — the
    engine-parity cross-check used by CI.

    All variant compilations go through a :class:`BatchCompiler`: pass
    ``driver`` to share a compile cache and process pool across
    workloads (``repro.api.bench`` does), or leave it ``None`` for a
    private serial driver — the results are identical either way, the
    driver only changes where and whether the compile work happens.

    With ``collect_telemetry=True`` every cell carries its full
    telemetry document (compile-time spans, decision log, and runtime
    metrics), so two benchmark runs become diffable down to individual
    elimination decisions.  Off by default: the paper's Table 3 timing
    numbers must not pay for observability they did not ask for.

    A ``recorder`` (:class:`repro.perf.PerfRecorder`) turns every cell
    into one perf-history record: compile-phase wall times from the
    timing buckets, the measured ``execute`` phase, the deterministic
    extension/step counts, and — when telemetry is collected — the
    cell's counter families.  ``repeat_index`` tags the record when a
    caller runs the same grid several times for min-of-repeats.

    ``profile_dir`` turns every cell run into a profiled execution:
    the interpreter collects per-block entry counts (zero extra work in
    either engine — see :mod:`repro.profile.builder`) and one profile
    artifact per cell lands under the directory, named
    ``<workload>__<variant>__<machine>.profile.json``.
    """
    variants = variants if variants is not None else VARIANTS
    source = workload.program()

    gold = execute(source, engine=engine, mode="ideal", fuel=fuel)
    profiles = collect_branch_profiles(source, fuel=fuel, engine=engine)

    # One digest serves all variant cells of this workload.
    source_fp = fingerprint_program(source)
    jobs = [
        CompileJob(
            label=f"{workload.name}/{name}",
            program=source,
            config=config.with_traits(traits),
            profiles=profiles,
            collect_telemetry=collect_telemetry,
            program_fingerprint=source_fp,
        )
        for name, config in variants.items()
    ]
    if driver is None:
        with BatchCompiler() as private_driver:
            compiled_cells = private_driver.compile_batch(jobs)
    else:
        compiled_cells = driver.compile_batch(jobs)

    results = WorkloadResults(workload=workload, gold_checksum=gold.checksum)
    for (name, config), compiled in zip(variants.items(), compiled_cells):
        telemetry = compiled.telemetry
        metrics = telemetry.metrics if telemetry is not None else None
        execute_start = time.perf_counter()
        run = execute(compiled.program, engine=engine, traits=traits,
                      fuel=fuel, metrics=metrics,
                      collect_profile=profile_dir is not None)
        execute_seconds = time.perf_counter() - execute_start
        if run.observable() != gold.observable():
            raise SoundnessError(
                f"{workload.name} / {name}: observable behaviour changed "
                f"(gold {gold.observable()} vs {run.observable()})"
            )
        cell = CellResult(
            workload=workload.name,
            variant=name,
            dyn_extend32=run.extend_counts.get(32, 0),
            dyn_extend16=run.extend_counts.get(16, 0),
            dyn_extend8=run.extend_counts.get(8, 0),
            static_extends=compiled.static_extend_count,
            cycles=count_cycles(compiled.program, run, traits),
            timing=compiled.timing,
            steps=run.steps,
            telemetry=(telemetry.to_dict() if telemetry is not None
                       else None),
        )
        results.cells[name] = cell
        if profile_dir is not None:
            from ..profile import artifact_path, build_profile, write_profile

            built = build_profile(
                compiled.program, run, traits=traits, engine=engine,
                variant=name, workload=workload.name,
                decisions=(telemetry.decisions if telemetry is not None
                           else None),
            )
            write_profile(built, artifact_path(
                profile_dir, workload.name, name, traits.name))
        if recorder is not None:
            _record_cell(recorder, cell, config=config.with_traits(traits),
                         engine=engine, fuel=fuel,
                         execute_seconds=execute_seconds,
                         metrics=metrics, repeat_index=repeat_index)
    return results


def _record_cell(recorder: "PerfRecorder", cell: CellResult, *,
                 config: SignExtConfig, engine: str, fuel: int,
                 execute_seconds: float, metrics,
                 repeat_index: int) -> None:
    """Emit one perf-history record for a measured cell."""
    phases = cell.timing.as_dict()
    del phases["total"]
    phases["execute"] = execute_seconds
    counters: dict[str, int] = {}
    if metrics is not None:
        counters = dict(metrics.as_dict()["counters"])
    recorder.record_cell(
        workload=cell.workload,
        variant=cell.variant,
        engine=engine,
        machine=config.traits.name,
        fuel=fuel,
        repeat=repeat_index,
        phases=phases,
        measures={
            "dyn_extend32": cell.dyn_extend32,
            "dyn_extend16": cell.dyn_extend16,
            "dyn_extend8": cell.dyn_extend8,
            "static_extends": cell.static_extends,
            "steps": cell.steps,
            "cycles": cell.cycles.total,
            "extend_cycles": cell.cycles.extend_cycles,
        },
        counters=counters,
        config_fingerprint=fingerprint_config(config),
    )


def run_suite(
    workloads: list[Workload],
    variants: dict[str, SignExtConfig] | None = None,
    *,
    traits: MachineTraits = IA64,
    fuel: int = 100_000_000,
    collect_telemetry: bool = False,
    driver: BatchCompiler | None = None,
    engine: str = DEFAULT_ENGINE,
    recorder: "PerfRecorder | None" = None,
    repeat_index: int = 0,
    profile_dir: str | None = None,
) -> list[WorkloadResults]:
    """Measure every workload, sharing one driver across the grid."""
    if driver is None:
        with BatchCompiler() as private_driver:
            return run_suite(workloads, variants, traits=traits, fuel=fuel,
                             collect_telemetry=collect_telemetry,
                             driver=private_driver, engine=engine,
                             recorder=recorder, repeat_index=repeat_index,
                             profile_dir=profile_dir)
    return [
        measure_workload(w, variants, traits=traits, fuel=fuel,
                         collect_telemetry=collect_telemetry,
                         driver=driver, engine=engine, recorder=recorder,
                         repeat_index=repeat_index, profile_dir=profile_dir)
        for w in workloads
    ]
