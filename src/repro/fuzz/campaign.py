"""The fuzzing campaign orchestrator.

One :class:`Campaign` run turns the repository's strongest soundness
check — "no variant may change observable behaviour" — into a scalable
batch process:

1. **regression phase** — every witness already in the divergence
   corpus is replayed first, so a previously-found miscompile that
   resurfaces is reported before any new seed is spent;
2. **generation** — seeded J32 programs come from
   :mod:`repro.testing.genprog` (same seed, same program, forever);
3. **compilation** — every (program, variant, machine) cell fans out
   over the existing :class:`~repro.driver.BatchCompiler` process pool;
4. **oracle** — each cell is checked against the gold run
   (:mod:`repro.fuzz.oracle`): output, trap behaviour, heap state,
   lowering and cost-model consistency;
5. **reduction + persistence** — divergent seeds are shrunk by the
   delta-debugging reducer and written to the corpus with full
   metadata.

Progress is observable through ``fuzz.campaign.*`` counters and
per-stage spans when a :class:`~repro.telemetry.Telemetry` object is
attached (see docs/TELEMETRY.md); without one the campaign still keeps
its own private registry so :class:`CampaignResult.stats` is always
populated.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

from ..core.config import (
    DEFAULT_ENGINE,
    ENGINE_CHOICES,
    SignExtConfig,
    VARIANTS,
)
from ..core.pipeline import compile_ir
from ..driver import BatchCompiler, CompileJob
from ..frontend import compile_source
from ..machine import MACHINES
from ..telemetry import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..testing import generate_program
from .corpus import Corpus, Witness
from .oracle import KIND_CRASH, check_compiled, observe
from .reducer import reduce_source

#: Pseudo-variant recorded when the *frontend* rejects or crashes on a
#: generated program (no real variant/machine cell is involved).
FRONTEND_VARIANT = "<frontend>"


@dataclass(frozen=True)
class CampaignConfig:
    """Every knob of one fuzzing campaign."""

    #: number of seeds to fuzz (seed values are consecutive)
    seeds: int = 1000
    #: first seed value (campaigns shard the seed space by offsetting)
    seed_start: int = 0
    #: process-pool width for the batch compiler
    jobs: int = 1
    #: wall-clock budget in seconds (``None`` = unbounded)
    time_budget: float | None = None
    #: corpus location (``None`` = ``~/.cache/repro/fuzz-corpus``)
    corpus_dir: str | None = None
    #: variant names to differentiate (default: all 12 table rows)
    variants: tuple[str, ...] = tuple(VARIANTS)
    #: machine models to cross-check (default: both lowerings)
    machines: tuple[str, ...] = ("ia64", "ppc64")
    #: interpreter step budget per execution
    fuel: int = 2_000_000
    #: shrink each new witness with the delta-debugging reducer
    reduce: bool = True
    #: predicate-evaluation budget per reduction
    reduce_attempts: int = 1500
    #: fault injection: compile with ``debug_skip_def_check`` set, so the
    #: campaign must find (and reduce) the resulting miscompiles
    inject_bug: bool = False
    #: replay corpus witnesses before fuzzing new seeds
    replay_corpus: bool = True
    #: only replay the corpus; generate no new seeds
    replay_only: bool = False
    #: stop after this many new divergences (``None`` = keep going)
    max_divergences: int | None = None
    #: seeds generated/compiled per driver batch
    batch_seeds: int = 8
    #: execution engine for every interpreter run; ``"both"`` also
    #: cross-checks reference/closure parity on every compiled cell
    engine: str = DEFAULT_ENGINE
    #: write an execution-profile artifact of every new witness's gold
    #: run under this directory (divergence triage: the profile shows
    #: which blocks the diverging program actually exercises)
    profile_dir: str | None = None

    def __post_init__(self) -> None:
        for name in self.variants:
            if name not in VARIANTS:
                raise ValueError(f"unknown variant: {name!r}")
        for name in self.machines:
            if name not in MACHINES:
                raise ValueError(f"unknown machine: {name!r}")
        if self.seeds < 0:
            raise ValueError("seeds must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown engine: {self.engine!r}")

    def cell_configs(self) -> list[tuple[str, str, SignExtConfig]]:
        """``(variant, machine, config)`` for every differential cell."""
        cells = []
        for machine in self.machines:
            traits = MACHINES[machine]
            for variant in self.variants:
                config = VARIANTS[variant].with_traits(traits)
                if self.inject_bug:
                    config = replace(config, debug_skip_def_check=True)
                cells.append((variant, machine, config))
        return cells


@dataclass
class CampaignResult:
    """Everything one campaign run established."""

    seeds_run: int = 0
    cells_checked: int = 0
    #: new witnesses found this run (persisted to the corpus)
    divergences: list[Witness] = field(default_factory=list)
    regressions_checked: int = 0
    #: corpus witnesses that still reproduce a divergence
    regressions_failing: int = 0
    skipped_seeds: int = 0
    duration: float = 0.0
    budget_exhausted: bool = False
    corpus_dir: str = ""
    #: ``fuzz.campaign.*`` counter snapshot
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No new divergence and no still-failing regression."""
        return not self.divergences and self.regressions_failing == 0

    def divergence_kinds(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for witness in self.divergences:
            kinds[witness.kind] = kinds.get(witness.kind, 0) + 1
        return kinds

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seeds_run": self.seeds_run,
            "cells_checked": self.cells_checked,
            "divergences": [w.to_dict() for w in self.divergences],
            "divergence_kinds": self.divergence_kinds(),
            "regressions_checked": self.regressions_checked,
            "regressions_failing": self.regressions_failing,
            "skipped_seeds": self.skipped_seeds,
            "duration": self.duration,
            "budget_exhausted": self.budget_exhausted,
            "corpus_dir": self.corpus_dir,
            "stats": dict(self.stats),
        }


def _batches(start: int, count: int, size: int):
    position = start
    end = start + count
    while position < end:
        yield range(position, min(position + size, end))
        position = min(position + size, end)


class Campaign:
    """Drives one differential fuzzing campaign."""

    def __init__(self, config: CampaignConfig | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.config = config if config is not None else CampaignConfig()
        self.telemetry = telemetry
        self.metrics = (telemetry.metrics if telemetry is not None
                        else MetricsRegistry())
        self.corpus = Corpus(self.config.corpus_dir)

    # -- small helpers -------------------------------------------------------

    def _span(self, name: str, **args):
        if self.telemetry is None:
            return contextlib.nullcontext()
        return self.telemetry.span(name, category="fuzz", **args)

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        self.metrics.counter(f"fuzz.campaign.{name}", **labels).inc(amount)

    # -- the campaign --------------------------------------------------------

    def run(self) -> CampaignResult:
        config = self.config
        started = time.monotonic()
        deadline = (started + config.time_budget
                    if config.time_budget is not None else None)
        result = CampaignResult(corpus_dir=str(self.corpus.directory))
        cells = config.cell_configs()

        with self._span("fuzz.campaign", seeds=config.seeds,
                        cells=len(cells)):
            driver = BatchCompiler(jobs=config.jobs, metrics=self.metrics)
            with driver:
                if config.replay_corpus or config.replay_only:
                    self._replay_corpus(result, deadline)
                if not config.replay_only:
                    self._fuzz_new_seeds(driver, cells, result, deadline)

        result.duration = time.monotonic() - started
        result.stats = self._stats_snapshot()
        return result

    def _stats_snapshot(self) -> dict[str, int]:
        counters = self.metrics.as_dict()["counters"]
        return {name: value for name, value in counters.items()
                if name.startswith("fuzz.campaign.")}

    # -- regression phase ----------------------------------------------------

    def _replay_corpus(self, result: CampaignResult,
                       deadline: float | None) -> None:
        entries = self.corpus.entries()
        with self._span("fuzz.replay", witnesses=len(entries)):
            for witness in entries:
                if deadline is not None and time.monotonic() > deadline:
                    result.budget_exhausted = True
                    self._count("budget_exhausted")
                    return
                result.regressions_checked += 1
                self._count("regressions_checked")
                status = self._replay_witness(witness)
                if status == "failing":
                    result.regressions_failing += 1
                    self._count("regressions_failing")
                    result.divergences.append(witness)
                elif status == "stale":
                    self._count("regressions_stale")

    def _replay_witness(self, witness: Witness) -> str:
        """``failing`` | ``passing`` | ``stale`` for one corpus entry."""
        if witness.variant == FRONTEND_VARIANT:
            return ("failing" if not self._compiles(witness.best_source)
                    else "passing")
        if witness.variant not in VARIANTS or \
                witness.machine not in MACHINES:
            return "stale"
        for source in dict.fromkeys((witness.best_source, witness.source)):
            if self._source_diverges(source, witness.variant,
                                     witness.machine,
                                     expected_kind=None):
                return "failing"
        return "passing"

    @staticmethod
    def _compiles(source: str) -> bool:
        try:
            compile_source(source, "witness")
        except Exception:
            return False
        return True

    def _source_diverges(self, source: str, variant: str, machine: str,
                         expected_kind: str | None) -> bool:
        """Replay one cell; True when a divergence (re)appears.

        ``expected_kind`` restricts to the original divergence kind —
        the reducer uses that so shrinking cannot wander from, say, a
        heap divergence to an unrelated trap.
        """
        config = VARIANTS[variant].with_traits(MACHINES[machine])
        if self.config.inject_bug:
            config = replace(config, debug_skip_def_check=True)
        try:
            program = compile_source(source, "witness")
        except Exception:
            return False  # not even a frontend-valid program
        if "main" not in program.functions:
            return False  # the reducer deleted the entry point
        gold = observe(program, mode="ideal", fuel=self.config.fuel,
                       engine=self.config.engine)
        try:
            compiled = compile_ir(program, config)
        except Exception:
            return expected_kind in (None, KIND_CRASH)
        divergence = check_compiled(gold, compiled.program, config.traits,
                                    self.config.fuel,
                                    engine=self.config.engine)
        if divergence is None:
            return False
        return expected_kind is None or divergence[0] == expected_kind

    # -- fuzzing phase -------------------------------------------------------

    def _fuzz_new_seeds(self, driver: BatchCompiler, cells,
                        result: CampaignResult,
                        deadline: float | None) -> None:
        config = self.config
        for batch in _batches(config.seed_start, config.seeds,
                              config.batch_seeds):
            if deadline is not None and time.monotonic() > deadline:
                result.budget_exhausted = True
                self._count("budget_exhausted")
                return
            if config.max_divergences is not None and \
                    len(result.divergences) >= config.max_divergences:
                return
            self._run_batch(driver, cells, list(batch), result)

    def _run_batch(self, driver: BatchCompiler, cells, seeds: list[int],
                   result: CampaignResult) -> None:
        config = self.config
        ready = []  # (seed, source, program, gold)
        with self._span("fuzz.generate", seeds=len(seeds)):
            for seed in seeds:
                result.seeds_run += 1
                self._count("seeds")
                source = generate_program(seed)
                self._count("generated")
                try:
                    program = compile_source(source, f"fuzz{seed}")
                except Exception as exc:
                    self._count("frontend_crashes")
                    self._record_divergence(
                        result, seed, source, FRONTEND_VARIANT, "*",
                        KIND_CRASH,
                        f"frontend raised {type(exc).__name__}: {exc}")
                    continue
                gold = observe(program, mode="ideal", fuel=config.fuel,
                               engine=config.engine)
                self._count("gold_runs")
                if gold.status == "fuel":
                    # A seed the budget cannot execute teaches nothing.
                    result.skipped_seeds += 1
                    self._count("skipped", reason="gold-fuel")
                    continue
                ready.append((seed, source, program, gold))

        jobs = []
        meta = []  # parallel to jobs: (seed, source, gold, cell)
        for seed, source, program, gold in ready:
            for variant, machine, cell_config in cells:
                jobs.append(CompileJob(
                    label=f"fuzz{seed}:{variant}@{machine}",
                    program=program,
                    config=cell_config,
                ))
                meta.append((seed, source, gold, variant, machine,
                             cell_config))

        with self._span("fuzz.compile", jobs=len(jobs)):
            compiled = self._compile_jobs(driver, jobs, meta, result)

        with self._span("fuzz.check", cells=len(compiled)):
            for (seed, source, gold, variant, machine,
                 cell_config), outcome in compiled:
                if self.config.max_divergences is not None and \
                        len(result.divergences) >= \
                        self.config.max_divergences:
                    return
                result.cells_checked += 1
                self._count("cells")
                divergence = check_compiled(gold, outcome.program,
                                            cell_config.traits,
                                            config.fuel,
                                            engine=config.engine)
                if divergence is not None:
                    self._record_divergence(result, seed, source, variant,
                                            machine, *divergence)

    def _compile_jobs(self, driver: BatchCompiler, jobs, meta, result):
        """Compile the batch; a crashing cell becomes a witness, not an
        aborted campaign."""
        try:
            results = driver.compile_batch(jobs)
            return list(zip(meta, results))
        except Exception:
            pass  # at least one cell crashes the pipeline: isolate it
        compiled = []
        for job, info in zip(jobs, meta):
            seed, source, gold, variant, machine, cell_config = info
            try:
                compiled.append((info, driver.compile_one(job)))
            except Exception as exc:
                self._count("compile_crashes")
                self._record_divergence(
                    result, seed, source, variant, machine, KIND_CRASH,
                    f"pipeline raised {type(exc).__name__}: {exc}")
        return compiled

    # -- divergence handling -------------------------------------------------

    def _record_divergence(self, result: CampaignResult, seed: int,
                           source: str, variant: str, machine: str,
                           kind: str, detail: str) -> None:
        self._count("divergences", kind=kind)
        witness = Witness(seed=seed, variant=variant, machine=machine,
                          kind=kind, detail=detail, source=source)
        if self.config.reduce:
            self._reduce_witness(witness)
        with self._span("fuzz.persist"):
            self.corpus.add(witness)
        if self.config.profile_dir is not None:
            self._profile_witness(witness)
        result.divergences.append(witness)

    def _profile_witness(self, witness: Witness) -> None:
        """Best-effort hotness profile of the witness's gold run.

        Frontend witnesses have no executable program, and a crashing
        gold run has no successful execution to profile; both simply
        skip (a missing triage aid must never fail the campaign).
        """
        if witness.variant == FRONTEND_VARIANT:
            return
        from ..interp import execute
        from ..profile import artifact_path, build_profile, write_profile

        try:
            program = compile_source(witness.source, f"witness{witness.id}")
            run = execute(program, engine=self.config.engine, mode="ideal",
                          fuel=self.config.fuel, collect_profile=True)
            profile = build_profile(
                program, run, engine=self.config.engine,
                variant=witness.variant, machine=witness.machine,
                workload=f"witness-{witness.id}",
            )
            write_profile(profile, artifact_path(
                self.config.profile_dir, "witness", str(witness.id)))
            self._count("witness_profiles")
        except Exception:
            self._count("witness_profile_failures")

    def _reduce_witness(self, witness: Witness) -> None:
        if witness.variant == FRONTEND_VARIANT:
            def still_fails(source: str) -> bool:
                return not self._compiles(source)
        else:
            def still_fails(source: str) -> bool:
                return self._source_diverges(
                    source, witness.variant, witness.machine,
                    expected_kind=witness.kind)
        with self._span("fuzz.reduce", witness=witness.id):
            reduction = reduce_source(
                witness.source, still_fails,
                max_attempts=self.config.reduce_attempts)
        self._count("reduce_attempts", reduction.attempts)
        if reduction.reproduced and \
                len(reduction.reduced) < len(witness.source):
            witness.reduced_source = reduction.reduced
            self._count("reduced")


def run_campaign(config: CampaignConfig | None = None,
                 telemetry: Telemetry | None = None) -> CampaignResult:
    """Run one fuzzing campaign (see :class:`CampaignConfig`)."""
    return Campaign(config, telemetry).run()
