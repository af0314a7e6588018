"""The full compilation pipeline of Figure 5.

(1) conversion for a 64-bit architecture →
(2) general optimizations (constant folding, copy propagation,
    simplification, the PRE-variant CSE/LICM, DCE) →
(3) elimination and movement of sign extension
    ((3)-1 insertion, (3)-2 order determination, (3)-3 elimination).

``compile_ir`` clones the input (the same 32-bit-form source is
compiled under many variant configurations by the harness) and returns
the compiled program plus timing and per-function statistics.  It is a
pure function of ``(source, config, profiles)`` — no global state, no
I/O — which is what lets :mod:`repro.driver` memoize it in a
content-addressed cache and fan it out over worker processes.

Every phase and optimization pass is one :meth:`repro.opt.Timing.span`
region feeding a Table-3 bucket.  Pass ``telemetry=`` a
:class:`~repro.telemetry.Telemetry` object and the same regions also
become spans, plus static extension counters and one decision record
per elimination candidate.  Telemetry is opt-in; when absent no
recording happens at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.frequency import BranchProfile
from ..ir.clone import clone_program
from ..ir.function import Function, Program
from ..ir.opcodes import EXTEND_OPS
from ..opt import (
    BUCKET_OTHERS,
    BUCKET_SIGN_EXT,
    Pass,
    PassManager,
    Timing,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    hoist_loop_invariants,
    inline_small_functions,
    propagate_copies,
    simplify,
)
from ..telemetry import Telemetry
from .config import Algorithm, SignExtConfig
from .convert64 import convert_function
from .elimination import FunctionStats, run_sign_extension_elimination
from .first_algorithm import run_first_algorithm

#: Figure 5 step 2, as named passes (one span each when tracing).  The
#: second copy-propagation round cleans up after CSE/LICM, as before.
GENERAL_PASSES = [
    Pass("constant-fold", fold_constants),
    Pass("simplify", simplify),
    Pass("copy-prop", propagate_copies),
    Pass("gcse", eliminate_common_subexpressions),
    Pass("licm", hoist_loop_invariants),
    Pass("copy-prop-cleanup", propagate_copies),
    Pass("dce", eliminate_dead_code),
]


@dataclass
class CompileResult:
    program: Program
    config: SignExtConfig
    timing: Timing
    function_stats: dict[str, FunctionStats] = field(default_factory=dict)
    telemetry: Telemetry | None = None

    @property
    def total_eliminated(self) -> int:
        return sum(s.eliminated for s in self.function_stats.values())

    @property
    def static_extend_count(self) -> int:
        return _count_static_extends(self.program.functions.values())


def _count_static_extends(functions) -> int:
    return sum(instr.opcode in EXTEND_OPS
               for func in functions for _, instr in func.instructions())


def compile_ir(
    source: Program,
    config: SignExtConfig,
    profiles: dict[str, BranchProfile] | None = None,
    *,
    clone: bool = True,
    telemetry: Telemetry | None = None,
) -> CompileResult:
    """Compile a 32-bit-form program to 64-bit machine form."""
    program = clone_program(source) if clone else source
    tracer = telemetry.tracer if telemetry is not None else None
    timing = Timing(tracer=tracer)

    with timing.span("compile", program=program.name):
        if config.general_opts:
            # Method inlining runs whole-program, pre-conversion, and is
            # deterministic so the profiler's inlined copy has matching
            # block labels (see repro.opt.inline).
            with timing.span("inline", BUCKET_OTHERS, category="pass"):
                inline_small_functions(program)

        stats: dict[str, FunctionStats] = {}
        for func in program.functions.values():
            with timing.span(f"function:{func.name}"):
                stats[func.name] = _compile_function(
                    func, config, (profiles or {}).get(func.name), timing,
                    telemetry,
                )
    # Results cross process boundaries and land in the compile cache.
    timing.tracer = None

    if telemetry is not None:
        telemetry.counter("compile.static_extends.after").inc(
            _count_static_extends(program.functions.values())
        )
        telemetry.counter("compile.functions").inc(len(program.functions))
        telemetry.counter("compile.eliminated.total").inc(
            sum(s.eliminated for s in stats.values())
        )
    return CompileResult(program, config, timing, stats, telemetry)


def _compile_function(
    func: Function,
    config: SignExtConfig,
    profile: BranchProfile | None,
    timing: Timing,
    telemetry: Telemetry | None,
) -> FunctionStats:
    with timing.span("convert64", BUCKET_OTHERS):
        convert_function(func, config.traits, config.placement)

    if telemetry is not None:
        # Static extension count as conversion produced it, before any
        # optimization touches the function (the "before" of the
        # before/after pair).
        telemetry.counter("compile.static_extends.before").inc(
            _count_static_extends([func]))

    if config.general_opts:
        # Figure 5 step 2.  Two rounds are enough in practice.
        with timing.span("general-opts", function=func.name):
            PassManager(GENERAL_PASSES, timing).run_to_fixpoint(
                func, max_rounds=2)

    if config.algorithm is Algorithm.NONE:
        return FunctionStats(name=func.name)
    if config.algorithm is Algorithm.BWD_FLOW:
        with timing.span("first-algorithm", BUCKET_SIGN_EXT):
            removed = run_first_algorithm(func, config.traits)
        stats = FunctionStats(name=func.name, eliminated=removed)
        stats.eliminated_by_width[32] = removed
        return stats
    return run_sign_extension_elimination(func, config, profile, timing,
                                          telemetry)
