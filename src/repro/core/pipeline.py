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

Pass ``telemetry=`` a :class:`~repro.telemetry.Telemetry` object to
additionally record a span per phase and per optimization pass, static
extension counters, and one decision record per elimination candidate.
Telemetry is opt-in; when absent no recording happens at all.
"""

from __future__ import annotations

import contextlib
import time
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
    Pass("constant-fold", fold_constants, BUCKET_OTHERS),
    Pass("simplify", simplify, BUCKET_OTHERS),
    Pass("copy-prop", propagate_copies, BUCKET_OTHERS),
    Pass("gcse", eliminate_common_subexpressions, BUCKET_OTHERS),
    Pass("licm", hoist_loop_invariants, BUCKET_OTHERS),
    Pass("copy-prop-cleanup", propagate_copies, BUCKET_OTHERS),
    Pass("dce", eliminate_dead_code, BUCKET_OTHERS),
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
        return _count_static_extends(self.program)


def _count_static_extends(program: Program) -> int:
    total = 0
    for func in program.functions.values():
        for _, instr in func.instructions():
            if instr.opcode in EXTEND_OPS:
                total += 1
    return total


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
    timing = Timing()

    compile_span = (telemetry.span("compile", program=program.name)
                    if telemetry is not None else contextlib.nullcontext())
    with compile_span:
        if config.general_opts:
            # Method inlining runs whole-program, pre-conversion, and is
            # deterministic so the profiler's inlined copy has matching
            # block labels (see repro.opt.inline).
            start = time.perf_counter()
            if telemetry is not None:
                with telemetry.span("inline", category="pass"):
                    inline_small_functions(program)
            else:
                inline_small_functions(program)
            timing.add(BUCKET_OTHERS, time.perf_counter() - start)

        stats: dict[str, FunctionStats] = {}
        for func in program.functions.values():
            profile = (profiles or {}).get(func.name)
            if telemetry is not None:
                with telemetry.span(f"function:{func.name}"):
                    stats[func.name] = _compile_function(
                        func, config, profile, timing, telemetry
                    )
            else:
                stats[func.name] = _compile_function(
                    func, config, profile, timing, None
                )

    if telemetry is not None:
        telemetry.counter("compile.static_extends.after").inc(
            _count_static_extends(program)
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
    start = time.perf_counter()
    if telemetry is not None:
        with telemetry.span("convert64"):
            convert_function(func, config.traits, config.placement)
    else:
        convert_function(func, config.traits, config.placement)
    timing.add(BUCKET_OTHERS, time.perf_counter() - start)

    if telemetry is not None:
        # Static extension count as conversion produced it, before any
        # optimization touches the function (the "before" of the
        # before/after pair).
        count = sum(1 for _, i in func.instructions()
                    if i.opcode in EXTEND_OPS)
        telemetry.counter("compile.static_extends.before").inc(count)

    if config.general_opts:
        _run_general_opts(func, timing, telemetry)

    if config.algorithm is Algorithm.NONE:
        return FunctionStats(name=func.name)
    if config.algorithm is Algorithm.BWD_FLOW:
        start = time.perf_counter()
        if telemetry is not None:
            with telemetry.span("first-algorithm"):
                removed = run_first_algorithm(func, config.traits)
        else:
            removed = run_first_algorithm(func, config.traits)
        timing.add(BUCKET_SIGN_EXT, time.perf_counter() - start)
        stats = FunctionStats(name=func.name, eliminated=removed)
        stats.eliminated_by_width[32] = removed
        return stats
    return run_sign_extension_elimination(func, config, profile, timing,
                                          telemetry)


def _run_general_opts(func: Function, timing: Timing,
                      telemetry: Telemetry | None) -> None:
    """Figure 5 step 2.  Two rounds are enough in practice."""
    tracer = telemetry.tracer if telemetry is not None else None
    manager = PassManager(GENERAL_PASSES, timing, tracer=tracer)
    if tracer is not None:
        with tracer.span("general-opts", function=func.name):
            manager.run_to_fixpoint(func, max_rounds=2)
    else:
        manager.run_to_fixpoint(func, max_rounds=2)
