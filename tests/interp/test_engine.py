"""Unit tests for the closure-compiled execution engine.

Parity over whole workloads lives in test_engine_parity.py; this file
exercises the engine machinery itself: depth limits, result snapshots,
untranslatable functions, translation-cache sharing, fuel boundaries,
engine selection, and runtime telemetry.
"""

import pytest

from repro.frontend import compile_source
from repro.interp import (
    DEFAULT_MAX_CALL_DEPTH,
    ClosureInterpreter,
    EngineParityError,
    Interpreter,
    TranslationCache,
    Untranslatable,
    create_interpreter,
    execute,
)
from repro.interp.memory import FuelExhausted, MemoryFault, Trap
from repro.ir import Instr, Opcode, Program, ScalarType, build_function
from repro.telemetry import Telemetry

ENGINES = ("reference", "closure")


def _recursion_program(depth: int) -> Program:
    return compile_source(
        """
        int down(int n) {
            if (n == 0) { return 0; }
            return 1 + down(n - 1);
        }
        int main() { return down(%d); }
        """
        % depth
    )


_LOOP_SOURCE = """
    int main() {
        int s = 0;
        int i = 0;
        while (i < 6) {
            s = s + i * i;
            i = i + 1;
        }
        sink(s);
        return s;
    }
"""


class TestCallDepthLimit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_trips_with_exact_message(self, engine):
        program = _recursion_program(500)
        interp = create_interpreter(program, engine=engine, mode="ideal",
                                    max_call_depth=64)
        with pytest.raises(Trap) as excinfo:
            interp.run()
        assert str(excinfo.value) == \
            "StackOverflowError: call depth exceeded 64 frames"

    def test_both_engines_trip_identically(self):
        program = _recursion_program(500)
        messages = []
        for engine in ENGINES:
            interp = create_interpreter(program, engine=engine,
                                        mode="ideal", max_call_depth=64)
            with pytest.raises(Trap) as excinfo:
                interp.run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recursion_within_limit_succeeds(self, engine):
        program = _recursion_program(40)
        interp = create_interpreter(program, engine=engine, mode="ideal",
                                    max_call_depth=64)
        assert interp.run().ret_value == 40

    @pytest.mark.parametrize("engine", ENGINES)
    def test_default_limit_traps_before_recursionerror(self, engine):
        """Runaway recursion surfaces as a guest Trap, never as a host
        RecursionError escaping the interpreter."""
        program = _recursion_program(100_000)
        interp = create_interpreter(program, engine=engine, mode="ideal")
        with pytest.raises(Trap) as excinfo:
            interp.run()
        assert str(excinfo.value) == (
            f"StackOverflowError: call depth exceeded "
            f"{DEFAULT_MAX_CALL_DEPTH} frames"
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_depth_restored_after_trap(self, engine):
        """A caught depth trap leaves the interpreter reusable."""
        program = _recursion_program(500)
        interp = create_interpreter(program, engine=engine, mode="ideal",
                                    max_call_depth=64)
        with pytest.raises(Trap):
            interp.run()
        assert interp.call_depth == 0
        assert interp.run("down", (10,)).ret_value == 10


class TestResultSnapshot:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_dicts_are_copies(self, engine):
        program = compile_source(_LOOP_SOURCE)
        interp = create_interpreter(program, engine=engine, mode="ideal",
                                    collect_profile=True)
        result = interp.run()
        assert result.extend_counts is not interp.extend_counts
        assert result.site_counts is not interp.site_counts
        assert result.opcode_counts is not interp.opcode_counts
        assert result.profiles is not interp.profiles
        for name, edges in result.profiles.items():
            assert edges is not interp.profiles[name]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mutating_result_does_not_corrupt_interpreter(self, engine):
        program = compile_source(_LOOP_SOURCE)
        interp = create_interpreter(program, engine=engine, mode="ideal")
        first = interp.run()
        first.extend_counts[32] = 10**9
        first.site_counts.clear()
        first.opcode_counts.clear()
        second = create_interpreter(program, engine=engine,
                                    mode="ideal").run()
        assert second.site_counts
        assert second.opcode_counts
        assert second.extend_counts[32] != 10**9


class TestUntranslatable:
    def test_missing_branch_target_names_the_function(self):
        """Unverified IR the translator rejects fails construction; the
        cache stores nothing for it."""
        program = Program()
        b = build_function(program, "lost", [], None)
        b.emit(Instr(Opcode.JMP, None, (), targets=("nowhere",)))
        cache = TranslationCache()
        with pytest.raises(Untranslatable, match="^lost: "):
            create_interpreter(program, engine="closure",
                               translation_cache=cache)
        assert cache.stats()["translate.entries"] == 0


class TestTranslationCache:
    def test_cache_shared_across_interpreters(self):
        from repro.ir.clone import clone_program

        program = compile_source(_LOOP_SOURCE)
        cache = TranslationCache()
        first = ClosureInterpreter(program, mode="ideal",
                                   translation_cache=cache)
        assert first.translate_cache_misses == len(program.functions)
        assert first.translate_cache_hits == 0
        # A structurally identical clone (fresh uids) reuses the
        # translation; only the uid layout is rebuilt per binding.
        second = ClosureInterpreter(clone_program(program), mode="ideal",
                                    translation_cache=cache)
        assert second.translate_cache_hits == len(program.functions)
        assert second.translate_cache_misses == 0
        r1, r2 = first.run(), second.run()
        assert (r1.checksum, r1.ret_value, r1.steps) == \
            (r2.checksum, r2.ret_value, r2.steps)
        assert r1.opcode_counts == r2.opcode_counts

    def test_cache_key_separates_modes(self):
        program = compile_source(_LOOP_SOURCE)
        cache = TranslationCache()
        ClosureInterpreter(program, mode="ideal", translation_cache=cache)
        second = ClosureInterpreter(program, mode="machine",
                                    translation_cache=cache)
        # Machine mode must not reuse ideal-mode closures.
        assert second.translate_cache_misses == len(program.functions)

    def test_stats_exposed(self):
        program = compile_source(_LOOP_SOURCE)
        cache = TranslationCache()
        ClosureInterpreter(program, mode="ideal", translation_cache=cache)
        stats = cache.stats()
        assert stats["translate.misses"] == len(program.functions)
        assert stats["translate.entries"] == len(program.functions)


class TestFuelBoundary:
    def test_sweep_every_fuel_value(self):
        """Both engines agree at every possible fuel cutoff, including
        mid-block, at-call, and at-terminator boundaries."""
        program = compile_source(_LOOP_SOURCE)
        total = Interpreter(program, mode="ideal").run().steps
        for fuel in range(0, total + 2):
            outcomes = []
            for engine in ENGINES:
                interp = create_interpreter(program, engine=engine,
                                            mode="ideal", fuel=fuel)
                try:
                    outcomes.append(("ok", interp.run()))
                except FuelExhausted as exc:
                    outcomes.append(("fuel", str(exc), interp.steps))
            assert outcomes[0] == outcomes[1], f"fuel={fuel}"

    def test_trap_wins_over_fuel_inside_final_segment(self):
        """An instruction that traps within the last affordable steps
        must trap — not report fuel exhaustion — on both engines."""
        program = compile_source("""
            int main() {
                int a = 7;
                int b = 0;
                return a / b;
            }
        """)
        total_to_trap = 3  # two consts + the division
        for engine in ENGINES:
            interp = create_interpreter(program, engine=engine,
                                        mode="ideal", fuel=total_to_trap)
            with pytest.raises(Trap):
                interp.run()


class TestEngineSelection:
    def test_execute_both_matches_single_engine(self):
        program = compile_source(_LOOP_SOURCE)
        both = execute(program, engine="both", mode="ideal")
        reference = execute(program, engine="reference", mode="ideal")
        assert both == reference

    def test_execute_both_propagates_trap(self):
        program = compile_source(
            "int main() { int a = 1; int b = 0; return a / b; }"
        )
        with pytest.raises(Trap):
            execute(program, engine="both", mode="ideal")

    def test_unknown_engine_rejected(self):
        program = compile_source(_LOOP_SOURCE)
        with pytest.raises(ValueError, match="unknown engine"):
            create_interpreter(program, engine="bogus")
        # "both" is an execute()/oracle mode, not an interpreter class.
        with pytest.raises(ValueError, match="unknown engine"):
            create_interpreter(program, engine="both")

    def test_parity_error_is_assertion_error(self):
        assert issubclass(EngineParityError, AssertionError)


class TestPlantedDisagreement:
    """``execute(engine="both")`` raises on each kind of disagreement
    planted in the closure engine."""

    TRAPPING = "int main() { int a = 1; int b = 0; return a / b; }"

    @staticmethod
    def _plant(monkeypatch, run):
        original = ClosureInterpreter.run
        monkeypatch.setattr(ClosureInterpreter, "run",
                            lambda self, *args: run(original, self, *args))

    def test_outcome_kind(self, monkeypatch):
        def run(original, interp, *args):
            raise Trap("planted")

        self._plant(monkeypatch, run)
        with pytest.raises(EngineParityError, match="on outcome"):
            execute(compile_source(_LOOP_SOURCE), engine="both",
                    mode="ideal")

    def test_result(self, monkeypatch):
        def run(original, interp, *args):
            result = original(interp, *args)
            result.steps += 1
            return result

        self._plant(monkeypatch, run)
        with pytest.raises(EngineParityError, match="on result"):
            execute(compile_source(_LOOP_SOURCE), engine="both",
                    mode="ideal")

    def test_exception_message(self, monkeypatch):
        def run(original, interp, *args):
            try:
                return original(interp, *args)
            except Trap as exc:
                raise Trap(f"{exc} (planted)") from exc

        self._plant(monkeypatch, run)
        with pytest.raises(EngineParityError, match="on Trap message"):
            execute(compile_source(self.TRAPPING), engine="both",
                    mode="ideal")


class TestEngineTelemetry:
    def test_runtime_engine_metrics_emitted(self):
        program = compile_source(_LOOP_SOURCE)
        telemetry = Telemetry(label="engine-test")
        execute(program, engine="closure", mode="ideal",
                metrics=telemetry.metrics)
        metrics = telemetry.metrics
        assert metrics.counter_value(
            "runtime.engine.translated_functions") == len(program.functions)
        assert metrics.counter_value(
            "runtime.engine.closures_executed") > 0
        assert metrics.counter_value(
            "runtime.engine.translate_cache_hits") + metrics.counter_value(
            "runtime.engine.translate_cache_misses") == \
            len(program.functions)


class TestCraftedFaults:
    """Hand-built IR that hits paths the frontend cannot express."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_just_extended_noncanonical_faults(self, engine):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I64)
        value = b.const(0xFFFF_FFFF, ScalarType.I64)  # non-canonical
        b.ret(b.unop(Opcode.JUST_EXTENDED, value))
        interp = create_interpreter(program, engine=engine)
        with pytest.raises(MemoryFault, match="non-canonical"):
            interp.run()

    def test_just_extended_fault_message_parity(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I64)
        value = b.const(0xFFFF_FFFF, ScalarType.I64)
        b.ret(b.unop(Opcode.JUST_EXTENDED, value))
        messages = []
        for engine in ENGINES:
            with pytest.raises(MemoryFault) as excinfo:
                create_interpreter(program, engine=engine).run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_just_extended_passes_canonical_values(self, engine):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I64)
        value = b.const(-1, ScalarType.I64)  # canonical: all 64 bits set
        b.ret(b.unop(Opcode.JUST_EXTENDED, value))
        result = create_interpreter(program, engine=engine).run()
        assert result.ret_value == 0xFFFF_FFFF_FFFF_FFFF

    def test_fell_off_block_trap_parity(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        b.const(1)  # block never terminates
        messages = []
        for engine in ENGINES:
            with pytest.raises(Trap, match="fell off block") as excinfo:
                create_interpreter(program, engine=engine).run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_void_call_result_trap_parity(self):
        program = Program()
        callee = build_function(program, "f", [], None)
        callee.ret()
        b = build_function(program, "main", [], ScalarType.I32)
        dest = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.CALL, dest, (), callee="f"))
        b.ret(dest)
        messages = []
        for engine in ENGINES:
            with pytest.raises(Trap, match="void") as excinfo:
                create_interpreter(program, engine=engine).run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_arity_mismatch_trap_parity(self):
        program = Program()
        callee = build_function(program, "f", [("x", ScalarType.I32)],
                                ScalarType.I32)
        callee.ret(callee.func.params[0])
        messages = []
        for engine in ENGINES:
            with pytest.raises(Trap, match="arity") as excinfo:
                create_interpreter(program, engine=engine).run("f", ())
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
