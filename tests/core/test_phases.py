"""Unit tests for the individual phase-3 components: insertion, dummy
markers, ordering, the first algorithm, PDE insertion, and timing."""

from repro.analysis.frequency import BranchProfile
from repro.core import (
    VARIANTS,
    compile_ir,
    convert_function,
    function_has_loop,
    insert_before_requiring_uses,
    insert_dummy_markers,
    order_candidates,
    remove_dummy_markers,
    run_first_algorithm,
    run_pde_insertion,
)
from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    build_function,
)
from repro.ir.clone import clone_program
from repro.machine import IA64
from repro.opt.pass_manager import (
    BUCKET_CHAINS,
    BUCKET_OTHERS,
    BUCKET_SIGN_EXT,
)
from tests.conftest import make_fig7_program, run_ideal, run_machine


def _count(func, opcode):
    return sum(1 for _, i in func.instructions() if i.opcode is opcode)


class TestHasLoop:
    def test_loopless(self):
        program = Program()
        b = build_function(program, "main", [], None)
        b.ret()
        assert not function_has_loop(program.main)

    def test_with_loop(self):
        assert function_has_loop(make_fig7_program(3).main)


class TestDummyMarkers:
    def _converted_fig7(self):
        program = clone_program(make_fig7_program(5))
        convert_function(program.main, IA64)
        return program

    def test_inserted_after_accesses(self):
        program = self._converted_fig7()
        count = insert_dummy_markers(program.main)
        assert count >= 2  # the fill store and the loop load at least
        assert _count(program.main, Opcode.JUST_EXTENDED) == count

    def test_skipped_when_index_overwritten(self):
        # i = a[i]: marker must not be inserted.
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(4)
        arr = b.newarray(ScalarType.I32, n)
        i = b.func.named_reg("i", ScalarType.I32)
        b.mov(b.const(0), i)
        b.aload(arr, i, ScalarType.I32, i)  # i = a[i]
        b.ret(i)
        count = insert_dummy_markers(program.main)
        assert count == 0

    def test_removed_after_elimination(self):
        program = self._converted_fig7()
        insert_dummy_markers(program.main)
        removed = remove_dummy_markers(program.main)
        assert removed > 0
        assert _count(program.main, Opcode.JUST_EXTENDED) == 0

    def test_full_pipeline_leaves_no_dummies(self):
        compiled = compile_ir(make_fig7_program(5),
                                   VARIANTS["new algorithm (all)"])
        for func in compiled.program.functions.values():
            assert _count(func, Opcode.JUST_EXTENDED) == 0


class TestInsertion:
    def test_only_in_functions_with_loops(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.F64)
        total = b.binop(Opcode.ADD32, b.func.params[0], b.func.params[0])
        d = b.unop(Opcode.I2D, total)
        b.ret(d)
        convert_function(program.main, IA64)
        inserted = insert_before_requiring_uses(program.main, IA64)
        assert inserted == 0  # no loop -> no insertion

    def test_inserts_before_requiring_use(self):
        program = clone_program(make_fig7_program(5))
        convert_function(program.main, IA64)
        inserted = insert_before_requiring_uses(program.main, IA64)
        assert inserted >= 1
        # The i2d in the exit block is now preceded by an extension.
        for block in program.main.blocks:
            for position, instr in enumerate(block.instrs):
                if instr.opcode is Opcode.I2D:
                    assert block.instrs[position - 1].opcode is Opcode.EXTEND32


class TestOrdering:
    def test_candidates_are_same_register_extends(self):
        program = clone_program(make_fig7_program(5))
        convert_function(program.main, IA64)
        for ext in order_candidates(program.main, use_order=True):
            assert ext.is_self_extend

    def test_order_puts_loop_extensions_first(self):
        program = clone_program(make_fig7_program(5))
        convert_function(program.main, IA64)
        ordered = order_candidates(program.main, use_order=True)
        assert ordered, "expected candidates"
        # First candidate lives in a loop (depth > 0).
        from repro.analysis import LoopForest

        LoopForest(program.main)
        first_block = next(
            block for block in program.main.blocks
            if any(i is ordered[0] for i in block.instrs)
        )
        assert first_block.loop_depth > 0

    def test_profile_sharpen_order(self):
        program = clone_program(make_fig7_program(40))
        profile_src = make_fig7_program(40)
        from repro.interp import collect_branch_profiles

        profiles = collect_branch_profiles(profile_src)
        convert_function(program.main, IA64)
        # Block labels agree between the clone and the profile source.
        ordered = order_candidates(program.main, use_order=True,
                                   profile=profiles["main"])
        assert ordered

    def test_reverse_dfs_without_order(self):
        program = clone_program(make_fig7_program(5))
        convert_function(program.main, IA64)
        with_order = order_candidates(program.main, use_order=True)
        without = order_candidates(program.main, use_order=False)
        assert {i.uid for i in with_order} == {i.uid for i in without}


class TestFirstAlgorithm:
    def test_removes_store_feeding_extension(self):
        # v's extension is unneeded: only a 32-bit store consumes it.
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)], None)
        n = b.const(8)
        arr = b.newarray(ScalarType.I32, n)
        zero = b.const(0)
        v = b.binop(Opcode.ADD32, b.func.params[0], b.func.params[0])
        b.astore(arr, zero, v, ScalarType.I32)
        b.ret()
        convert_function(program.main, IA64)
        before = _count(program.main, Opcode.EXTEND32)
        removed = run_first_algorithm(program.main, IA64)
        assert removed >= 1
        assert _count(program.main, Opcode.EXTEND32) == before - removed

    def test_keeps_extension_before_i2d(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.F64)
        v = b.binop(Opcode.ADD32, b.func.params[0], b.func.params[0])
        d = b.unop(Opcode.I2D, v)
        b.ret(d)
        convert_function(program.main, IA64)
        run_first_algorithm(program.main, IA64)
        assert _count(program.main, Opcode.EXTEND32) == 1

    def test_keeps_latest_extension(self):
        """Limitation 3: backward flow keeps the latest of a chain."""
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.F64)
        x = b.func.params[0]
        v = b.func.named_reg("v", ScalarType.I32)
        b.binop(Opcode.ADD32, x, x, v)
        b.emit(Instr(Opcode.EXTEND32, v, (v,)))  # e1 (early)
        b.emit(Instr(Opcode.EXTEND32, v, (v,)))  # e2 (late)
        d = b.unop(Opcode.I2D, v)
        b.ret(d)
        removed = run_first_algorithm(program.main, IA64)
        assert removed == 1
        # e2 (the latest) survives.
        remaining = [i for _, i in program.main.instructions()
                     if i.opcode is Opcode.EXTEND32]
        assert len(remaining) == 1

    def test_sound_on_fig7(self):
        program = make_fig7_program(20)
        gold = run_ideal(program)
        converted = clone_program(program)
        for func in converted.functions.values():
            convert_function(func, IA64)
            run_first_algorithm(func, IA64)
        assert run_machine(converted).observable() == gold.observable()


class TestPDEInsertion:
    def test_sinks_out_of_straightline_dead_path(self):
        # extend whose value is never needed downstream: dropped.
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        v = b.func.named_reg("v", ScalarType.I32)
        b.binop(Opcode.ADD32, x, x, v)
        b.emit(Instr(Opcode.EXTEND32, v, (v,)))
        b.mov(b.const(5), v)  # v redefined: the extension was dead
        b.ret(v)
        placed, removed = run_pde_insertion(program.main, IA64)
        assert placed < removed  # net removal
        assert _count(program.main, Opcode.EXTEND32) == 0

    def test_materializes_before_requiring_use(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.F64)
        x = b.func.params[0]
        v = b.func.named_reg("v", ScalarType.I32)
        b.binop(Opcode.ADD32, x, x, v)
        b.emit(Instr(Opcode.EXTEND32, v, (v,)))
        b.emit(Instr(Opcode.NOP))
        d = b.unop(Opcode.I2D, v)
        b.ret(d)
        run_pde_insertion(program.main, IA64)
        instrs = program.main.entry.instrs
        i2d_at = next(k for k, i in enumerate(instrs)
                      if i.opcode is Opcode.I2D)
        assert instrs[i2d_at - 1].opcode is Opcode.EXTEND32
        # x + x overflows; the materialized extension canonicalizes it,
        # so i2d sees the wrapped Java value, not the raw 64-bit sum.
        result = run_machine(program, args=(0x7FFFFFFF,))
        assert result.ret_value == -2.0

    def test_sound_on_fig7(self):
        program = make_fig7_program(20)
        gold = run_ideal(program)
        compiled = compile_ir(program, VARIANTS["all, using PDE"])
        assert run_machine(compiled.program).observable() == gold.observable()


class TestTiming:
    def test_buckets_populated(self):
        compiled = compile_ir(make_fig7_program(5),
                                   VARIANTS["new algorithm (all)"])
        timing = compiled.timing
        assert timing.seconds.get(BUCKET_SIGN_EXT, 0) > 0
        assert timing.seconds.get(BUCKET_CHAINS, 0) > 0
        assert timing.seconds.get(BUCKET_OTHERS, 0) > 0
        total = timing.fraction(BUCKET_SIGN_EXT) + timing.fraction(
            BUCKET_CHAINS) + timing.fraction(BUCKET_OTHERS)
        assert abs(total - 1.0) < 1e-9

    def test_baseline_has_no_sign_ext_time(self):
        compiled = compile_ir(make_fig7_program(5), VARIANTS["baseline"])
        assert compiled.timing.seconds.get(BUCKET_SIGN_EXT, 0) == 0
