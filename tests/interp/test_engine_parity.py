"""Engine parity: the closure engine must be bit-identical everywhere.

Every registry workload, a compiled-variant grid over both machine
models, a 50-seed generated-program batch, a set of crafted trap
programs, and one program per edge-operand case of every opcode all
run through both engines (reference and closure).
Successful runs must produce equal ``ExecResult`` values (checksum,
return value, steps, site/opcode/extend counts, branch profiles);
failed runs must raise the same exception type with the same message.
Step counts of failed runs are deliberately not compared — the closure
engine only tracks fuel at segment granularity on exception paths (see
docs/INTERPRETER.md).
"""

import itertools

import pytest

from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.interp import create_interpreter, execute
from repro.interp.memory import SimError
from repro.interp.profiler import collect_branch_profiles
from repro.interp.translate import translate_function
from repro.ir import Cond, Instr, Opcode, Program, ScalarType, build_function
from repro.ir.verifier import verify_program
from repro.machine import IA64, PPC64
from repro.testing import generate_program
from repro.workloads import all_workloads

#: Cap long workloads; hitting the cap still checks the fuel path.
FUEL = 250_000

WORKLOADS = all_workloads()

#: Variant subset for the per-variant grid (CI's ``bench --engine
#: both`` covers all twelve on the full workload registry).
GRID_VARIANTS = ("baseline", "insert, order", "new algorithm (all)")


def _outcome(program, engine, func="main", args=(), **kwargs):
    interp = create_interpreter(program, engine=engine, **kwargs)
    try:
        return ("ok", interp.run(func, args))
    except SimError as exc:
        return (type(exc).__name__, str(exc))


def assert_parity(program, func="main", args=(), **kwargs):
    reference = _outcome(program, "reference", func, args, **kwargs)
    closure = _outcome(program, "closure", func, args, **kwargs)
    assert closure == reference


class TestWorkloadParity:
    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    @pytest.mark.parametrize("workload", WORKLOADS,
                             ids=[w.name for w in WORKLOADS])
    def test_source_program(self, workload, mode):
        assert_parity(workload.program(), mode=mode, fuel=FUEL)

    @pytest.mark.parametrize("workload_name", ["huffman", "bitfield"])
    def test_profiled_run(self, workload_name):
        from repro.workloads import get_workload

        program = get_workload(workload_name).program()
        assert_parity(program, mode="ideal", fuel=FUEL,
                      collect_profile=True)

    @pytest.mark.parametrize("workload_name", ["huffman", "bitfield"])
    def test_profiler_entry_point(self, workload_name):
        from repro.workloads import get_workload

        program = get_workload(workload_name).program()
        by_engine = [
            collect_branch_profiles(program, fuel=FUEL, engine=engine)
            for engine in ("reference", "closure", "both")
        ]
        assert all(b == by_engine[0] for b in by_engine[1:])


class TestZeroOverheadContract:
    """Profiling must cost nothing when it is off.

    The profile subsystem (PR 6) derives block entry counts from the
    ``site_counts`` both engines already maintain, so with
    ``collect_profile`` off there is no new per-instruction work and
    the ``ExecResult`` surface must stay exactly the seed's: the same
    seven fields, bit-identical values.
    """

    #: The seed's result surface.  Growing this tuple means every
    #: engine-parity comparison pays for the new field on every run —
    #: extend the profile artifact instead (docs/PROFILING.md).
    SEED_FIELDS = ("checksum", "ret_value", "steps", "extend_counts",
                   "site_counts", "opcode_counts", "profiles")

    def test_exec_result_fields_unchanged(self):
        import dataclasses

        from repro.interp.interpreter import ExecResult

        names = tuple(f.name for f in dataclasses.fields(ExecResult))
        assert names == self.SEED_FIELDS

    @pytest.mark.parametrize("engine", ["reference", "closure"])
    def test_unprofiled_run_collects_no_entries(self, engine):
        from repro.workloads import get_workload

        program = get_workload("huffman").program()
        interp = create_interpreter(program, engine=engine, mode="ideal",
                                    fuel=FUEL)
        interp.run()
        assert interp.block_entries == {}

    @pytest.mark.parametrize("engine", ["reference", "closure"])
    def test_profiling_changes_only_profiles(self, engine):
        """Every pre-existing field is identical with profiling on."""
        from repro.workloads import get_workload

        program = get_workload("huffman").program()
        plain = create_interpreter(program, engine=engine, mode="ideal",
                                   fuel=FUEL).run()
        profiled = create_interpreter(program, engine=engine, mode="ideal",
                                      fuel=FUEL,
                                      collect_profile=True).run()
        assert profiled.checksum == plain.checksum
        assert profiled.ret_value == plain.ret_value
        assert profiled.steps == plain.steps
        assert profiled.extend_counts == plain.extend_counts
        assert profiled.site_counts == plain.site_counts
        assert profiled.opcode_counts == plain.opcode_counts
        assert not plain.profiles and profiled.profiles

    def test_engine_native_counters_agree(self):
        """Both engines' own per-block counters are identical."""
        from repro.workloads import get_workload

        program = get_workload("huffman").program()
        counters = []
        for engine in ("reference", "closure"):
            interp = create_interpreter(program, engine=engine,
                                        mode="ideal", fuel=FUEL,
                                        collect_profile=True)
            interp.run()
            counters.append({
                name: dict(blocks)
                for name, blocks in interp.block_entries.items() if blocks
            })
        assert counters[0] == counters[1]


class TestCompiledVariantParity:
    @pytest.mark.parametrize("traits", [IA64, PPC64],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("variant", GRID_VARIANTS)
    def test_huffman_grid(self, variant, traits):
        from repro.workloads import get_workload

        program = get_workload("huffman").program()
        profiles = collect_branch_profiles(program, fuel=FUEL)
        compiled = compile_ir(program, VARIANTS[variant].with_traits(traits),
                              profiles)
        assert_parity(compiled.program, mode="machine", traits=traits,
                      fuel=FUEL)

    @pytest.mark.parametrize("variant", ["baseline", "new algorithm (all)"])
    def test_bitfield_grid(self, variant):
        from repro.workloads import get_workload

        program = get_workload("bitfield").program()
        profiles = collect_branch_profiles(program, fuel=FUEL)
        compiled = compile_ir(program, VARIANTS[variant].with_traits(IA64),
                              profiles)
        assert_parity(compiled.program, mode="machine", traits=IA64,
                      fuel=FUEL)


class TestGeneratedProgramParity:
    @pytest.mark.parametrize("seed", range(50))
    def test_seed(self, seed):
        program = compile_source(generate_program(seed), f"gen{seed}")
        assert_parity(program, mode="ideal", fuel=200_000)
        assert_parity(program, mode="machine", fuel=200_000)
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        assert_parity(compiled.program, mode="machine", fuel=200_000)


class TestTrapParity:
    """Crafted programs whose trap/fault messages must match exactly."""

    @pytest.mark.parametrize("source", [
        "int main() { int a = 7; int b = 0; return a / b; }",
        "int main() { int a = 7; int b = 0; return a % b; }",
        "int main() { int[] a = new int[4]; return a[10]; }",
        "int main() { int[] a = new int[4]; return a[0 - 1]; }",
        "int main() { int[] a = new int[0 - 3]; return 0; }",
        """
        int boom(int n) { return boom(n + 1); }
        int main() { return boom(0); }
        """,
    ], ids=["div-zero", "mod-zero", "index-high", "index-negative",
            "negative-length", "stack-overflow"])
    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    def test_source_level_trap(self, source, mode):
        assert_parity(compile_source(source), mode=mode, fuel=100_000)

    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    def test_null_array_access(self, mode):
        from repro.ir import Program, ScalarType, build_function

        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        null = b.const(0, ScalarType.REF)
        b.ret(b.aload(null, b.const(0), ScalarType.I32))
        assert_parity(program, mode=mode)

    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    def test_dangling_array_reference(self, mode):
        from repro.ir import Program, ScalarType, build_function

        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        dangling = b.const(5, ScalarType.REF)  # nothing allocated
        b.ret(b.aload(dangling, b.const(0), ScalarType.I32))
        assert_parity(program, mode=mode)

    @pytest.mark.parametrize("fuel", [0, 1, 7, 50])
    def test_fuel_exhaustion_messages(self, fuel):
        program = compile_source("""
            int main() {
                int i = 0;
                while (i < 1000) { i = i + 1; }
                return i;
            }
        """)
        assert_parity(program, mode="ideal", fuel=fuel)

    @pytest.mark.parametrize("fuel", [1, 5, 17, 80, 333])
    def test_fuel_sweep_with_calls(self, fuel):
        """Fuel running out around a call: the callee burns fuel the
        caller's segment pre-check cannot see (TERM_CHECKED blocks)."""
        program = compile_source("""
            int add(int a, int b) { return a + b; }
            int main() {
                int acc = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    acc = add(acc, i);
                }
                return acc;
            }
        """)
        assert_parity(program, mode="machine", fuel=fuel)

    def test_trap_beats_fuel_in_replayed_segment(self):
        """An op replayed by the fuel-out path may trap first; the trap
        must win, exactly as in the reference."""
        program = compile_source("""
            int main() {
                int a = 7;
                int b = 0;
                return a / b;
            }
        """)
        for fuel in range(0, 8):
            assert_parity(program, mode="ideal", fuel=fuel)


class TestUnwrittenRegister:
    """A register read before any write reaches it.  The verifier
    accepts this program; both engines must read the register as 0."""

    IR = """
        func @main() -> void params() {
        entry1:
          %v_c_3 = const.i32 1
          %c5 = const.i32 0
          %p6 = cmp32.eq %v_c_3, %c5
          br %p6, ->then2, ->join3
        then2:
          %v_x_1 = const.i32 5
          jmp ->join3
        join3:
          sink %v_x_1
          ret
        }
    """

    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    def test_reads_zero_on_both_engines(self, mode):
        from repro.ir.parser import parse_program
        from repro.ir.verifier import verify_program

        program = parse_program(self.IR)
        verify_program(program)
        assert_parity(program, mode=mode)
        result = execute(program, engine="both", mode=mode)
        assert result.checksum == 0


# -- one case per opcode ------------------------------------------------------
#
# Each opcode gets one minimal verified program per edge-operand tuple;
# every program runs on both engines in ideal and machine mode on both
# machines.  The test iterates over ``Opcode`` itself, so an opcode
# added without a case here fails.

I8, I16, U16 = ScalarType.I8, ScalarType.I16, ScalarType.U16
I32, I64, F64, REF = ScalarType.I32, ScalarType.I64, ScalarType.F64, \
    ScalarType.REF

#: The low word's sign bit, all ones, the high word's sign bit (low
#: word zero), and zero.
INT_EDGES = (0x8000_0000, -1, 2**63, 0)
FLOAT_EDGES = (0.0, -1.5, 1e308, float("nan"), float("inf"), float("-inf"))
#: Past either saturation bound of d2i and d2l.
CONVERSION_EDGES = FLOAT_EDGES + (-1e10, 2147483648.0, -1e19, 1e19)
INT_PAIRS = tuple(itertools.product(INT_EDGES, repeat=2))
FLOAT_PAIRS = tuple(itertools.product(FLOAT_EDGES, repeat=2))
#: Element and global types: their loads extend differently per
#: machine and mode.
ELEM_TYPES = (I8, I16, U16, I32, I64, F64)


def _narrow(b, value):
    """``value`` in an i32 register with its high word as given; ideal
    mode's trunc32 canonicalizes it."""
    return b.unop(Opcode.TRUNC32, b.const(value, I64))


def _wide(b, value):
    return b.const(value, I64)


def _float(b, value):
    return b.const(value, F64)


def _typed(b, elem, value):
    """``value`` loaded the way a store of ``elem`` takes it."""
    if elem is F64:
        return _float(b, value)
    return _wide(b, value) if elem is I64 else _narrow(b, value)


def _unop(opcode, load):
    return lambda b, x: b.sink(b.unop(opcode, load(b, x)))


def _binop(opcode, load):
    return lambda b, x, y: b.sink(b.binop(opcode, load(b, x), load(b, y)))


def _cmp(opcode, load):
    return lambda b, cond, x, y: b.sink(
        b.cmp(opcode, cond, load(b, x), load(b, y)))


def _any_value(b, value):
    return _float(b, value) if isinstance(value, float) else _wide(b, value)


def _consts(b):
    for value in INT_EDGES:
        b.sink(b.const(value))
        b.sink(b.const(value, I64))
    for value in FLOAT_EDGES:
        b.sink(b.const(value, F64))


def _mov(b, value):
    b.sink(b.mov(_any_value(b, value)))


def _sink(b, value):
    b.sink(_any_value(b, value))
    if not isinstance(value, float):
        b.sink(_narrow(b, value))


def _just_extended(b, value):
    narrow = _narrow(b, value)
    b.emit(Instr(Opcode.JUST_EXTENDED, narrow, (narrow,)))
    b.sink(narrow)


def _newarray(b, length):
    b.sink(b.arraylen(b.newarray(I32, _narrow(b, length))))


def _array(edge_side):
    """Store ``value`` and load it back; ``index`` is used on the
    ``edge_side`` access and 0 on the other."""
    def emit(b, elem, value, index):
        array = b.newarray(elem, b.const(2))
        store_at = _narrow(b, index) if edge_side is Opcode.ASTORE \
            else b.const(0)
        b.astore(array, store_at, _typed(b, elem, value), elem)
        load_at = _narrow(b, index) if edge_side is Opcode.ALOAD \
            else b.const(0)
        b.sink(b.aload(array, load_at, elem))
    return emit


def _arraylen(b, ref):
    """``ref`` None: a fresh array; otherwise a raw (null or dangling)
    reference."""
    array = b.newarray(I32, b.const(3)) if ref is None \
        else b.const(ref, REF)
    b.sink(b.arraylen(array))


def _gload(b, elem, value):
    b.program.add_global("g", elem, value)
    b.sink(b.gload("g", elem))


def _gstore(b, elem, value):
    b.program.add_global("g", elem)
    b.gstore("g", _typed(b, elem, value), elem)
    b.sink(b.gload("g", elem))


def _branch(b, value):
    then, other, join = b.block("then"), b.block("else"), b.block("join")
    b.br(_narrow(b, value), then, other)
    for block, mark in ((then, 1), (other, 2)):
        b.switch(block)
        b.sink(b.const(mark))
        b.jmp(join)
    b.switch(join)


def _jmp(b):
    target = b.block("next")
    b.jmp(target)
    b.switch(target)


def _call(b, value):
    """Calls a value-returning and a void function."""
    elem = F64 if isinstance(value, float) else I64
    callee = build_function(b.program, "identity", [("x", elem)], elem)
    callee.ret(callee.func.params[0])
    build_function(b.program, "nothing", [], None).ret()
    b.sink(b.call("identity", [_any_value(b, value)], elem))
    b.call("nothing", [])


def _nop(b):
    b.emit(Instr(Opcode.NOP, None, ()))


_INT32_BINOPS = (Opcode.ADD32, Opcode.SUB32, Opcode.MUL32, Opcode.DIV32,
                 Opcode.REM32, Opcode.AND32, Opcode.OR32, Opcode.XOR32,
                 Opcode.SHL32, Opcode.SHR32, Opcode.USHR32)
_INT64_BINOPS = (Opcode.ADD64, Opcode.SUB64, Opcode.MUL64, Opcode.DIV64,
                 Opcode.REM64, Opcode.AND64, Opcode.OR64, Opcode.XOR64,
                 Opcode.SHL64, Opcode.SHR64, Opcode.USHR64)
_FLOAT_BINOPS = (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                 Opcode.FREM, Opcode.FPOW)
_FLOAT_UNOPS = (Opcode.FNEG, Opcode.FSQRT, Opcode.FSIN, Opcode.FCOS,
                Opcode.FEXP, Opcode.FLOG, Opcode.FABS, Opcode.FFLOOR)
_ONE_INT = tuple((value,) for value in INT_EDGES)
_ONE_FLOAT = tuple((value,) for value in FLOAT_EDGES)
_ANY_VALUE = _ONE_INT + _ONE_FLOAT
_COND_PAIRS = tuple((cond, x, y) for cond in Cond for x, y in INT_PAIRS)
_FLOAT_COND_PAIRS = tuple((cond, x, y) for cond in Cond
                          for x, y in FLOAT_PAIRS)
_TYPED_VALUES = tuple(
    (elem, value) for elem in ELEM_TYPES
    for value in (FLOAT_EDGES if elem is F64 else INT_EDGES))
#: (elem, value, index): every typed value at index 0, then every index
_ARRAY_CASES = tuple((elem, value, 0) for elem, value in _TYPED_VALUES) \
    + tuple((I32, -1, index) for index in INT_EDGES)

#: opcode -> (emit, operand tuples).  Each tuple gets its own program:
#: a trap then hides nothing, and the FNV checksum, which keeps a
#: difference in bit 63 in bit 63, cannot cancel two sign flips.
OPCODE_CASES = {
    Opcode.CONST: (_consts, ((),)),
    Opcode.MOV: (_mov, _ANY_VALUE),
    **{op: (_unop(op, _narrow), _ONE_INT)
       for op in (Opcode.EXTEND8, Opcode.EXTEND16, Opcode.EXTEND32,
                  Opcode.ZEXT8, Opcode.ZEXT16, Opcode.ZEXT32,
                  Opcode.NEG32, Opcode.NOT32, Opcode.I2D)},
    **{op: (_unop(op, _wide), _ONE_INT)
       for op in (Opcode.TRUNC32, Opcode.NEG64, Opcode.NOT64, Opcode.L2D)},
    Opcode.JUST_EXTENDED: (_just_extended, _ONE_INT),
    **{op: (_binop(op, _narrow), INT_PAIRS) for op in _INT32_BINOPS},
    **{op: (_binop(op, _wide), INT_PAIRS) for op in _INT64_BINOPS},
    Opcode.CMP32: (_cmp(Opcode.CMP32, _narrow), _COND_PAIRS),
    Opcode.CMP64: (_cmp(Opcode.CMP64, _wide), _COND_PAIRS),
    Opcode.CMPF: (_cmp(Opcode.CMPF, _float), _FLOAT_COND_PAIRS),
    **{op: (_binop(op, _float), FLOAT_PAIRS) for op in _FLOAT_BINOPS},
    **{op: (_unop(op, _float), _ONE_FLOAT) for op in _FLOAT_UNOPS},
    **{op: (_unop(op, _float), tuple((v,) for v in CONVERSION_EDGES))
       for op in (Opcode.D2I, Opcode.D2L)},
    Opcode.NEWARRAY: (_newarray, ((3,),) + _ONE_INT),
    Opcode.ALOAD: (_array(Opcode.ALOAD), _ARRAY_CASES),
    Opcode.ASTORE: (_array(Opcode.ASTORE), _ARRAY_CASES),
    Opcode.ARRAYLEN: (_arraylen, ((None,), (0,), (5,))),
    Opcode.GLOAD: (_gload, _TYPED_VALUES),
    Opcode.GSTORE: (_gstore, _TYPED_VALUES),
    Opcode.BR: (_branch, _ONE_INT),
    Opcode.JMP: (_jmp, ((),)),
    Opcode.RET: (_call, _ANY_VALUE),
    Opcode.CALL: (_call, _ANY_VALUE),
    Opcode.SINK: (_sink, _ANY_VALUE),
    Opcode.NOP: (_nop, ((),)),
}


def opcode_programs(opcode):
    """One verified program per operand tuple of ``opcode``'s case."""
    return case_programs(*OPCODE_CASES[opcode])


def case_programs(emit, operands):
    """One verified program per operand tuple, each ``emit``ted into a
    void ``main``."""
    for values in operands:
        program = Program()
        b = build_function(program, "main", [], None)
        emit(b, *values)
        b.ret()
        verify_program(program)
        yield program


def assert_parity_everywhere(program, **kwargs):
    """Parity in both modes on both machines."""
    for mode in ("ideal", "machine"):
        for traits in (IA64, PPC64):
            assert_parity(program, mode=mode, traits=traits, **kwargs)


class TestOpcodeParity:
    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
    def test_opcode(self, opcode):
        for program in opcode_programs(opcode):
            for mode in ("ideal", "machine"):
                for traits in (IA64, PPC64):
                    assert_parity(program, mode=mode, traits=traits)

    @pytest.mark.parametrize("opcode, expected", [
        (Opcode.FSIN, "Trap"), (Opcode.FEXP, "Trap"), (Opcode.FFLOOR, "Trap"),
        (Opcode.FREM, "Trap"), (Opcode.FPOW, "Trap"),
        (Opcode.DIV64, "Trap"), (Opcode.JUST_EXTENDED, "MemoryFault"),
        (Opcode.NEWARRAY, "Trap"), (Opcode.ALOAD, "MemoryFault"),
    ])
    def test_cases_reach_the_failure_paths(self, opcode, expected):
        kinds = {_outcome(program, "reference", mode="machine")[0]
                 for program in opcode_programs(opcode)}
        assert {"ok", expected} <= kinds

    def test_d2i_saturates_negative(self):
        program = Program()
        b = build_function(program, "main", [], I32)
        b.ret(b.unop(Opcode.D2I, _float(b, float("-inf"))))
        for engine in ("reference", "closure"):
            result = create_interpreter(program, engine=engine).run()
            assert result.ret_value == 0xFFFF_FFFF_8000_0000


# -- the closure engine's fused and inline paths ---------------------------
#
# The closure engine fuses a CMP32/CMP64 with the BR on its register and
# checks array accesses inline (docs/INTERPRETER.md).  The per-opcode
# table above never branches on a compare and never reaches an array
# through a null or dangling reference while another array exists, so
# these cases reach those paths.

def _compare_branch(opcode, load):
    """``%c = cmp x, y; br %c``, both successors sinking ``%c``."""
    def emit(b, cond, x, y):
        flag = b.cmp(opcode, cond, load(b, x), load(b, y))
        then, other, join = b.block("then"), b.block("else"), b.block("join")
        b.br(flag, then, other)
        for block, mark in ((then, 1), (other, 2)):
            b.switch(block)
            b.sink(flag)
            b.sink(b.const(mark))
            b.jmp(join)
        b.switch(join)
    return emit


def _raw_reference_access(opcode):
    """Allocate one array, then access element 0 through the raw
    reference ``ref``."""
    def emit(b, ref):
        b.newarray(I32, b.const(2))
        array = b.const(ref, REF)
        if opcode is Opcode.ALOAD:
            b.sink(b.aload(array, b.const(0), I32))
        else:
            b.astore(array, b.const(0), b.const(7), I32)
    return emit


#: Null, the one allocated array, just past the heap, and references
#: whose list index would wrap or overflow.
RAW_REFERENCES = ((0,), (1,), (2,), (2**63,), (-1,))


def _fused_blocks(program):
    """Labels of the blocks whose branch took over the compare before
    it: their one segment charges two steps past its ops."""
    return {
        block.label
        for func in program.functions.values()
        for block in translate_function(func, ideal=False, traits=IA64).blocks
        if block.ops is not None and block.branch is not None
        and block.n_steps == len(block.ops) + 2
    }


class TestFusedCompareBranch:
    @pytest.mark.parametrize("opcode, load", [
        (Opcode.CMP32, _narrow), (Opcode.CMP64, _wide),
    ], ids=["cmp32", "cmp64"])
    def test_every_condition_and_edge_pair(self, opcode, load):
        for program in case_programs(_compare_branch(opcode, load),
                                     _COND_PAIRS):
            assert_parity_everywhere(program)

    def test_the_table_fuses(self):
        program = next(case_programs(_compare_branch(Opcode.CMP32, _narrow),
                                     _COND_PAIRS))
        assert len(_fused_blocks(program)) == 1

    LOOP = """
        int main() {
            int acc = 0;
            int i = 0;
            while (i < 6) { acc = acc + i * 3; i = i + 1; }
            return acc;
        }
    """

    def test_loop_header_is_fused(self):
        program = compile_source(self.LOOP)
        assert _fused_blocks(program)

    @pytest.mark.parametrize("mode", ["ideal", "machine"])
    def test_fuel_sweep_over_a_fused_loop_header(self, mode):
        program = compile_source(self.LOOP)
        steps = create_interpreter(program, engine="reference",
                                   mode=mode).run().steps
        for fuel in range(steps + 2):
            assert_parity(program, mode=mode, fuel=fuel)

    def _branch_on(self, build):
        """``main`` sinks which way ``build``'s branch went; ``build``
        emits up to the branch and returns its condition."""
        program = Program()
        callee = build_function(program, "nine", [], I32)
        callee.ret(callee.const(9))
        b = build_function(program, "main", [], None)
        flag = build(b)
        then, other, join = b.block("then"), b.block("else"), b.block("join")
        b.br(flag, then, other)
        for block, mark in ((then, 1), (other, 2)):
            b.switch(block)
            b.sink(flag)
            b.sink(b.const(mark))
            b.jmp(join)
        b.switch(join)
        b.ret()
        verify_program(program)
        return program

    def test_compare_behind_a_call_is_not_fused(self):
        """The call redefines an operand between the compare and the
        branch, so a compare moved past it would branch the other way."""
        def build(b):
            x, y = b.const(1), b.const(2)
            flag = b.cmp(Opcode.CMP32, Cond.LT, x, y)
            b.emit(Instr(Opcode.CALL, x, (), callee="nine"))
            return flag

        program = self._branch_on(build)
        assert not _fused_blocks(program)
        assert_parity_everywhere(program)
        steps = create_interpreter(program, engine="reference").run().steps
        for fuel in range(steps + 2):
            assert_parity(program, fuel=fuel)

    def test_compare_in_another_block_is_not_fused(self):
        """The compare's block redefines an operand after it and jumps
        to the branch's block."""
        def build(b):
            x, y = b.const(1), b.const(2)
            flag = b.cmp(Opcode.CMP64, Cond.LT, x, y)
            b.const(9, dest=x)
            test = b.block("test")
            b.jmp(test)
            b.switch(test)
            return flag

        program = self._branch_on(build)
        assert not _fused_blocks(program)
        assert_parity_everywhere(program)


class TestInlineArrayChecks:
    @pytest.mark.parametrize("opcode", [Opcode.ALOAD, Opcode.ASTORE],
                             ids=lambda op: op.value)
    def test_raw_references_beside_an_allocated_array(self, opcode):
        kinds = set()
        for program in case_programs(_raw_reference_access(opcode),
                                     RAW_REFERENCES):
            assert_parity_everywhere(program)
            kinds.add(_outcome(program, "reference")[0])
        assert kinds == {"ok", "Trap", "MemoryFault"}

    @pytest.mark.parametrize("opcode", [Opcode.ALOAD, Opcode.ASTORE],
                             ids=lambda op: op.value)
    def test_indices_around_the_end(self, opcode):
        """Index 1 is the last element of two, 2 is one past it, and
        ``2**32 + 1`` passes the 32-bit bounds check but not the
        effective address."""
        def emit(b, index):
            array = b.newarray(I32, b.const(2))
            at = _wide(b, index)
            if opcode is Opcode.ALOAD:
                b.sink(b.aload(array, at, I32))
            else:
                b.astore(array, at, b.const(7), I32)
                b.sink(b.aload(array, b.const(1), I32))

        kinds = set()
        for program in case_programs(emit, ((1,), (2,), (2**32 + 1,))):
            assert_parity_everywhere(program)
            kinds.add(_outcome(program, "reference", mode="machine")[0])
        assert kinds == {"ok", "Trap", "MemoryFault"}

    @pytest.mark.parametrize("opcode", [Opcode.ALOAD, Opcode.ASTORE],
                             ids=lambda op: op.value)
    def test_negative_index_from_a_float_register(self, opcode):
        """The verifier does not type an index, and ``int(-1.0)`` is the
        one way a register reads as a negative index, which a list would
        take from its end."""
        def emit(b, index):
            array = b.newarray(I32, b.const(2))
            at = _float(b, index)
            if opcode is Opcode.ALOAD:
                b.sink(b.aload(array, at, I32))
            else:
                b.astore(array, at, b.const(7), I32)

        for program in case_programs(emit, ((-1.0,), (-2.5,), (1.0,))):
            assert_parity_everywhere(program)

    def test_store_into_an_array_of_another_element_type(self):
        """An ``astore.i8`` into an ``i32`` array stores as the array's
        element type, as ``Heap.store`` does."""
        def emit(b, value):
            array = b.newarray(I32, b.const(2))
            b.astore(array, b.const(0), _narrow(b, value), I8)
            b.sink(b.aload(array, b.const(0), I32))

        for program in case_programs(emit, _ONE_INT):
            assert_parity_everywhere(program)
