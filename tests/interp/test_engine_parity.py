"""Engine parity: the closure engine must be bit-identical everywhere.

Every registry workload, a compiled-variant grid over both machine
models, a 50-seed generated-program batch, and a set of crafted trap
programs all run through both engines (reference and closure).
Successful runs must produce equal ``ExecResult`` values (checksum,
return value, steps, site/opcode/extend counts, branch profiles);
failed runs must raise the same exception type with the same message.
Step counts of failed runs are deliberately not compared — the closure
engine only tracks fuel at segment granularity on exception paths (see
docs/INTERPRETER.md).
"""

import pytest

from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.interp import create_interpreter, execute
from repro.interp.memory import SimError
from repro.interp.profiler import collect_branch_profiles
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
