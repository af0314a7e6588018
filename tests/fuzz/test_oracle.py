"""Unit tests for the differential oracle."""

from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.fuzz import (
    KIND_HEAP,
    KIND_OUTPUT,
    KIND_TRAP,
    Observation,
    check_compiled,
    check_cost_model,
    check_lowering,
    compare_observations,
    observe,
)
from repro.fuzz.oracle import KIND_ENGINE
from repro.interp import ClosureInterpreter, Interpreter
from repro.machine import MACHINES

CLEAN = """
void main() {
    int[] arr = new int[16];
    int total = 0;
    for (int i = 0; i < 16; i++) { arr[i] = (byte)(i * 37); }
    for (int i = 0; i < 16; i++) { total += arr[i]; }
    sink(total);
}
"""

TRAPPING = """
void main() {
    int[] arr = new int[4];
    sink(arr[9]);
}
"""


def _observation(**overrides):
    base = dict(status="ok", checksum=1, ret_value=None, heap=(),
                trap=None)
    base.update(overrides)
    return Observation(**base)


class TestObserve:
    def test_ideal_and_compiled_machine_run_agree(self):
        # Machine mode is only behaviour-preserving for *converted* IR,
        # so the gold run is compared against a compiled baseline.
        program = compile_source(CLEAN, "clean")
        gold = observe(program, mode="ideal")
        compiled = compile_ir(program, VARIANTS["baseline"])
        machine = observe(compiled.program, mode="machine")
        assert gold.status == machine.status == "ok"
        assert compare_observations(gold, machine) is None
        assert gold.heap  # the allocated array is captured

    def test_trapping_program_observed_not_raised(self):
        program = compile_source(TRAPPING, "trapping")
        gold = observe(program, mode="ideal")
        assert gold.status != "ok"
        assert gold.trap
        # Both modes trap identically -> no divergence.
        assert compare_observations(gold,
                                    observe(program, mode="machine")) is None

    def test_fuel_exhaustion_is_an_observation(self):
        program = compile_source(CLEAN, "clean")
        starved = observe(program, mode="ideal", fuel=3)
        assert starved.status == "fuel"


class TestCompareObservations:
    def test_status_mismatch_is_trap_kind(self):
        kind, detail = compare_observations(
            _observation(), _observation(status="trap", trap="Trap: x"))
        assert kind == KIND_TRAP
        assert "Trap: x" in detail

    def test_trap_message_mismatch(self):
        kind, _ = compare_observations(
            _observation(status="trap", trap="Trap: a"),
            _observation(status="trap", trap="Trap: b"))
        assert kind == KIND_TRAP

    def test_checksum_mismatch_is_output_kind(self):
        kind, _ = compare_observations(_observation(),
                                       _observation(checksum=2))
        assert kind == KIND_OUTPUT

    def test_heap_mismatch_is_heap_kind(self):
        kind, detail = compare_observations(
            _observation(heap=(("int", (1, 2)),)),
            _observation(heap=(("int", (1, 3)),)))
        assert kind == KIND_HEAP
        assert "[1]" in detail

    def test_identical_observations_do_not_diverge(self):
        assert compare_observations(_observation(), _observation()) is None


class TestConsistencyChecks:
    def test_compiled_program_passes_every_check(self):
        program = compile_source(CLEAN, "clean")
        gold = observe(program, mode="ideal")
        for machine in ("ia64", "ppc64"):
            traits = MACHINES[machine]
            config = VARIANTS["new algorithm (all)"].with_traits(traits)
            compiled = compile_ir(program, config)
            assert check_lowering(compiled.program, traits) is None
            result = Interpreter(compiled.program, traits=traits,
                                 fuel=2_000_000).run()
            assert check_cost_model(compiled.program, result, traits) is None
            assert check_compiled(gold, compiled.program, traits,
                                  2_000_000) is None


class TestEngineBoth:
    """``check_compiled(..., engine="both")`` compares the cell's closure
    run with one reference run."""

    @staticmethod
    def _cell():
        program = compile_source(CLEAN, "clean")
        gold = observe(program, mode="ideal")
        traits = MACHINES["ia64"]
        config = VARIANTS["new algorithm (all)"].with_traits(traits)
        return gold, compile_ir(program, config).program, traits

    def test_clean_program(self):
        gold, compiled, traits = self._cell()
        assert check_compiled(gold, compiled, traits, 2_000_000,
                              engine="both") is None

    def test_planted_result_disagreement(self, monkeypatch):
        gold, compiled, traits = self._cell()
        original = ClosureInterpreter.run

        def run(self, *args):
            result = original(self, *args)
            result.steps += 1
            return result

        monkeypatch.setattr(ClosureInterpreter, "run", run)
        kind, detail = check_compiled(gold, compiled, traits, 2_000_000,
                                      engine="both")
        assert kind == KIND_ENGINE
        assert "ExecResult differs" in detail

    def test_planted_reference_disagreement(self, monkeypatch):
        gold, compiled, traits = self._cell()
        original = Interpreter.run

        def run(self, *args):
            result = original(self, *args)  # the reference engine only
            result.checksum ^= 1
            return result

        monkeypatch.setattr(Interpreter, "run", run)
        kind, detail = check_compiled(gold, compiled, traits, 2_000_000,
                                      engine="both")
        assert kind == KIND_ENGINE
        assert "but reference finished" in detail
