"""The differential oracle of the fuzzing campaign.

One generated J32 program is executed once under ideal (pre-conversion)
semantics — the *gold* run — and once per (variant, machine) cell with
machine-faithful semantics.  Every cell must reproduce the gold run's

* observable output — the SINK checksum and the return value;
* trap behaviour — the same trap (or absence of one), with the same
  message; and
* heap state — every array's element type and final cells.

Beyond behavioural equivalence, each cell's machine lowering and cost
model must be *internally consistent*: the lowered text contains exactly
one sign-extension instruction per IR ``EXTEND``, one bounds check per
array access, and the modelled cycle report agrees with the
interpreter's dynamic extension counts.  An inconsistency there cannot
miscompile anything, but it silently corrupts the paper's measurements,
so the campaign treats it as a divergence too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import DEFAULT_ENGINE
from ..interp import Interpreter, create_interpreter
from ..interp.memory import FuelExhausted, MemoryFault, Trap
from ..ir.function import Program
from ..ir.opcodes import Opcode
from ..machine.costs import count_cycles
from ..machine.lower import lower_function
from ..machine.model import IA64, MachineTraits

#: Divergence kinds, from most to least alarming.
KIND_CRASH = "crash"        # the compiler raised while compiling the seed
KIND_TRAP = "trap"          # trap/fault/fuel behaviour changed
KIND_OUTPUT = "output"      # checksum or return value changed
KIND_HEAP = "heap"          # final heap state changed
KIND_ENGINE = "engine"      # closure engine disagrees with the reference
KIND_LOWERING = "lowering"  # machine lowering internally inconsistent
KIND_COST = "cost"          # cost model disagrees with dynamic counts

ALL_KINDS = (KIND_CRASH, KIND_TRAP, KIND_OUTPUT, KIND_HEAP,
             KIND_ENGINE, KIND_LOWERING, KIND_COST)

#: Lowered mnemonics that realize an IR sign extension (IA64 / PPC64).
_SIGN_EXT_MNEMONICS = frozenset(
    {"sxt1", "sxt2", "sxt4", "extsb", "extsh", "extsw"}
)
#: Lowered mnemonics that realize an array bounds check.
_BOUNDS_MNEMONICS = frozenset({"cmp4.ltu", "cmplw"})


@dataclass(frozen=True)
class Observation:
    """Everything one execution exposes to the oracle."""

    #: ``ok`` | ``trap`` | ``fault`` | ``fuel``
    status: str
    checksum: int | None
    ret_value: int | float | None
    #: ``((elem, cells), ...)`` for every allocated array, in
    #: allocation order; empty unless the run completed.
    heap: tuple
    #: stringified trap for non-``ok`` statuses
    trap: str | None

    def observable(self) -> tuple:
        return (self.status, self.checksum, self.ret_value, self.trap)


def snapshot_heap(interp: Interpreter) -> tuple:
    """The comparable final heap state of a completed run."""
    return tuple(
        (array.elem.value, tuple(array.cells))
        for array in interp.heap.arrays
    )


def observe(program: Program, *, mode: str = "machine",
            traits: MachineTraits = IA64,
            fuel: int = 2_000_000,
            engine: str = DEFAULT_ENGINE) -> Observation:
    """Execute ``program`` and capture an :class:`Observation`."""
    observation, _ = _observe(program, mode, traits, fuel, engine)
    return observation


def _observe(program: Program, mode: str, traits: MachineTraits,
             fuel: int,
             engine: str = DEFAULT_ENGINE) -> tuple[Observation, object | None]:
    """Observation plus the raw :class:`ExecResult` when the run is ok."""
    if engine == "both":  # one execution per observation; check_compiled
        engine = DEFAULT_ENGINE  # adds the one reference run it compares
    interp = create_interpreter(program, engine=engine, mode=mode,
                                traits=traits, fuel=fuel)
    try:
        result = interp.run()
    except FuelExhausted as exc:
        return Observation("fuel", None, None, (), str(exc)), None
    except MemoryFault as exc:
        return Observation("fault", None, None, (),
                           f"{type(exc).__name__}: {exc}"), None
    except Trap as exc:
        return Observation("trap", None, None, (),
                           f"{type(exc).__name__}: {exc}"), None
    return Observation(
        status="ok",
        checksum=result.checksum,
        ret_value=result.ret_value,
        heap=snapshot_heap(interp),
        trap=None,
    ), result


def compare_observations(gold: Observation,
                         candidate: Observation) -> tuple[str, str] | None:
    """``(kind, detail)`` when the candidate diverges; ``None`` if not."""
    if gold.status != candidate.status:
        return (KIND_TRAP,
                f"gold finished {gold.status} ({gold.trap or 'no trap'}) "
                f"but variant finished {candidate.status} "
                f"({candidate.trap or 'no trap'})")
    if gold.status != "ok":
        if gold.trap != candidate.trap:
            return (KIND_TRAP,
                    f"trap changed: gold {gold.trap!r} vs "
                    f"variant {candidate.trap!r}")
        return None
    if (gold.checksum, gold.ret_value) != \
            (candidate.checksum, candidate.ret_value):
        return (KIND_OUTPUT,
                f"gold (checksum={gold.checksum:#x}, "
                f"ret={gold.ret_value!r}) vs variant "
                f"(checksum={candidate.checksum:#x}, "
                f"ret={candidate.ret_value!r})")
    if gold.heap != candidate.heap:
        return (KIND_HEAP, _heap_diff(gold.heap, candidate.heap))
    return None


def _heap_diff(gold: tuple, candidate: tuple) -> str:
    if len(gold) != len(candidate):
        return (f"allocated {len(candidate)} arrays, gold allocated "
                f"{len(gold)}")
    for ref, ((gelem, gcells), (celem, ccells)) in enumerate(
            zip(gold, candidate), start=1):
        if gelem != celem:
            return f"array #{ref} element type {celem} vs gold {gelem}"
        if len(gcells) != len(ccells):
            return (f"array #{ref} length {len(ccells)} vs gold "
                    f"{len(gcells)}")
        for index, (gv, cv) in enumerate(zip(gcells, ccells)):
            if gv != cv:
                return (f"array #{ref}[{index}] = {cv!r}, gold {gv!r}")
    return "heap states differ"


def check_cost_model(program: Program, result,
                     traits: MachineTraits) -> str | None:
    """Internal consistency of the cycle cost model for one run."""
    try:
        report = count_cycles(program, result, traits)
    except KeyError as exc:
        return f"cost table has no entry for opcode {exc}"
    expected_extend = result.total_extends * traits.extend_cost
    if abs(report.extend_cycles - expected_extend) > 1e-6:
        return (f"extend cycles {report.extend_cycles} != dynamic "
                f"extends {result.total_extends} x cost "
                f"{traits.extend_cost}")
    if report.extend_cycles > report.total + 1e-6:
        return (f"extend cycles {report.extend_cycles} exceed total "
                f"{report.total}")
    if result.steps > 0 and report.total <= 0.0:
        return f"{result.steps} steps executed but zero modelled cycles"
    return None


def check_lowering(program: Program, traits: MachineTraits) -> str | None:
    """Internal consistency of the machine lowering for one program."""
    for func in program.functions.values():
        try:
            code = lower_function(func, traits)
        except Exception as exc:  # pragma: no cover - lowering bug
            return f"{func.name}: lowering raised {type(exc).__name__}: {exc}"
        extends = 0
        arrays = 0
        for _, instr in func.instructions():
            if instr.is_extend:
                extends += 1
            elif instr.opcode in (Opcode.ALOAD, Opcode.ASTORE):
                arrays += 1
        lowered_extends = sum(code.counts.get(m, 0)
                              for m in _SIGN_EXT_MNEMONICS)
        if lowered_extends != extends:
            return (f"{func.name}: {lowered_extends} lowered sign "
                    f"extensions for {extends} EXTEND instructions "
                    f"({traits.name})")
        bounds = sum(code.counts.get(m, 0) for m in _BOUNDS_MNEMONICS)
        if bounds != arrays:
            return (f"{func.name}: {bounds} bounds checks for {arrays} "
                    f"array accesses ({traits.name})")
    return None


def _engine_divergence(closure: Observation, result,
                       reference: Observation,
                       ref_result) -> tuple[str, str] | None:
    """The closure run against the reference run of the same program.

    Observable behaviour, trap messages, final heap state, and — when
    both runs complete — the entire ``ExecResult`` (step counts,
    site/opcode/extend counts, profiles) must match bit for bit.
    """
    if closure.observable() != reference.observable():
        return (KIND_ENGINE,
                f"closure engine finished {closure.observable()!r} "
                f"but reference finished {reference.observable()!r}")
    if closure.heap != reference.heap:
        return (KIND_ENGINE,
                "final heap differs between closure and reference: "
                + _heap_diff(reference.heap, closure.heap))
    if result is not None and ref_result is not None and \
            result != ref_result:
        return (KIND_ENGINE,
                "engines agree on observables but ExecResult differs "
                f"(closure steps={result.steps} "
                f"extends={result.extend_counts} vs reference "
                f"steps={ref_result.steps} "
                f"extends={ref_result.extend_counts})")
    return None


def check_compiled(gold: Observation, compiled_program: Program,
                   traits: MachineTraits,
                   fuel: int,
                   engine: str = DEFAULT_ENGINE) -> tuple[str, str] | None:
    """Run one compiled cell through every oracle check.

    Returns the first ``(kind, detail)`` divergence, or ``None`` when
    the cell is clean.  Behavioural checks run first — a miscompile is
    more urgent than a measurement inconsistency.  ``engine="both"``
    runs the cell once more, on the reference interpreter, and requires
    it to agree with the cell's closure run (:data:`KIND_ENGINE`).
    """
    candidate, result = _observe(compiled_program, "machine", traits, fuel,
                                 engine)
    divergence = compare_observations(gold, candidate)
    if divergence is not None:
        return divergence
    if engine == "both":
        reference, ref_result = _observe(compiled_program, "machine",
                                         traits, fuel, "reference")
        divergence = _engine_divergence(candidate, result, reference,
                                        ref_result)
        if divergence is not None:
            return divergence
    problem = check_lowering(compiled_program, traits)
    if problem is not None:
        return (KIND_LOWERING, problem)
    if result is not None:
        problem = check_cost_model(compiled_program, result, traits)
        if problem is not None:
            return (KIND_COST, problem)
    return None
