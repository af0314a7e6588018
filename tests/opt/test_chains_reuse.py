"""Chains that the general passes share are never stale.

Every general pass asks one :class:`ChainsHolder` per function for its
UD/DU chains, and a pass that edits the function must either make the
same edit to the chains (constant folding, simplify's algebraic step,
copy propagation, DCE) or invalidate them.  The ``checked_reuse``
fixture checks that contract on every reuse: whenever the holder hands
out chains it already held, they must equal a fresh ``Chains(func)``.
The check lives only here; production code has no flag for it.  The
hand-built cases below hold each in-place edit to the same standard.
"""

import pytest

from repro.analysis.ud_du import Chains, ChainsHolder
from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.ir import Instr, Opcode, ScalarType
from repro.ir.parser import parse_program
from repro.machine import MACHINES
from repro.opt import (
    Pass,
    PassManager,
    eliminate_dead_code,
    propagate_copies,
    simplify,
)
from repro.testing import generate_program
from repro.workloads import all_workloads
from tests.conftest import run_ideal

#: The two placements of the general passes' input, and the PDE row,
#: whose phase 3 differs most from the default's.
CHECKED_VARIANTS = ("gen use", "new algorithm (all)", "all, using PDE")

KERNEL = """
double main() {
    int[] a = new int[32];
    int t = 0;
    for (int i = 0; i < 32; i++) { a[i] = i * 5; }
    for (int i = 31; i > 0; i--) { t += a[i]; }
    double d = (double) t;
    sinkd(d);
    return d;
}
"""


def chain_sets(func, chains: Chains):
    """The definitions the chains know, the UD set of every use and the
    DU set of every definition of ``func`` as it is now.  A definition
    is its instruction uid, or the parameter's name; a use is
    (instruction uid, operand index)."""
    def ident(definition):
        return (definition.reg.name if definition.is_param
                else definition.instr.uid)

    ud, du = {}, {}
    for param in func.params:
        du[param.name] = {(use.instr.uid, use.index)
                          for use in chains.uses_of_param(param)}
    for _, instr in func.instructions():
        for index in range(len(instr.srcs)):
            ud[instr.uid, index] = {ident(d)
                                    for d in chains.defs_for(instr, index)}
        if instr.dest is not None:
            du[instr.uid] = {(use.instr.uid, use.index)
                             for use in chains.uses_of(instr)}
    return {ident(d) for d in chains.definitions}, ud, du


def install_reuse_check(monkeypatch) -> list[str]:
    """Make every reuse of held chains compare them with a fresh build.

    Returns the list that gets one function name per checked reuse.
    """
    checked: list[str] = []
    build = ChainsHolder.get

    def get(holder):
        reused = holder._chains is not None
        chains = build(holder)
        if reused:
            held = chain_sets(holder.func, chains)
            fresh = chain_sets(holder.func, Chains(holder.func))
            assert held == fresh, (
                f"stale chains reused in {holder.func.name}: a pass edited "
                "the function without updating the chains or calling "
                "invalidate()")
            checked.append(holder.func.name)
        return chains

    monkeypatch.setattr(ChainsHolder, "get", get)
    return checked


@pytest.fixture
def checked_reuse(monkeypatch):
    return install_reuse_check(monkeypatch)


def test_workloads_reuse_only_fresh_chains(checked_reuse):
    for workload in all_workloads():
        program = workload.program()
        for variant in CHECKED_VARIANTS:
            compile_ir(program, VARIANTS[variant])
    # Reuse is the common case, not an accident of one program.
    assert len(checked_reuse) > 1000


def test_generated_programs_reuse_only_fresh_chains(checked_reuse):
    config = VARIANTS["new algorithm (all)"]
    for seed in range(50):
        compile_ir(compile_source(generate_program(seed), f"gen{seed}"),
                   config)
    assert checked_reuse


def test_a_pass_that_edits_without_invalidating_is_caught(checked_reuse):
    def forgetful(func, holder):
        holder.get()
        # Re-create the first constant: same value, new identity.  The
        # held chains still name the old instruction, so DCE, trusting
        # them, would find the new one unused and delete it.
        for block in func.blocks:
            for position, instr in enumerate(block.instrs):
                if instr.opcode is Opcode.CONST:
                    block.instrs[position] = Instr(
                        Opcode.CONST, instr.dest, imm=instr.imm,
                        elem=instr.elem)
                    return True
        raise AssertionError("kernel has no constant")

    func = compile_source(KERNEL, "kernel").main
    manager = PassManager([Pass("forgetful", forgetful),
                           Pass("dce", eliminate_dead_code)])
    with pytest.raises(AssertionError, match="stale chains reused in main"):
        manager.run_to_fixpoint(func)



def assert_exact(func, chains: Chains) -> None:
    assert chain_sets(func, chains) == chain_sets(func, Chains(func))


def _instrs(func, opcode: Opcode) -> list[Instr]:
    return [instr for _, instr in func.instructions()
            if instr.opcode is opcode]


def test_replace_of_an_instruction_that_reads_its_own_definition():
    # ``%i = add32 %i, %one`` reaches its own first operand around the
    # loop; a constant in its place must leave that use behind.
    func = parse_program("""
        func @main(i32) -> i32 params(%n) {
        entry:
          %i = const.i32 0
          %one = const.i32 1
          jmp ->loop
        loop:
          %i = add32 %i, %one
          %c = cmp32.lt %i, %n
          br %c, ->loop, ->done
        done:
          ret %i
        }
    """).main
    chains = Chains(func)
    (step,) = _instrs(func, Opcode.ADD32)
    folded = Instr(Opcode.CONST, step.dest, imm=7, elem=ScalarType.I32)
    chains.replace(step, folded)
    assert chains.block_of(folded).instrs[0] is folded
    assert_exact(func, chains)


def test_simplify_times_one_becomes_a_copy_in_place():
    func = parse_program("""
        func @main(i32) -> i32 params(%n) {
        entry:
          %x = const.i32 3
          %one = const.i32 1
          jmp ->loop
        loop:
          %x = mul32 %x, %one
          %c = cmp32.lt %x, %n
          br %c, ->loop, ->done
        done:
          ret %x
        }
    """).main
    holder = ChainsHolder(func)
    chains = holder.get()
    assert simplify(func, holder)
    (copy,) = _instrs(func, Opcode.MOV)
    assert copy.srcs[0].name == "x"
    assert holder.get() is chains
    assert_exact(func, chains)


COPIES = """
    func @main(i32) -> i32 params(%p) {
    entry:
      %a = add32 %p, %p
      %b = mov %a
      %c = mov %b
      jmp ->loop
    loop:
      %s = add32 %c, %b
      %d = cmp32.lt %s, %p
      br %d, ->loop, ->done
    done:
      ret %s
    }
"""


def test_copy_propagation_repoints_operands_in_place():
    func = parse_program(COPIES).main
    holder = ChainsHolder(func)
    chains = holder.get()
    assert propagate_copies(func, holder)
    (add,) = [instr for instr in _instrs(func, Opcode.ADD32)
              if instr.dest.name == "s"]
    assert [src.name for src in add.srcs] == ["a", "a"]
    assert holder.get() is chains
    assert_exact(func, chains)


def test_copy_propagation_keeps_a_copy_that_reads_a_later_definition():
    # ``%a``'s one definition reaches ``%s`` but not the copy, which runs
    # first and reads ``%a`` unwritten: reading ``%a`` at ``%s`` would
    # see the later value.  ``%b`` is a parameter only so the parser
    # knows its type.
    program = parse_program("""
        func @main(i32, i32) -> i32 params(%p, %b) {
        entry:
          jmp ->copy
        late:
          %a = add32 %p, %p
          %s = add32 %b, %p
          ret %s
        copy:
          %b = mov %a
          jmp ->late
        }
    """)
    func = program.main
    before = run_ideal(program, args=(5, 7)).observable()
    holder = ChainsHolder(func)
    chains = holder.get()
    assert not propagate_copies(func, holder)
    assert _instrs(func, Opcode.ADD32)[1].srcs[0].name == "b"
    assert holder.get() is chains
    assert run_ideal(program, args=(5, 7)).observable() == before


def test_dce_removes_a_chain_of_dead_definitions_in_place():
    func = parse_program("""
        func @main(i32) -> i32 params(%p) {
        entry:
          %a = add32 %p, %p
          %b = mul32 %a, %a
          %c = sub32 %b, %p
          %keep = add32 %p, %p
          ret %keep
        }
    """).main
    holder = ChainsHolder(func)
    chains = holder.get()
    assert eliminate_dead_code(func, holder)
    assert [instr.dest.name for _, instr in func.instructions()
            if instr.dest is not None] == ["keep"]
    assert holder.get() is chains
    assert_exact(func, chains)


def test_edits_refuse_what_they_cannot_keep_exact():
    func = parse_program(COPIES).main
    chains = Chains(func)
    a_def, *_ = _instrs(func, Opcode.ADD32)
    # In ``%a = add32 %p, %p``'s place: a constant for ``%p``, or a copy
    # of ``%b``, which it does not read.
    with pytest.raises(ValueError):
        chains.replace(a_def, Instr(Opcode.CONST, func.params[0], imm=0,
                                    elem=ScalarType.I32))
    with pytest.raises(ValueError):
        chains.replace(a_def, Instr(Opcode.MOV, a_def.dest,
                                    (_instrs(func, Opcode.MOV)[0].dest,)))
    with pytest.raises(ValueError):
        chains.remove(a_def)  # ``%a`` is still read
    assert_exact(func, chains)


def test_an_edit_that_skips_the_du_update_is_caught(checked_reuse,
                                                    monkeypatch):
    def ud_only(chains, instr, index, defs):
        chains._ud[instr.uid, index] = list(defs)

    monkeypatch.setattr(Chains, "repoint", ud_only)
    func = parse_program(COPIES).main
    manager = PassManager([Pass("copy-prop", propagate_copies),
                           Pass("dce", eliminate_dead_code)])
    with pytest.raises(AssertionError, match="stale chains reused in main"):
        manager.run_to_fixpoint(func)


#: ``Chains`` builds for the 17 workloads under the default variant on
#: IA64.  Constant folding, simplify's algebraic step, copy propagation
#: and DCE edit the chains they share instead of rebuilding them; this
#: was 295 when each of them rebuilt after every round that changed
#: something.
MAX_BUILDS = 170


def test_chain_builds_stay_within_the_budget(monkeypatch):
    builds: list[str] = []
    init = Chains.__init__

    def counted(chains, func):
        builds.append(func.name)
        init(chains, func)

    monkeypatch.setattr(Chains, "__init__", counted)
    config = VARIANTS["new algorithm (all)"].with_traits(MACHINES["ia64"])
    for workload in all_workloads():
        compile_ir(workload.program(), config)
    assert len(builds) <= MAX_BUILDS
