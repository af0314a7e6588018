"""Chains that the general passes share are never stale.

Every general pass asks one :class:`ChainsHolder` per function for its
UD/DU chains, and a pass that edits the function must invalidate them.
The ``checked_reuse`` fixture checks that contract on every reuse:
whenever the holder hands out chains it already held, they must equal a
fresh ``Chains(func)``.  The check lives only here; production code has
no flag for it.
"""

import pytest

from repro.analysis.ud_du import Chains, ChainsHolder
from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.ir import Instr, Opcode
from repro.opt import Pass, PassManager, eliminate_dead_code
from repro.testing import generate_program
from repro.workloads import all_workloads

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
    """The UD set of every use and the DU set of every definition of
    ``func`` as it is now.  A definition is its instruction uid, or the
    parameter's name; a use is (instruction uid, operand index)."""
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
    return ud, du


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
                "the function without calling invalidate()")
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

