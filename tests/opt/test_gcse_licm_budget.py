"""GCSE and LICM build only the analyses whose answers they read.

GCSE solves available expressions only when some expression is
computed twice, and LICM solves liveness only when a candidate asks
whether its destination is live into a loop header.  The counts come
from wrapping the two analyses here; production code keeps no counter.
"""

import pytest

import repro.opt.gcse as gcse
import repro.opt.licm as licm
from repro.core import VARIANTS, compile_ir
from repro.ir.parser import parse_program
from repro.machine import MACHINES
from repro.opt import eliminate_common_subexpressions, hoist_loop_invariants
from repro.workloads import get_workload


@pytest.fixture
def built(monkeypatch) -> dict[str, int]:
    """Counts of available-expression problems and ``Liveness`` builds."""
    counts = {"availability": 0, "liveness": 0}

    class CountedProblem(gcse.DataflowProblem):
        def __init__(self, *args, **kwargs):
            counts["availability"] += 1
            super().__init__(*args, **kwargs)

    class CountedLiveness(licm.Liveness):
        def __init__(self, *args, **kwargs):
            counts["liveness"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gcse, "DataflowProblem", CountedProblem)
    monkeypatch.setattr(licm, "Liveness", CountedLiveness)
    return counts


def test_gcse_without_a_repeated_expression_solves_nothing(built):
    func = parse_program("""
func @main(i32, i32) -> i32 params(%x, %y) {
entry:
  %a = add32 %x, %y
  %b = sub32 %x, %y
  %c = mul32 %a, %b
  br %c, ->left, ->out
left:
  %d = add32 %y, %y
  jmp ->out
out:
  ret %c
}
""").main
    assert not eliminate_common_subexpressions(func)
    assert built["availability"] == 0


def test_gcse_with_a_repeated_expression_solves_availability(built):
    func = parse_program("""
func @main(i32, i32) -> i32 params(%x, %y) {
entry:
  %a = add32 %x, %y
  %b = add32 %y, %x
  %c = mul32 %a, %b
  ret %c
}
""").main
    assert eliminate_common_subexpressions(func)
    assert built["availability"] == 1


#: A loop whose only pure computations read the induction variable, so
#: none of them reaches the liveness test.
VARIANT_ONLY_LOOP = """
func @main(i32) -> i32 params(%n) {
entry:
  %i = const.i32 0
  %one = const.i32 1
  jmp ->loop
loop:
  %sq = mul32 %i, %i
  sink %sq
  %i = add32 %i, %one
  %c = cmp32.lt %i, %n
  br %c, ->loop, ->out
out:
  ret %i
}
"""


def test_licm_without_a_candidate_builds_no_liveness(built):
    func = parse_program(VARIANT_ONLY_LOOP).main
    assert not hoist_loop_invariants(func)
    assert built["liveness"] == 0


def test_licm_asks_liveness_for_an_invariant_candidate(built):
    func = parse_program(VARIANT_ONLY_LOOP.replace(
        "  sink %sq\n", "  sink %sq\n  %k = mul32 %n, %n\n  sink %k\n")).main
    assert hoist_loop_invariants(func)
    # One round hoists, the next finds nothing left to ask about.
    assert built["liveness"] == 1


#: Two programs over every variant on both machines: 24 compiles each.
#: Before GCSE numbered only repeated expressions and LICM built
#: liveness on demand, these counts were 242 and 180.
BUDGET_PROGRAMS = ("bitfield", "mtrt")
MAX_AVAILABILITY_PROBLEMS = 70
MAX_LIVENESS_BUILDS = 28


def test_grid_subset_stays_within_the_analysis_budget(built):
    for name in BUDGET_PROGRAMS:
        program = get_workload(name).program()
        for traits in MACHINES.values():
            for config in VARIANTS.values():
                compile_ir(program, config.with_traits(traits))
    assert built["availability"] <= MAX_AVAILABILITY_PROBLEMS
    assert built["liveness"] <= MAX_LIVENESS_BUILDS
