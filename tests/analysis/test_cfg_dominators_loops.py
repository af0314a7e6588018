"""Tests for CFG orders, dominators, and loop detection."""

from repro.analysis import (
    DominatorTree,
    LoopForest,
    depth_first_order,
    postorder,
    reverse_depth_first_order,
    reverse_postorder,
)
from repro.analysis.cfg import reachable_labels
from repro.frontend import compile_source
from repro.ir import Cond, Instr, Opcode, Program, ScalarType, build_function
from tests.conftest import make_fig7_program


def _block_by_prefix(func, prefix):
    for block in func.blocks:
        if block.label.startswith(prefix):
            return block
    raise KeyError(prefix)


def _diamond():
    """entry -> (left | right) -> join."""
    program = Program()
    b = build_function(program, "main", [], ScalarType.I32)
    zero = b.const(0)
    one = b.const(1)
    left = b.block("left")
    right = b.block("right")
    join = b.block("join")
    cond = b.cmp(Opcode.CMP32, Cond.LT, zero, one)
    b.br(cond, left, right)
    b.switch(left)
    b.jmp(join)
    b.switch(right)
    b.jmp(join)
    b.switch(join)
    b.ret(one)
    return program.main, left, right, join


class TestOrders:
    def test_rpo_entry_first(self):
        func, *_ = _diamond()
        order = reverse_postorder(func)
        assert order[0] is func.entry
        assert order[-1].label.startswith("join")

    def test_postorder_entry_last(self):
        func, *_ = _diamond()
        order = postorder(func)
        assert order[-1] is func.entry

    def test_every_block_once(self):
        func = make_fig7_program(3).main
        for order_fn in (depth_first_order, postorder, reverse_postorder,
                         reverse_depth_first_order):
            order = order_fn(func)
            assert len(order) == len(func.blocks)
            assert len({b.label for b in order}) == len(func.blocks)

    def test_dfs_preorder_parent_before_child(self):
        func, left, right, join = _diamond()
        order = depth_first_order(func)
        positions = {b.label: i for i, b in enumerate(order)}
        assert positions[func.entry.label] < positions[left.label]
        assert positions[left.label] < positions[join.label]

    def test_deep_cfg_does_not_recurse(self):
        # 2,000 ifs in a row make a DFS path far deeper than Python's
        # recursion limit; the walks keep their own stack.
        body = "".join(f"if (x > {k}) {{ y += {k}; }}\n" for k in range(2000))
        program = compile_source(
            f"int main() {{ int x = 5; int y = 0;\n{body} return y; }}")
        func = program.functions["main"]
        preorder, post = depth_first_order(func), postorder(func)
        reached = len(reachable_labels(func))
        assert preorder[0] is func.entry and post[reached - 1] is func.entry
        assert len(preorder) == len(post) == len(func.blocks)
        assert {b.label for b in preorder} == {b.label for b in post}


class TestDominators:
    def test_entry_dominates_all(self):
        func, left, right, join = _diamond()
        tree = DominatorTree(func)
        for block in func.blocks:
            assert tree.dominates(func.entry, block)

    def test_branches_do_not_dominate_join(self):
        func, left, right, join = _diamond()
        tree = DominatorTree(func)
        assert not tree.dominates(left, join)
        assert not tree.dominates(right, join)
        assert tree.immediate_dominator(join) is func.entry

    def test_self_domination(self):
        func, left, *_ = _diamond()
        tree = DominatorTree(func)
        assert tree.dominates(left, left)

    def test_loop_header_dominates_itself_and_body(self):
        func = make_fig7_program(3).main
        tree = DominatorTree(func)
        body = _block_by_prefix(func, "body")
        entry = func.entry
        assert tree.dominates(entry, body)
        assert tree.dominates(body, body)


class TestLoops:
    def test_fig7_has_two_loops(self):
        func = make_fig7_program(3).main
        forest = LoopForest(func)
        assert len(forest.loops) == 2
        headers = {loop.header.label for loop in forest.loops}
        assert any(h.startswith("fill") for h in headers)
        assert any(h.startswith("body") for h in headers)

    def test_loop_depth_assignment(self):
        func = make_fig7_program(3).main
        LoopForest(func)
        assert _block_by_prefix(func, "body").loop_depth == 1
        assert func.entry.loop_depth == 0

    def test_nested_loops(self):
        program = Program()
        b = build_function(program, "main", [], None)
        i = b.func.named_reg("i", ScalarType.I32)
        j = b.func.named_reg("j", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        three = b.const(3)
        b.mov(zero, i)
        outer = b.block("outer")
        inner = b.block("inner")
        after_inner = b.block("after_inner")
        done = b.block("done")
        b.jmp(outer)
        b.switch(outer)
        b.mov(zero, j)
        b.jmp(inner)
        b.switch(inner)
        b.binop(Opcode.ADD32, j, one, j)
        c1 = b.cmp(Opcode.CMP32, Cond.LT, j, three)
        b.br(c1, inner, after_inner)
        b.switch(after_inner)
        b.binop(Opcode.ADD32, i, one, i)
        c2 = b.cmp(Opcode.CMP32, Cond.LT, i, three)
        b.br(c2, outer, done)
        b.switch(done)
        b.ret()
        forest = LoopForest(program.main)
        assert len(forest.loops) == 2
        inner_loop = forest.loop_of(inner)
        assert inner_loop is not None
        assert inner_loop.depth == 2
        assert inner_loop.parent is not None
        assert inner_loop.parent.header is outer
        assert inner.loop_depth == 2
        assert outer.loop_depth == 1
