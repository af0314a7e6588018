"""CFG traversal orders."""

from __future__ import annotations

from ..ir.block import Block
from ..ir.function import Function


def depth_first_order(func: Function) -> list[Block]:
    """Blocks in depth-first (preorder) from the entry.

    Unreachable blocks are appended at the end in layout order so every
    block appears exactly once.
    """
    func.build_cfg()
    seen: set[str] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        if block.label in seen:
            return
        seen.add(block.label)
        order.append(block)
        for succ in block.succs:
            visit(succ)

    visit(func.entry)
    for block in func.blocks:
        if block.label not in seen:
            seen.add(block.label)
            order.append(block)
    return order


def postorder(func: Function) -> list[Block]:
    """Blocks in DFS postorder from the entry (unreachables appended)."""
    func.build_cfg()
    seen: set[str] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        if block.label in seen:
            return
        seen.add(block.label)
        for succ in block.succs:
            visit(succ)
        order.append(block)

    visit(func.entry)
    for block in func.blocks:
        if block.label not in seen:
            seen.add(block.label)
            order.append(block)
    return order


def reachable_labels(func: Function) -> set[str]:
    """The labels of the blocks the entry reaches."""
    func.build_cfg()
    seen: set[str] = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block.label in seen:
            continue
        seen.add(block.label)
        stack.extend(block.succs)
    return seen


def reverse_postorder(func: Function) -> list[Block]:
    """Reverse postorder: the canonical order for forward dataflow."""
    return list(reversed(postorder(func)))


def reverse_depth_first_order(func: Function) -> list[Block]:
    """The paper's fallback elimination order when order determination is
    disabled: "the reverse depth first search order, the same order in
    which backward dataflow analysis is performed" — i.e. postorder.
    """
    return postorder(func)
