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
    entry = func.entry
    seen = {entry.label}
    order = [entry]
    # One successor iterator per block on the current DFS path: the
    # recursive walk's frames, so a deep CFG cannot overflow the stack.
    stack = [iter(entry.succs)]
    while stack:
        for succ in stack[-1]:
            if succ.label not in seen:
                seen.add(succ.label)
                order.append(succ)
                stack.append(iter(succ.succs))
                break
        else:
            stack.pop()
    _append_unreached(func, seen, order)
    return order


def postorder(func: Function) -> list[Block]:
    """Blocks in DFS postorder from the entry (unreachables appended)."""
    func.build_cfg()
    entry = func.entry
    seen = {entry.label}
    order: list[Block] = []
    # The DFS path and, in step with it, each block's successor iterator.
    path = [entry]
    stack = [iter(entry.succs)]
    while stack:
        for succ in stack[-1]:
            if succ.label not in seen:
                seen.add(succ.label)
                path.append(succ)
                stack.append(iter(succ.succs))
                break
        else:
            stack.pop()
            order.append(path.pop())
    _append_unreached(func, seen, order)
    return order


def _append_unreached(func: Function, seen: set[str],
                      order: list[Block]) -> None:
    """Append the blocks not in ``seen``, in layout order."""
    if len(order) < len(func.blocks):
        for block in func.blocks:
            if block.label not in seen:
                seen.add(block.label)
                order.append(block)


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
