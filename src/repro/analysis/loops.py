"""Natural loop detection and nesting depth.

Order determination (Section 2.2 of the paper) estimates block execution
frequency "from both the loop nesting level of B and the execution
frequency of B within its acyclic region"; this module supplies the loop
nesting level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.block import Block
from ..ir.function import Function
from .dominators import DominatorTree


@dataclass
class Loop:
    """One natural loop: a header plus the body reached by back edges."""

    header: Block
    body: set[str] = field(default_factory=set)  # labels, includes header
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains(self, block: Block) -> bool:
        return block.label in self.body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header.label} |body|={len(self.body)}>"


class LoopForest:
    """All natural loops of a function, nested into a forest.

    Also writes ``block.loop_depth`` for downstream consumers.
    """

    def __init__(self, func: Function, domtree: DominatorTree | None = None) -> None:
        self.func = func
        self.domtree = domtree or DominatorTree(func)
        self.loops: list[Loop] = []
        self._loops_by_header: dict[str, Loop] = {}
        self._compute()

    def _compute(self) -> None:
        func = self.func
        func.build_cfg()
        # Find back edges: tail -> header where header dominates tail.
        back_edges: list[tuple[Block, Block]] = []
        for block in func.blocks:
            for succ in block.succs:
                if self.domtree.dominates(succ, block):
                    back_edges.append((block, succ))

        # One loop per header; merge bodies of back edges sharing a header.
        for tail, header in back_edges:
            loop = self._loops_by_header.get(header.label)
            if loop is None:
                loop = Loop(header, {header.label})
                self._loops_by_header[header.label] = loop
                self.loops.append(loop)
            self._collect_body(loop, tail)

        self._nest_loops()
        self._assign_depths()

    def _collect_body(self, loop: Loop, tail: Block) -> None:
        """Blocks that reach ``tail`` without passing through the header."""
        stack = [tail]
        while stack:
            block = stack.pop()
            if block.label in loop.body:
                continue
            loop.body.add(block.label)
            stack.extend(block.preds)

    def _nest_loops(self) -> None:
        # Smaller body strictly inside larger body => child.
        ordered = sorted(self.loops, key=lambda l: len(l.body))
        for index, inner in enumerate(ordered):
            for outer in ordered[index + 1:]:
                if inner.header.label in outer.body and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    def _assign_depths(self) -> None:
        depth: dict[str, int] = {b.label: 0 for b in self.func.blocks}
        for loop in self.loops:
            for label in loop.body:
                depth[label] = max(depth[label], loop.depth)
        for block in self.func.blocks:
            block.loop_depth = depth[block.label]

    def loop_of(self, block: Block) -> Loop | None:
        """The innermost loop containing ``block``, if any."""
        best: Loop | None = None
        for loop in self.loops:
            if loop.contains(block):
                if best is None or loop.depth > best.depth:
                    best = loop
        return best
