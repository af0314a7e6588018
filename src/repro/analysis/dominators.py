"""Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm."""

from __future__ import annotations

from ..ir.block import Block
from ..ir.function import Function
from .cfg import postorder, reachable_labels


class DominatorTree:
    """Immediate dominators for every reachable block."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.idom: dict[str, Block] = {}
        self._rpo_number: dict[str, int] = {}
        self._compute()

    def _compute(self) -> None:
        func = self.func
        func.build_cfg()
        order = [b for b in reversed(postorder(func))]
        # Restrict to blocks reachable from the entry.
        reachable = reachable_labels(func)
        order = [b for b in order if b.label in reachable]
        for number, block in enumerate(order):
            self._rpo_number[block.label] = number

        entry = func.entry
        idom: dict[str, Block] = {entry.label: entry}
        changed = True
        while changed:
            changed = False
            for block in order:
                if block is entry:
                    continue
                processed = [
                    p for p in block.preds
                    if p.label in idom and p.label in reachable
                ]
                if not processed:
                    continue
                new_idom = processed[0]
                for pred in processed[1:]:
                    new_idom = self._intersect(idom, pred, new_idom)
                if idom.get(block.label) is not new_idom:
                    idom[block.label] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(self, idom: dict[str, Block], a: Block, b: Block) -> Block:
        number = self._rpo_number
        while a is not b:
            while number[a.label] > number[b.label]:
                a = idom[a.label]
            while number[b.label] > number[a.label]:
                b = idom[b.label]
        return a

    def dominates(self, a: Block, b: Block) -> bool:
        """Does ``a`` dominate ``b``? (Reflexive.)"""
        if a.label not in self.idom or b.label not in self.idom:
            return False
        runner: Block = b
        while True:
            if runner is a:
                return True
            parent = self.idom[runner.label]
            if parent is runner:  # reached the entry
                return runner is a
            runner = parent

    def immediate_dominator(self, block: Block) -> Block | None:
        parent = self.idom.get(block.label)
        if parent is None or parent is block:
            return None
        return parent
