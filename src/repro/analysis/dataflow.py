"""A generic iterative bit-vector dataflow framework.

Facts are sets of small integers encoded as Python ints (bitsets), which
makes the transfer functions single AND/OR operations.  Used by reaching
definitions, liveness, the first algorithm's backward NEED analysis, and
the PRE phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..ir.block import Block
from ..ir.function import Function
from .cfg import postorder, reverse_postorder


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class Meet(enum.Enum):
    UNION = "union"  # may analyses
    INTERSECT = "intersect"  # must analyses


@dataclass
class BlockFacts:
    """gen/kill summary of one block, plus the fixpoint solution."""

    gen: int = 0
    kill: int = 0
    in_: int = 0
    out: int = 0


class DataflowProblem:
    """One instance of a bit-vector dataflow problem.

    Subclass or construct directly by filling per-block gen/kill with
    :meth:`facts_for`; then call :meth:`solve`.
    """

    def __init__(
        self,
        func: Function,
        direction: Direction,
        meet: Meet,
        universe_size: int,
        *,
        boundary: int = 0,
        initial: int | None = None,
    ) -> None:
        func.build_cfg()
        self.func = func
        self.direction = direction
        self.meet = meet
        self.universe_size = universe_size
        self.full = (1 << universe_size) - 1 if universe_size else 0
        self.boundary = boundary
        # Optimistic initialization for INTERSECT, empty for UNION.
        if initial is None:
            initial = self.full if meet is Meet.INTERSECT else 0
        self.initial = initial
        self.facts: dict[str, BlockFacts] = {
            block.label: BlockFacts(in_=initial, out=initial)
            for block in func.blocks
        }

    def facts_for(self, block: Block) -> BlockFacts:
        return self.facts[block.label]

    def _transfer(self, facts: BlockFacts, inp: int) -> int:
        return (inp & ~facts.kill) | facts.gen

    def _meet(self, values: list[int]) -> int:
        if not values:
            return self.boundary
        result = values[0]
        for value in values[1:]:
            if self.meet is Meet.UNION:
                result |= value
            else:
                result &= value
        return result

    def solve(self) -> None:
        """Iterate to fixpoint (worklist over a good block order)."""
        forward = self.direction is Direction.FORWARD
        order = reverse_postorder(self.func) if forward else postorder(self.func)
        changed = True
        while changed:
            changed = False
            for block in order:
                facts = self.facts[block.label]
                if forward:
                    neighbors = block.preds
                    inputs = [self.facts[p.label].out for p in neighbors]
                    new_in = self._meet(inputs) if neighbors else self.boundary
                    new_out = self._transfer(facts, new_in)
                    if new_in != facts.in_ or new_out != facts.out:
                        facts.in_, facts.out = new_in, new_out
                        changed = True
                else:
                    neighbors = block.succs
                    inputs = [self.facts[s.label].in_ for s in neighbors]
                    new_out = self._meet(inputs) if neighbors else self.boundary
                    new_in = self._transfer(facts, new_out)
                    if new_in != facts.in_ or new_out != facts.out:
                        facts.in_, facts.out = new_in, new_out
                        changed = True


def bit_indices(bits: int) -> list[int]:
    """Indices of set bits, ascending.

    >>> bit_indices(0b1011)
    [0, 1, 3]
    """
    indices = []
    while bits:
        low = bits & -bits  # the lowest set bit alone
        indices.append(low.bit_length() - 1)
        bits ^= low
    return indices
