"""Classic backward liveness of virtual registers."""

from __future__ import annotations

from ..ir.function import Function
from .dataflow import DataflowProblem, Direction, Meet


class Liveness:
    """Live-register sets at block boundaries."""

    def __init__(self, func: Function) -> None:
        self.func = func
        names = {p.name for p in func.params}
        for _, instr in func.instructions():
            if instr.dest is not None:
                names.add(instr.dest.name)
            for src in instr.srcs:
                names.add(src.name)
        self.index_of: dict[str, int] = {
            name: i for i, name in enumerate(sorted(names))
        }
        self._solve()

    def _solve(self) -> None:
        problem = DataflowProblem(
            self.func, Direction.BACKWARD, Meet.UNION, len(self.index_of)
        )
        for block in self.func.blocks:
            facts = problem.facts_for(block)
            use = 0
            define = 0
            for instr in block.instrs:
                for src in instr.srcs:
                    bit = 1 << self.index_of[src.name]
                    if not define & bit:
                        use |= bit
                if instr.dest is not None:
                    define |= 1 << self.index_of[instr.dest.name]
            facts.gen = use
            facts.kill = define & ~use
        problem.solve()
        self._problem = problem

    def live_out(self, block_label: str) -> int:
        return self._problem.facts[block_label].out

    def live_in(self, block_label: str) -> int:
        return self._problem.facts[block_label].in_

    def is_live_out(self, block_label: str, reg_name: str) -> bool:
        bit = self.index_of.get(reg_name)
        if bit is None:
            return False
        return bool(self.live_out(block_label) & (1 << bit))
