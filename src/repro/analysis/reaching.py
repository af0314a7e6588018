"""Reaching definitions.

Each definition site (an instruction with a destination, or a function
parameter, modelled as a pseudo-definition at entry) gets a global index;
the classic gen/kill bit-vector problem then yields, per block, the set
of definitions reaching its start.  UD/DU chains are derived in
:mod:`repro.analysis.ud_du`.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instruction import Instr, VReg
from .dataflow import DataflowProblem, Direction, Meet


class Definition:
    """One definition of a virtual register.

    ``instr`` is ``None`` for parameter pseudo-definitions.  It is
    mutable so that :meth:`repro.analysis.ud_du.Chains.replace` can
    repoint it at a replacement instruction; ``index`` never changes.
    """

    __slots__ = ("index", "reg", "instr", "block_label")

    def __init__(self, index: int, reg: VReg, instr: Instr | None,
                 block_label: str | None) -> None:
        self.index = index
        self.reg = reg
        self.instr = instr
        self.block_label = block_label

    @property
    def is_param(self) -> bool:
        return self.instr is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.instr is None:
            return f"<param {self.reg}>"
        return f"<def#{self.index} {self.instr}>"


class ReachingDefinitions:
    """Solved reaching-definitions facts for one function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.definitions: list[Definition] = []
        self.def_of_instr: dict[int, Definition] = {}  # instr uid -> Definition
        self._defs_of_reg: dict[str, int] = {}  # reg name -> bitset of def idx
        self._collect()
        self._solve()

    # -- collection --------------------------------------------------------

    def _add_definition(self, reg: VReg, instr: Instr | None,
                        block_label: str | None) -> Definition:
        definition = Definition(len(self.definitions), reg, instr, block_label)
        self.definitions.append(definition)
        if instr is not None:
            self.def_of_instr[instr.uid] = definition
        self._defs_of_reg[reg.name] = (
            self._defs_of_reg.get(reg.name, 0) | (1 << definition.index)
        )
        return definition

    def _collect(self) -> None:
        for param in self.func.params:
            self._add_definition(param, None, None)
        for block in self.func.blocks:
            for instr in block.instrs:
                if instr.dest is not None:
                    self._add_definition(instr.dest, instr, block.label)

    # -- dataflow -------------------------------------------------------------

    def _solve(self) -> None:
        problem = DataflowProblem(
            self.func,
            Direction.FORWARD,
            Meet.UNION,
            len(self.definitions),
            boundary=self._param_bits(),
        )
        for block in self.func.blocks:
            facts = problem.facts_for(block)
            gen = 0
            kill = 0
            for instr in block.instrs:
                if instr.dest is None:
                    continue
                definition = self.def_of_instr[instr.uid]
                same_reg = self._defs_of_reg[instr.dest.name]
                gen = (gen & ~same_reg) | (1 << definition.index)
                kill |= same_reg & ~(1 << definition.index)
            facts.gen = gen
            facts.kill = kill & ~gen
        problem.solve()
        self._problem = problem

    def _param_bits(self) -> int:
        bits = 0
        for definition in self.definitions:
            if definition.is_param:
                bits |= 1 << definition.index
        return bits

    # -- queries ---------------------------------------------------------------

    def reaching_in(self, block_label: str) -> int:
        return self._problem.facts[block_label].in_

    def defs_of_reg_bits(self, reg: VReg) -> int:
        return self._defs_of_reg.get(reg.name, 0)
