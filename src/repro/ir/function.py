"""Functions and whole programs (modules)."""

from __future__ import annotations

from collections.abc import Iterator

from .block import Block
from .instruction import FuncSig, Global, Instr, VReg
from .types import ScalarType


class Function:
    """A function: an entry block, more blocks, parameters, registers.

    Parameters are virtual registers defined "before entry"; analyses
    model them as definitions at a pseudo entry point.
    """

    def __init__(self, name: str, sig: FuncSig) -> None:
        self.name = name
        self.sig = sig
        self.params: list[VReg] = []
        self.blocks: list[Block] = []
        self._blocks_by_label: dict[str, Block] = {}
        self._reg_names: set[str] = set()
        self._temp_counter = 0
        self._label_counter = 0
        self._cfg_valid = False

    # -- registers -----------------------------------------------------------

    def new_reg(self, type_: ScalarType, hint: str = "t") -> VReg:
        """Allocate a fresh virtual register with a unique name."""
        while True:
            self._temp_counter += 1
            name = f"{hint}{self._temp_counter}"
            if name not in self._reg_names:
                break
        self._reg_names.add(name)
        return VReg(name, type_)

    def named_reg(self, name: str, type_: ScalarType) -> VReg:
        """A register with a specific (caller-managed) name."""
        self._reg_names.add(name)
        return VReg(name, type_)

    def add_param(self, name: str, type_: ScalarType) -> VReg:
        reg = self.named_reg(name, type_)
        self.params.append(reg)
        return reg

    # -- blocks ---------------------------------------------------------------

    def new_block(self, hint: str = "bb") -> Block:
        while True:
            self._label_counter += 1
            label = f"{hint}{self._label_counter}"
            if label not in self._blocks_by_label:
                break
        return self.add_block(Block(label))

    def add_block(self, block: Block) -> Block:
        if block.label in self._blocks_by_label:
            raise ValueError(f"duplicate block label: {block.label}")
        self.blocks.append(block)
        self._blocks_by_label[block.label] = block
        self._cfg_valid = False
        return block

    def block(self, label: str) -> Block:
        return self._blocks_by_label[label]

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    # -- CFG maintenance --------------------------------------------------------

    def invalidate_cfg(self) -> None:
        self._cfg_valid = False

    def build_cfg(self) -> None:
        """(Re)compute predecessor/successor lists from terminators."""
        if self._cfg_valid:
            return
        for block in self.blocks:
            block.preds = []
            block.succs = []
        for block in self.blocks:
            for label in block.terminator.targets:
                succ = self._blocks_by_label[label]
                block.succs.append(succ)
                succ.preds.append(block)
        self._cfg_valid = True

    def drop_unreachable_blocks(self) -> int:
        """Remove blocks unreachable from the entry; returns count removed."""
        self.build_cfg()
        seen: set[str] = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.label in seen:
                continue
            seen.add(block.label)
            stack.extend(block.succs)
        dead = [b for b in self.blocks if b.label not in seen]
        if dead:
            self.blocks = [b for b in self.blocks if b.label in seen]
            self._blocks_by_label = {b.label: b for b in self.blocks}
            self._cfg_valid = False
        return len(dead)

    # -- iteration -----------------------------------------------------------------

    def instructions(self) -> Iterator[tuple[Block, Instr]]:
        """All (block, instruction) pairs in layout order."""
        for block in self.blocks:
            for instr in block.instrs:
                yield block, instr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name}{self.sig} ({len(self.blocks)} blocks)>"


class Program:
    """A module: functions plus global variables, with a designated main."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, Global] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function: {func.name}")
        self.functions[func.name] = func
        return func

    def add_global(self, name: str, type_: ScalarType, initial: int | float = 0) -> Global:
        if name in self.globals:
            raise ValueError(f"duplicate global: {name}")
        glob = Global(name, type_, initial)
        self.globals[name] = glob
        return glob

    def function(self, name: str) -> Function:
        return self.functions[name]

    @property
    def main(self) -> Function:
        if "main" not in self.functions:
            raise ValueError("program has no main function")
        return self.functions["main"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name} ({len(self.functions)} functions)>"
