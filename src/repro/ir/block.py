"""Basic blocks."""

from __future__ import annotations

from collections.abc import Iterator

from .instruction import Instr


class Block:
    """A basic block: a label and a list of instructions.

    The final instruction must be a terminator (``BR``/``JMP``/``RET``).
    Predecessor/successor lists are derived by :class:`repro.ir.function.
    Function` from terminator targets and cached; call
    ``Function.invalidate_cfg()`` after structural edits.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: list[Instr] = []
        self.preds: list["Block"] = []
        self.succs: list["Block"] = []
        #: Estimated execution frequency, filled by frequency analysis.
        self.freq: float = 1.0
        #: Loop nesting depth, filled by loop analysis.
        self.loop_depth: int = 0

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise ValueError(f"block {self.label} lacks a terminator")
        return self.instrs[-1]

    @property
    def body(self) -> list[Instr]:
        """Instructions excluding the terminator."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[:-1]
        return list(self.instrs)

    def executed(self) -> list[Instr]:
        """The instructions an entry to the block runs: those up to and
        including the first terminator (a tail past it is unreachable)."""
        for index, instr in enumerate(self.instrs):
            if instr.is_terminator:
                return self.instrs[:index + 1]
        return list(self.instrs)

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def insert_before(self, anchor: Instr, instr: Instr) -> Instr:
        """Insert ``instr`` immediately before ``anchor`` in this block."""
        index = self._index_of(anchor)
        self.instrs.insert(index, instr)
        return instr

    def insert_after(self, anchor: Instr, instr: Instr) -> Instr:
        """Insert ``instr`` immediately after ``anchor`` in this block."""
        index = self._index_of(anchor)
        self.instrs.insert(index + 1, instr)
        return instr

    def remove(self, instr: Instr) -> None:
        self.instrs.remove(instr)

    def _index_of(self, instr: Instr) -> int:
        for i, candidate in enumerate(self.instrs):
            if candidate is instr:
                return i
        raise ValueError(f"instruction not in block {self.label}: {instr}")

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.label} ({len(self.instrs)} instrs)>"
