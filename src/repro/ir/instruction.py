"""Virtual registers and instructions.

Design notes
------------
* The IR is **not** SSA: a virtual register may have many definitions, as
  in the JIT IR the paper targets.  Def-use information comes from
  UD/DU chains (:mod:`repro.analysis.ud_du`), exactly as in the paper.
* All source operands are virtual registers; constants are materialized
  with ``CONST``.  This keeps UD/DU chains uniform and matches the
  register-machine flavour of the original system.
* Each instruction has a process-unique ``uid`` so analyses can key
  side tables (the paper's USE/DEF/ARRAY traversal flags) off identity
  without mutating instructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .opcodes import EXTEND_OPS, OP_INFO, Cond, Opcode, OpInfo, Role
from .types import ScalarType

_uid_counter = itertools.count(1)


@dataclass(frozen=True)
class VReg:
    """A virtual register with a declared semantic type."""

    name: str
    type: ScalarType

    def __str__(self) -> str:
        return f"%{self.name}"


class Instr:
    """One IR instruction.

    Only the fields meaningful for the opcode are set; the rest stay
    ``None``.  ``targets`` holds successor block labels for terminators.
    """

    __slots__ = (
        "uid",
        "opcode",
        "dest",
        "srcs",
        "imm",
        "cond",
        "elem",
        "callee",
        "gname",
        "targets",
        "comment",
    )

    def __init__(
        self,
        opcode: Opcode,
        dest: VReg | None = None,
        srcs: tuple[VReg, ...] = (),
        *,
        imm: int | float | None = None,
        cond: Cond | None = None,
        elem: ScalarType | None = None,
        callee: str | None = None,
        gname: str | None = None,
        targets: tuple[str, ...] = (),
        comment: str = "",
    ) -> None:
        self.uid: int = next(_uid_counter)
        self.opcode = opcode
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.cond = cond
        self.elem = elem
        self.callee = callee
        self.gname = gname
        self.targets = tuple(targets)
        self.comment = comment

    # -- structural queries ------------------------------------------------

    @property
    def info(self) -> OpInfo:
        return OP_INFO[self.opcode]

    @property
    def is_terminator(self) -> bool:
        return self.info.is_terminator

    @property
    def is_extend(self) -> bool:
        return self.opcode in EXTEND_OPS

    @property
    def is_self_extend(self) -> bool:
        """``r = extendN(r)`` on an ``i32`` register: an elimination
        candidate, and a computation that recomputing leaves unchanged."""
        dest = self.dest
        return (self.opcode in EXTEND_OPS and dest is not None
                and dest.type is ScalarType.I32 and len(self.srcs) == 1
                and self.srcs[0].name == dest.name)

    @property
    def has_side_effects(self) -> bool:
        return self.info.has_side_effects or self.is_terminator

    def role_of(self, index: int) -> Role:
        return self.info.role_of(index)

    def copy(self) -> "Instr":
        """A fresh instruction (new uid) with identical payload."""
        return Instr(
            self.opcode,
            self.dest,
            self.srcs,
            imm=self.imm,
            cond=self.cond,
            elem=self.elem,
            callee=self.callee,
            gname=self.gname,
            targets=self.targets,
            comment=self.comment,
        )

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        if self.dest is not None:
            parts.append(f"{self.dest} =")
        name = self.opcode.value
        if self.cond is not None:
            name += f".{self.cond.value}"
        if self.elem is not None:
            name += f".{self.elem.value}"
        parts.append(name)
        operands: list[str] = [str(s) for s in self.srcs]
        if self.imm is not None:
            operands.append(repr(self.imm))
        if self.callee is not None:
            operands.insert(0, f"@{self.callee}")
        if self.gname is not None:
            operands.insert(0, f"${self.gname}")
        if self.targets:
            operands.extend(f"->{t}" for t in self.targets)
        parts.append(", ".join(operands))
        text = " ".join(p for p in parts if p)
        if self.comment:
            text += f"  ; {self.comment}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instr#{self.uid} {self}>"


@dataclass
class Global:
    """A global scalar or array-reference slot."""

    name: str
    type: ScalarType
    initial: int | float = 0


@dataclass
class FuncSig:
    """Signature of a function: parameter and return types."""

    params: tuple[ScalarType, ...]
    ret: ScalarType | None

    def __str__(self) -> str:
        args = ", ".join(p.value for p in self.params)
        ret = self.ret.value if self.ret is not None else "void"
        return f"({args}) -> {ret}"
