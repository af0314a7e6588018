"""A fluent builder for constructing IR functions.

Used by the frontend lowering, by tests, and by the paper-example
reproductions.  The builder tracks a current insertion block; helpers
materialize constants and allocate destination registers automatically.
"""

from __future__ import annotations

from .block import Block
from .function import Function, Program
from .instruction import FuncSig, Instr, VReg
from .opcodes import RESULT_TYPE, Cond, Opcode
from .types import ScalarType


class FunctionBuilder:
    """Builds one function, one block at a time."""

    def __init__(self, program: Program, name: str, sig: FuncSig) -> None:
        self.program = program
        self.func = Function(name, sig)
        program.add_function(self.func)
        self.current: Block = self.func.new_block("entry")

    # -- block management -------------------------------------------------

    def block(self, hint: str = "bb") -> Block:
        """Create a new block without switching to it."""
        return self.func.new_block(hint)

    def switch(self, block: Block) -> Block:
        self.current = block
        return block

    def param(self, name: str, type_: ScalarType) -> VReg:
        return self.func.add_param(name, type_)

    # -- low-level emission -------------------------------------------------

    def emit(self, instr: Instr) -> Instr:
        self.current.append(instr)
        if instr.is_terminator:
            self.func.invalidate_cfg()
        return instr

    # -- values -------------------------------------------------------------

    def const(self, value: int | float, type_: ScalarType = ScalarType.I32,
              dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(type_.register_type, "c")
        self.emit(Instr(Opcode.CONST, dest, imm=value, elem=type_))
        return dest

    def mov(self, src: VReg, dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(src.type)
        self.emit(Instr(Opcode.MOV, dest, (src,)))
        return dest

    def unop(self, opcode: Opcode, src: VReg, dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(RESULT_TYPE[opcode])
        self.emit(Instr(opcode, dest, (src,)))
        return dest

    def binop(self, opcode: Opcode, lhs: VReg, rhs: VReg,
              dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(RESULT_TYPE[opcode])
        self.emit(Instr(opcode, dest, (lhs, rhs)))
        return dest

    def cmp(self, opcode: Opcode, cond: Cond, lhs: VReg, rhs: VReg,
            dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(RESULT_TYPE[opcode], "p")
        self.emit(Instr(opcode, dest, (lhs, rhs), cond=cond))
        return dest

    def extend32(self, src: VReg, dest: VReg | None = None) -> VReg:
        return self.unop(Opcode.EXTEND32, src, dest or src)

    # -- memory ----------------------------------------------------------------

    def newarray(self, elem: ScalarType, length: VReg,
                 dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(RESULT_TYPE[Opcode.NEWARRAY], "a")
        self.emit(Instr(Opcode.NEWARRAY, dest, (length,), elem=elem))
        return dest

    def aload(self, arr: VReg, index: VReg, elem: ScalarType,
              dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(elem.register_type)
        self.emit(Instr(Opcode.ALOAD, dest, (arr, index), elem=elem))
        return dest

    def astore(self, arr: VReg, index: VReg, value: VReg, elem: ScalarType) -> None:
        self.emit(Instr(Opcode.ASTORE, None, (arr, index, value), elem=elem))

    def arraylen(self, arr: VReg, dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(RESULT_TYPE[Opcode.ARRAYLEN], "len")
        self.emit(Instr(Opcode.ARRAYLEN, dest, (arr,)))
        return dest

    def gload(self, name: str, type_: ScalarType, dest: VReg | None = None) -> VReg:
        dest = dest or self.func.new_reg(type_.register_type, "g")
        self.emit(Instr(Opcode.GLOAD, dest, (), gname=name, elem=type_))
        return dest

    def gstore(self, name: str, value: VReg, type_: ScalarType) -> None:
        self.emit(Instr(Opcode.GSTORE, None, (value,), gname=name, elem=type_))

    # -- control --------------------------------------------------------------

    def br(self, cond_reg: VReg, then_block: Block, else_block: Block) -> None:
        self.emit(Instr(Opcode.BR, None, (cond_reg,),
                        targets=(then_block.label, else_block.label)))

    def jmp(self, target: Block) -> None:
        self.emit(Instr(Opcode.JMP, None, (), targets=(target.label,)))

    def ret(self, value: VReg | None = None) -> None:
        srcs = (value,) if value is not None else ()
        self.emit(Instr(Opcode.RET, None, srcs))

    def call(self, callee: str, args: list[VReg],
             ret_type: ScalarType | None = None) -> VReg | None:
        dest = self.func.new_reg(ret_type, "r") if ret_type is not None else None
        self.emit(Instr(Opcode.CALL, dest, tuple(args), callee=callee))
        return dest

    def sink(self, value: VReg) -> None:
        self.emit(Instr(Opcode.SINK, None, (value,)))


def build_function(program: Program, name: str,
                   params: list[tuple[str, ScalarType]],
                   ret: ScalarType | None) -> FunctionBuilder:
    """Convenience: create a builder with parameters already declared."""
    sig = FuncSig(tuple(t for _, t in params), ret)
    builder = FunctionBuilder(program, name, sig)
    for pname, ptype in params:
        builder.param(pname, ptype)
    return builder
