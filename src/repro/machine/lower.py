"""Assembly-flavoured lowering for inspection and static counting.

Produces textual machine instruction sequences in the style of the
paper's Figure 4 — e.g. an IA64 array store lowers to ``sxt4`` +
``shladd`` + ``st4`` when the index still needs an explicit extension,
and to ``shladd`` + ``st4`` once the extension has been eliminated.
This is not an executable backend (the interpreter executes IR); it
exists to show and count the machine-level effect of the optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, EXTEND_OPS, Opcode
from ..ir.types import ScalarType
from .model import IA64, LoadExt, MachineTraits

_ELEM_SCALE = {
    ScalarType.I8: 0, ScalarType.I16: 1, ScalarType.U16: 1,
    ScalarType.I32: 2, ScalarType.I64: 3, ScalarType.F64: 3,
    ScalarType.REF: 3,
}

_LOAD_MNEMONIC = {
    "ia64": {0: "ld1", 1: "ld2", 2: "ld4", 3: "ld8"},
    "ppc64": {0: "lbz", 1: "lhz", 2: "lwz", 3: "ld"},
}
_STORE_MNEMONIC = {
    "ia64": {0: "st1", 1: "st2", 2: "st4", 3: "st8"},
    "ppc64": {0: "stb", 1: "sth", 2: "stw", 3: "std"},
}


@dataclass
class MachineCode:
    """Lowered assembly-like text for one function."""

    lines: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def emit(self, mnemonic: str, operands: str = "") -> None:
        self.lines.append(f"    {mnemonic:10s} {operands}".rstrip())
        self.counts[mnemonic] = self.counts.get(mnemonic, 0) + 1

    def label(self, text: str) -> None:
        self.lines.append(f"{text}:")

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def lower_function(func: Function, traits: MachineTraits = IA64) -> MachineCode:
    """Lower one (converted) function to assembly-flavoured text."""
    code = MachineCode()
    arch = traits.name
    for block in func.blocks:
        code.label(f"{func.name}.{block.label}")
        for instr in block.instrs:
            _lower_instr(instr, code, traits, arch)
    return code


def _reg(operand) -> str:
    return f"r<{operand.name}>"


def _lower_instr(instr: Instr, code: MachineCode, traits: MachineTraits,
                 arch: str) -> None:
    opcode = instr.opcode
    dest = _reg(instr.dest) if instr.dest is not None else ""
    srcs = [_reg(s) for s in instr.srcs]

    if opcode is Opcode.CONST:
        mnemonic = "movl" if arch == "ia64" else "li"
        code.emit(mnemonic, f"{dest} = {instr.imm!r}")
    elif opcode is Opcode.MOV:
        code.emit("mov", f"{dest} = {srcs[0]}")
    elif opcode in EXTEND_OPS:
        bits = EXTEND_BITS[opcode]
        if arch == "ia64":
            code.emit(f"sxt{bits // 8}", f"{dest} = {srcs[0]}")
        else:
            suffix = {8: "b", 16: "h", 32: "w"}[bits]
            code.emit(f"exts{suffix}", f"{dest} = {srcs[0]}")
    elif opcode in EXTEND_BITS:
        bits = EXTEND_BITS[opcode]
        if arch == "ia64":
            code.emit(f"zxt{bits // 8}", f"{dest} = {srcs[0]}")
        else:
            code.emit("rldicl", f"{dest} = {srcs[0]}, 0, {64 - bits}")
    elif opcode is Opcode.JUST_EXTENDED:
        pass  # dummy marker: no machine instruction
    elif opcode is Opcode.ALOAD:
        scale = _ELEM_SCALE[instr.elem]
        code.emit("cmp4.ltu" if arch == "ia64" else "cmplw",
                  f"p = {srcs[1]}, len")
        code.emit("br.bounds", "p")
        if arch == "ia64":
            code.emit("shladd", f"rEA = {srcs[1]}, {scale}, {srcs[0]}")
        else:
            code.emit("rldic", f"rT = {srcs[1]}, {scale}, {32 - scale}")
            code.emit("add", f"rEA = rT, {srcs[0]}")
        if arch == "ppc64" and traits.load_extension(instr.elem) is LoadExt.SIGN:
            # lwa / lha: the natural load sign-extends implicitly.
            sign_loads = {1: "lha", 2: "lwa"}
            code.emit(sign_loads.get(scale, _LOAD_MNEMONIC[arch][scale]),
                      f"{dest} = [rEA]")
        else:
            code.emit(_LOAD_MNEMONIC[arch][scale], f"{dest} = [rEA]")
    elif opcode is Opcode.ASTORE:
        scale = _ELEM_SCALE[instr.elem]
        code.emit("cmp4.ltu" if arch == "ia64" else "cmplw",
                  f"p = {srcs[1]}, len")
        code.emit("br.bounds", "p")
        if arch == "ia64":
            code.emit("shladd", f"rEA = {srcs[1]}, {scale}, {srcs[0]}")
        else:
            code.emit("rldic", f"rT = {srcs[1]}, {scale}, {32 - scale}")
            code.emit("add", f"rEA = rT, {srcs[0]}")
        code.emit(_STORE_MNEMONIC[arch][scale], f"[rEA] = {srcs[2]}")
    elif opcode is Opcode.ARRAYLEN:
        code.emit(_LOAD_MNEMONIC[arch][2], f"{dest} = [{srcs[0]} - 8]")
    elif opcode is Opcode.NEWARRAY:
        code.emit("br.call", f"{dest} = rt_newarray({srcs[0]})")
    elif opcode in (Opcode.GLOAD,):
        code.emit(_LOAD_MNEMONIC[arch][_ELEM_SCALE.get(instr.elem, 2)],
                  f"{dest} = [${instr.gname}]")
    elif opcode is Opcode.GSTORE:
        code.emit(_STORE_MNEMONIC[arch][_ELEM_SCALE.get(instr.elem, 2)],
                  f"[${instr.gname}] = {srcs[0]}")
    elif opcode is Opcode.CMP32:
        mnemonic = "cmp4" if arch == "ia64" else "cmpw"
        code.emit(f"{mnemonic}.{instr.cond.value}",
                  f"{dest} = {srcs[0]}, {srcs[1]}")
    elif opcode is Opcode.CMP64:
        mnemonic = "cmp" if arch == "ia64" else "cmpd"
        code.emit(f"{mnemonic}.{instr.cond.value}",
                  f"{dest} = {srcs[0]}, {srcs[1]}")
    elif opcode is Opcode.CMPF:
        code.emit(f"fcmp.{instr.cond.value}", f"{dest} = {srcs[0]}, {srcs[1]}")
    elif opcode is Opcode.BR:
        code.emit("br.cond", f"{srcs[0]} -> {instr.targets[0]} | "
                             f"{instr.targets[1]}")
    elif opcode is Opcode.JMP:
        code.emit("br", f"-> {instr.targets[0]}")
    elif opcode is Opcode.RET:
        code.emit("br.ret", srcs[0] if srcs else "")
    elif opcode is Opcode.CALL:
        args = ", ".join(srcs)
        target = f"{dest} = " if dest else ""
        code.emit("br.call", f"{target}@{instr.callee}({args})")
    elif opcode is Opcode.SINK:
        code.emit("br.call", f"rt_sink({srcs[0]})")
    elif opcode is Opcode.NOP:
        code.emit("nop")
    else:
        operands = ", ".join(srcs)
        code.emit(_ALU_MNEMONIC.get(opcode, opcode.value),
                  f"{dest} = {operands}")


_ALU_MNEMONIC = {
    Opcode.ADD32: "add", Opcode.SUB32: "sub", Opcode.MUL32: "xma.l",
    Opcode.DIV32: "div.call", Opcode.REM32: "rem.call",
    Opcode.NEG32: "sub0", Opcode.AND32: "and", Opcode.OR32: "or",
    Opcode.XOR32: "xor", Opcode.NOT32: "andcm",
    Opcode.SHL32: "dep.z", Opcode.SHR32: "extr", Opcode.USHR32: "extr.u",
    Opcode.ADD64: "add", Opcode.SUB64: "sub", Opcode.MUL64: "xma.l",
    Opcode.DIV64: "div.call", Opcode.REM64: "rem.call",
    Opcode.NEG64: "sub0", Opcode.AND64: "and", Opcode.OR64: "or",
    Opcode.XOR64: "xor", Opcode.NOT64: "andcm",
    Opcode.SHL64: "shl", Opcode.SHR64: "shr", Opcode.USHR64: "shr.u",
    Opcode.FADD: "fadd", Opcode.FSUB: "fsub", Opcode.FMUL: "fmpy",
    Opcode.FDIV: "frcpa", Opcode.FREM: "frem.call", Opcode.FNEG: "fneg",
    Opcode.FSQRT: "fsqrt.call", Opcode.FSIN: "fsin.call",
    Opcode.FCOS: "fcos.call", Opcode.FEXP: "fexp.call",
    Opcode.FLOG: "flog.call", Opcode.FABS: "fabs",
    Opcode.FFLOOR: "ffloor.call", Opcode.FPOW: "fpow.call",
    Opcode.I2D: "setf.sig+fcvt", Opcode.L2D: "setf.sig+fcvt",
    Opcode.D2I: "fcvt.fx+getf", Opcode.D2L: "fcvt.fx+getf",
    Opcode.TRUNC32: "mov",
}
