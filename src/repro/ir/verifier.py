"""IR well-formedness checks.

The verifier catches structural mistakes early: blocks without
terminators, branches to unknown labels, operand-count mismatches,
type mismatches on extensions, uses of undefined registers (checked
flow-insensitively: a register must have at least one definition or be
a parameter), and calls with arity mismatches.
"""

from __future__ import annotations

from .function import Function, Program
from .instruction import Instr
from .opcodes import OP_INFO, Opcode
from .types import ScalarType


class VerificationError(Exception):
    """Raised when an IR function violates a structural invariant."""


def verify_function(func: Function, program: Program | None = None) -> None:
    labels = {block.label for block in func.blocks}
    if not func.blocks:
        raise VerificationError(f"{func.name}: no blocks")

    defined = {p.name for p in func.params}
    for _, instr in func.instructions():
        if instr.dest is not None:
            defined.add(instr.dest.name)

    for block in func.blocks:
        if not block.instrs:
            raise VerificationError(f"{func.name}/{block.label}: empty block")
        for position, instr in enumerate(block.instrs):
            problem = _instr_problem(instr, labels, defined, program)
            if problem is not None:
                raise VerificationError(
                    f"{func.name}/{block.label}: {instr}: {problem}")
            last = position == len(block.instrs) - 1
            if instr.is_terminator != last:
                raise VerificationError(
                    f"{func.name}/{block.label}: terminator misplaced at "
                    f"position {position}: {instr}"
                )


def verify_program(program: Program) -> None:
    for func in program.functions.values():
        verify_function(func, program)


def _instr_problem(
    instr: Instr,
    labels: set[str],
    defined: set[str],
    program: Program | None,
) -> str | None:
    """What is wrong with ``instr``, or None.  The caller names the
    function, block and instruction, so a well-formed instruction is
    never printed."""
    info = OP_INFO.get(instr.opcode)
    if info is None:
        return "unknown opcode"

    if info.n_srcs >= 0 and len(instr.srcs) != info.n_srcs:
        return f"expected {info.n_srcs} operands, got {len(instr.srcs)}"
    if info.has_dest and instr.dest is None and instr.opcode is not Opcode.CALL:
        return "missing destination"
    if not info.has_dest and instr.dest is not None:
        return "unexpected destination"

    for src in instr.srcs:
        if src.name not in defined:
            return f"use of undefined register {src}"

    if instr.opcode is Opcode.CONST and instr.imm is None:
        return "CONST without immediate"
    if instr.opcode in (Opcode.CMP32, Opcode.CMP64, Opcode.CMPF, Opcode.BR):
        if instr.opcode is not Opcode.BR and instr.cond is None:
            return "compare without condition"
    if instr.opcode in (Opcode.ALOAD, Opcode.ASTORE, Opcode.NEWARRAY):
        if instr.elem is None:
            return "array op without element type"
    if instr.opcode in (Opcode.ALOAD, Opcode.ASTORE, Opcode.ARRAYLEN):
        if instr.srcs and instr.srcs[0].type is not ScalarType.REF:
            return "array operand must be REF"
    if instr.opcode in (Opcode.GLOAD, Opcode.GSTORE):
        if instr.gname is None:
            return "global op without name"
        if program is not None and instr.gname not in program.globals:
            return f"unknown global ${instr.gname}"

    if instr.opcode is Opcode.BR and len(instr.targets) != 2:
        return "BR needs two targets"
    if instr.opcode is Opcode.JMP and len(instr.targets) != 1:
        return "JMP needs one target"
    for target in instr.targets:
        if target not in labels:
            return f"unknown target {target}"

    if instr.opcode is Opcode.CALL:
        if instr.callee is None:
            return "CALL without callee"
        if program is not None:
            callee = program.functions.get(instr.callee)
            if callee is None:
                return f"unknown callee @{instr.callee}"
            if len(instr.srcs) != len(callee.sig.params):
                return (f"arity mismatch calling @{instr.callee}: "
                        f"{len(instr.srcs)} args vs "
                        f"{len(callee.sig.params)} params")

    if instr.opcode is Opcode.RET and len(instr.srcs) > 1:
        return "RET takes at most one value"
    return None
