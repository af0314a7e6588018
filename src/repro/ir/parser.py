"""Textual IR parser — the inverse of :mod:`repro.ir.printer`.

Accepts the printer's output format, so IR can be round-tripped,
written by hand in tests, or shipped as golden files:

.. code-block:: text

    program demo
    global $mem: i32 = 5

    func @main() -> f64 params() {
    entry:
      %c1 = const.i32 10
      %a = newarray.i32 %c1
      jmp ->loop
    loop:
      ...
    }

Registers are typed at first mention from context (destination types
come from the opcode table, a copy's from its source and a call's from
the callee's declared return type; operand registers must have been
defined or declared as parameters).
"""

from __future__ import annotations

import re

from .block import Block
from .function import Function, Program
from .instruction import FuncSig, Instr, VReg
from .opcodes import RESULT_TYPE, Cond, Opcode
from .types import ScalarType

_SCALARS = {t.value: t for t in ScalarType}
_CONDS = {c.value: c for c in Cond}
_OPCODES = {o.value: o for o in Opcode}

_FUNC_RE = re.compile(
    r"func @(?P<name>\w+)\((?P<args>[^)]*)\)\s*->\s*(?P<ret>\S+)\s*"
    r"params\((?P<params>[^)]*)\)\s*\{"
)
_GLOBAL_RE = re.compile(
    r"global \$(?P<name>\w+):\s*(?P<type>\w+)(\s*=\s*(?P<init>\S+))?"
)
_LABEL_RE = re.compile(r"(?P<label>[A-Za-z_][\w.]*):(\s*;.*)?$")


class IRParseError(Exception):
    pass


def parse_program(text: str) -> Program:
    program = Program()
    lines = [_strip(line) for line in text.splitlines()]
    # Every function's return type, read before any body: a call may be
    # printed before its callee.
    returns = {
        match.group("name"): _return_type(match.group("ret"))
        for match in map(_FUNC_RE.match, lines) if match
    }
    index = 0
    while index < len(lines):
        line = lines[index]
        if not line:
            index += 1
            continue
        if line.startswith("program "):
            program.name = line.split(None, 1)[1].strip()
            index += 1
            continue
        match = _GLOBAL_RE.match(line)
        if match:
            init_text = match.group("init")
            init: int | float = 0
            if init_text is not None:
                init = _parse_number(init_text)
            program.add_global(match.group("name"),
                               _scalar(match.group("type")), init)
            index += 1
            continue
        match = _FUNC_RE.match(line)
        if match:
            index = _parse_function(program, match, lines, index + 1,
                                    returns)
            continue
        raise IRParseError(f"unexpected line: {line!r}")
    return program


def _strip(line: str) -> str:
    # Remove trailing comments outside of any string syntax (the IR has
    # no string literals).
    if ";" in line:
        line = line.split(";", 1)[0]
    return line.strip()


def _scalar(name: str) -> ScalarType:
    try:
        return _SCALARS[name]
    except KeyError:
        raise IRParseError(f"unknown type {name!r}") from None


def _return_type(text: str) -> ScalarType | None:
    return None if text == "void" else _scalar(text)


def _parse_number(token: str) -> int | float:
    try:
        return int(token, 0)
    except ValueError:
        return float(token)


def _parse_function(program: Program, match: re.Match, lines: list[str],
                    index: int,
                    returns: dict[str, ScalarType | None]) -> int:
    name = match.group("name")
    ret = _return_type(match.group("ret"))
    arg_types = [
        _scalar(tok.strip()) for tok in match.group("args").split(",")
        if tok.strip()
    ]
    func = Function(name, FuncSig(tuple(arg_types), ret))
    program.add_function(func)

    regs: dict[str, VReg] = {}
    param_tokens = [
        tok.strip() for tok in match.group("params").split(",")
        if tok.strip()
    ]
    if len(param_tokens) != len(arg_types):
        raise IRParseError(f"{name}: params/signature arity mismatch")
    for token, type_ in zip(param_tokens, arg_types):
        reg_name = _reg_name(token)
        reg = func.add_param(reg_name, type_)
        regs[reg_name] = reg

    current: Block | None = None
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line:
            continue
        if line == "}":
            func.invalidate_cfg()
            return index
        label = _LABEL_RE.match(line)
        if label:
            current = func.add_block(Block(label.group("label")))
            continue
        if current is None:
            raise IRParseError(f"{name}: instruction before any label")
        current.append(_parse_instr(func, regs, line, returns))
    raise IRParseError(f"{name}: missing closing brace")


def _reg_name(token: str) -> str:
    token = token.strip()
    if not token.startswith("%"):
        raise IRParseError(f"expected register, got {token!r}")
    return token[1:]


def _dest_type(opcode: Opcode, elem: ScalarType | None) -> ScalarType:
    result = RESULT_TYPE.get(opcode)
    if result is not None:
        return result
    if elem is not None:  # CONST, ALOAD, GLOAD
        return elem.register_type
    return ScalarType.I32  # MOV/CALL destinations refined by context


def _parse_instr(func: Function, regs: dict[str, VReg], line: str,
                 returns: dict[str, ScalarType | None]) -> Instr:
    dest_name: str | None = None
    if line.startswith("%") and "=" in line:
        dest_token, line = line.split("=", 1)
        dest_name = _reg_name(dest_token)
        line = line.strip()

    tokens = line.split(None, 1)
    mnemonic = tokens[0]
    rest = tokens[1] if len(tokens) > 1 else ""

    parts = mnemonic.split(".")
    opcode = _OPCODES.get(parts[0])
    if opcode is None:
        raise IRParseError(f"unknown opcode {parts[0]!r}")
    cond: Cond | None = None
    elem: ScalarType | None = None
    for suffix in parts[1:]:
        if suffix in _CONDS:
            cond = _CONDS[suffix]
        elif suffix in _SCALARS:
            elem = _SCALARS[suffix]
        else:
            raise IRParseError(f"unknown suffix {suffix!r} on {mnemonic}")

    srcs: list[VReg] = []
    targets: list[str] = []
    imm: int | float | None = None
    callee: str | None = None
    gname: str | None = None
    for raw in (tok.strip() for tok in rest.split(",") if tok.strip()):
        if raw.startswith("->"):
            targets.append(raw[2:])
        elif raw.startswith("%"):
            reg_name = _reg_name(raw)
            if reg_name not in regs:
                raise IRParseError(f"use of unknown register %{reg_name}")
            srcs.append(regs[reg_name])
        elif raw.startswith("@"):
            callee = raw[1:]
        elif raw.startswith("$"):
            gname = raw[1:]
        else:
            imm = _parse_number(raw)

    dest: VReg | None = None
    if dest_name is not None:
        if dest_name in regs:
            dest = regs[dest_name]
        else:
            if opcode is Opcode.MOV and srcs:
                dest_type = srcs[0].type  # copies inherit the source type
            elif opcode is Opcode.CALL and returns.get(callee) is not None:
                dest_type = returns[callee].register_type
            else:
                dest_type = _dest_type(opcode, elem)
            dest = func.named_reg(dest_name, dest_type)
            regs[dest_name] = dest

    return Instr(opcode, dest, tuple(srcs), imm=imm, cond=cond, elem=elem,
                 callee=callee, gname=gname, targets=tuple(targets))
