"""Closure translation: one-time compilation of IR into threaded code.

The reference interpreter pays, on every step, for an ``if opcode is
...`` dispatch chain and for dict-keyed register access.  This module
removes both costs *once per function* instead of once per step, in the
threaded-code tradition of OCAMLJIT2: each instruction becomes a Python
closure with

* register names resolved to indices into a flat per-frame list,
* the opcode's behaviour burned in (no dispatch at run time),
* immediates, branch targets, machine traits, and the ideal/machine
  mode pre-bound as locals.

The translation is *content-pure*: closures embed only slot indices,
constants, labels, and trap-message text — never instruction uids — so
one ``TranslatedFunction`` is shared by every structurally identical
``Function`` (clones across a bench grid, cache-restored programs).
Per-binding data (the uid layout used to reconstruct ``site_counts``)
is recomputed cheaply by :func:`uid_layout`.

Counting strategy
-----------------

The reference counts sites/opcodes/extends per executed instruction.
An ``ExecResult`` is only ever built for a *successful* run, and a
block either executes completely or raises — so the closure engine
counts **block entries** in a preallocated array and multiplies by the
block's static instruction mix on success.  Partially executed blocks
only happen on the exception paths, where the counts are unobservable.

Fuel is the one live counter: each block is split into *segments* at
``CALL`` boundaries and a single pre-check per segment
(``steps + n > fuel``) replaces n per-instruction checks.  When the
pre-check trips, :meth:`ClosureInterpreter._fuel_out` replays exactly
the instructions the reference would still have executed (an earlier
trap wins over fuel exhaustion) before raising ``FuelExhausted``.

Translation is total over verified IR.  A function the translator
cannot compile (it only meets such a function when the verifier was
skipped) raises :class:`Untranslatable`, and the engine refuses to run
the program.
"""

from __future__ import annotations

import hashlib
import operator
import struct
import threading
from collections import Counter, OrderedDict

from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Cond, Opcode
from ..ir.printer import format_function
from ..ir.types import ScalarType, sign_extend, wrap_u64
from ..machine.model import LoadExt, MachineTraits
from .interpreter import (
    _FLOAT_OPS,
    _INT32_BINOPS,
    _INT64_BINOPS,
    _java_d2i,
    _java_d2l,
)
from .memory import MemoryFault, Trap

_U64 = 0xFFFF_FFFF_FFFF_FFFF
_U32 = 0xFFFF_FFFF
_HIGH32 = 0x8000_0000
_HIGH64 = 0x8000_0000_0000_0000
#: OR-mask that completes a 32->64 sign extension of a masked low word.
_FILL32 = 0xFFFF_FFFF_0000_0000
_FNV_PRIME = 1099511628211

_TERMINATORS = frozenset({Opcode.BR, Opcode.JMP, Opcode.RET})

_EXTEND_WIDTH = {Opcode.EXTEND8: 8, Opcode.EXTEND16: 16, Opcode.EXTEND32: 32}
_ZEXT_WIDTH = {Opcode.ZEXT8: 8, Opcode.ZEXT16: 16, Opcode.ZEXT32: 32}

#: Sentinel return value of a void ``ret`` terminator closure.
_RET_VOID = (None,)

_COND_OPS = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.ULT: operator.lt,
    Cond.LE: operator.le,
    Cond.ULE: operator.le,
    Cond.GT: operator.gt,
    Cond.UGT: operator.gt,
    Cond.GE: operator.ge,
    Cond.UGE: operator.ge,
}


class Untranslatable(Exception):
    """The function contains a construct the translator cannot compile;
    the message names the function."""


class CallSite:
    """A pre-resolved ``CALL``: argument slots, destination, message."""

    __slots__ = ("callee", "arg_slots", "dest_slot", "void_msg")

    def __init__(self, callee: str, arg_slots: tuple[int, ...],
                 dest_slot: int, void_msg: str | None) -> None:
        self.callee = callee
        self.arg_slots = arg_slots
        self.dest_slot = dest_slot
        self.void_msg = void_msg


#: How a translated block's terminator participates in fuel accounting.
TERM_NONE = 0      # no terminator: falls off the block (always traps)
TERM_INLINE = 1    # terminator's step pre-approved with the last segment
TERM_CHECKED = 2   # last segment ends in a CALL: terminator needs its
#                    own fuel check because the callee consumed fuel


class TranslatedBlock:
    """One basic block compiled to closure segments."""

    __slots__ = ("label", "segments", "terminator", "term_mode",
                 "op_counts", "ext_counts", "n_counted")

    def __init__(self, label, segments, terminator, term_mode,
                 op_counts, ext_counts, n_counted) -> None:
        self.label = label
        #: tuple of (ops, n_steps, CallSite | None); ``n_steps`` is the
        #: fuel cost of the whole segment (ops + call or terminator).
        self.segments = segments
        self.terminator = terminator
        self.term_mode = term_mode
        #: static per-execution opcode mix: tuple[(Opcode, count)]
        self.op_counts = op_counts
        #: static per-execution extend mix: tuple[(width, count)]
        self.ext_counts = ext_counts
        #: counted steps per complete execution == len(uid layout)
        self.n_counted = n_counted


class TranslatedFunction:
    """A whole function compiled to threaded code."""

    __slots__ = ("name", "n_params", "param_plan", "n_slots", "blocks")

    def __init__(self, name, n_params, param_plan, n_slots, blocks) -> None:
        self.name = name
        self.n_params = n_params
        #: tuple of (slot, is_float) in parameter order
        self.param_plan = param_plan
        self.n_slots = n_slots
        #: in source order; the entry block is index 0
        self.blocks = blocks


def _cut_block(instrs: list[Instr]) -> list[Instr]:
    """Instructions up to and including the first terminator.

    The reference leaves a block at its first BR/JMP/RET, so any tail
    is unreachable and must not contribute to the static counts.
    """
    cut = []
    for instr in instrs:
        cut.append(instr)
        if instr.opcode in _TERMINATORS:
            break
    return cut


def uid_layout(func: Function) -> dict[str, tuple[int, ...]]:
    """Per-block executed-instruction uids, in step order.

    Binding-specific companion to a (content-shared)
    ``TranslatedFunction``: ``len(layout[label]) == block.n_counted``
    for every block, which the engine verifies before trusting a cached
    translation for this particular ``Function`` object.
    """
    return {
        block.label: tuple(i.uid for i in _cut_block(block.instrs))
        for block in func.blocks
    }


# -- closure factories --------------------------------------------------------
#
# Each factory binds everything an instruction needs as defaults-free
# closure cells and returns ``op(regs, st)`` where ``regs`` is the flat
# per-frame register list and ``st`` the running ClosureInterpreter
# (used only for heap/globals/checksum state).  The defensive ``int()``
# / ``float()`` conversions mirror the reference interpreter exactly —
# type-confused IR must misbehave identically in both engines.

def _mk_const(dst, value):
    def op(regs, st):
        regs[dst] = value
    return op


def _mk_mov(dst, src):
    def op(regs, st):
        regs[dst] = regs[src]
    return op


def _mk_extend(dst, src, mask, high, fill):
    def op(regs, st):
        v = int(regs[src]) & mask
        regs[dst] = (v | fill) if v & high else v
    return op


def _mk_zext(dst, src, mask):
    def op(regs, st):
        regs[dst] = int(regs[src]) & mask
    return op


def _mk_just_extended(dst, src):
    def op(regs, st):
        value = int(regs[src])
        v = value & _U32
        if ((v | _FILL32) if v & _HIGH32 else v) != value:
            raise MemoryFault(
                f"just_extended marker saw a non-canonical value "
                f"0x{value:016x} — unsound elimination"
            )
        regs[dst] = value
    return op


def _mk_trunc32(dst, src, ideal):
    if ideal:
        def op(regs, st):
            v = int(regs[src]) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = int(regs[src])
    return op


def _mk_add32(dst, a, b, ideal):
    if ideal:
        def op(regs, st):
            v = (int(regs[a]) + int(regs[b])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = (int(regs[a]) + int(regs[b])) & _U64
    return op


def _mk_sub32(dst, a, b, ideal):
    if ideal:
        def op(regs, st):
            v = (int(regs[a]) - int(regs[b])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = (int(regs[a]) - int(regs[b])) & _U64
    return op


def _mk_mul32(dst, a, b, ideal):
    if ideal:
        def op(regs, st):
            v = (int(regs[a]) * int(regs[b])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = (int(regs[a]) * int(regs[b])) & _U64
    return op


_INLINE_BINOP32 = {Opcode.ADD32: _mk_add32, Opcode.SUB32: _mk_sub32,
                   Opcode.MUL32: _mk_mul32}


def _mk_binop32(dst, a, b, handler, ideal):
    if ideal:
        def op(regs, st):
            v = handler(int(regs[a]), int(regs[b])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = handler(int(regs[a]), int(regs[b]))
    return op


def _mk_binop64(dst, a, b, handler):
    def op(regs, st):
        regs[dst] = handler(int(regs[a]), int(regs[b]))
    return op


def _mk_neg32(dst, src, ideal):
    if ideal:
        def op(regs, st):
            v = (-int(regs[src])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = (-int(regs[src])) & _U64
    return op


def _mk_not32(dst, src, ideal):
    if ideal:
        def op(regs, st):
            v = (~int(regs[src])) & _U32
            regs[dst] = (v | _FILL32) if v & _HIGH32 else v
        return op

    def op(regs, st):
        regs[dst] = (~int(regs[src])) & _U64
    return op


def _mk_neg64(dst, src):
    def op(regs, st):
        regs[dst] = (-int(regs[src])) & _U64
    return op


def _mk_not64(dst, src):
    def op(regs, st):
        regs[dst] = (~int(regs[src])) & _U64
    return op


def _mk_cmp32(dst, a, b, cond):
    cmp = _COND_OPS[cond]
    if cond.is_unsigned:
        def op(regs, st):
            regs[dst] = int(cmp(int(regs[a]) & _U32, int(regs[b]) & _U32))
        return op

    def op(regs, st):
        va = int(regs[a]) & _U32
        vb = int(regs[b]) & _U32
        if va & _HIGH32:
            va -= 0x1_0000_0000
        if vb & _HIGH32:
            vb -= 0x1_0000_0000
        regs[dst] = int(cmp(va, vb))
    return op


def _mk_cmp64(dst, a, b, cond):
    cmp = _COND_OPS[cond]
    if cond.is_unsigned:
        def op(regs, st):
            regs[dst] = int(cmp(int(regs[a]), int(regs[b])))
        return op

    def op(regs, st):
        va = int(regs[a])
        vb = int(regs[b])
        if va & _HIGH64:
            va -= 0x1_0000_0000_0000_0000
        if vb & _HIGH64:
            vb -= 0x1_0000_0000_0000_0000
        regs[dst] = int(cmp(va, vb))
    return op


def _mk_cmpf(dst, a, b, cond):
    cmp = _COND_OPS[cond]

    def op(regs, st):
        regs[dst] = int(cmp(float(regs[a]), float(regs[b])))
    return op


def _mk_float1(dst, a, handler, text):
    def op(regs, st):
        try:
            regs[dst] = handler(float(regs[a]))
        except (ValueError, OverflowError) as exc:
            raise Trap(f"floating point error in {text}: {exc}") from exc
    return op


def _mk_float2(dst, a, b, handler, text):
    def op(regs, st):
        try:
            regs[dst] = handler(float(regs[a]), float(regs[b]))
        except (ValueError, OverflowError) as exc:
            raise Trap(f"floating point error in {text}: {exc}") from exc
    return op


def _mk_i2d(dst, src):
    def op(regs, st):
        regs[dst] = float(sign_extend(int(regs[src]), 64))
    return op


def _mk_d2i(dst, src):
    def op(regs, st):
        regs[dst] = wrap_u64(sign_extend(_java_d2i(float(regs[src])), 32))
    return op


def _mk_d2l(dst, src):
    def op(regs, st):
        regs[dst] = _java_d2l(float(regs[src])) & _U64
    return op


def _mk_newarray(dst, src, elem):
    def op(regs, st):
        regs[dst] = st.heap.allocate(elem, sign_extend(int(regs[src]), 64))
    return op


def _load_ext_params(elem: ScalarType, ideal: bool,
                     traits: MachineTraits) -> tuple[str, int]:
    """How a loaded raw value of ``elem`` widens into a register.

    Mirrors ``Interpreter._extend_loaded`` with the mode and machine
    traits resolved at translate time.
    """
    if elem is ScalarType.F64:
        return ("float", 0)
    if elem is ScalarType.REF or elem is ScalarType.I64:
        return ("wide", 64)
    if ideal:
        return ("sign" if elem.signed else "zero", elem.bits)
    if traits.load_extension(elem) is LoadExt.SIGN:
        return ("sign", elem.bits)
    return ("zero", elem.bits)


def _mk_aload(dst, aref, aidx, kind, bits):
    if kind == "float":
        def op(regs, st):
            heap = st.heap
            array = heap.deref(int(regs[aref]))
            index = heap.checked_index(array, int(regs[aidx]))
            regs[dst] = float(array.cells[index])
        return op
    if kind == "wide":
        def op(regs, st):
            heap = st.heap
            array = heap.deref(int(regs[aref]))
            index = heap.checked_index(array, int(regs[aidx]))
            regs[dst] = int(array.cells[index]) & _U64
        return op
    mask = (1 << bits) - 1
    if kind == "sign":
        high = 1 << (bits - 1)
        fill = _U64 ^ mask

        def op(regs, st):
            heap = st.heap
            array = heap.deref(int(regs[aref]))
            index = heap.checked_index(array, int(regs[aidx]))
            v = int(array.cells[index]) & mask
            regs[dst] = (v | fill) if v & high else v
        return op

    def op(regs, st):
        heap = st.heap
        array = heap.deref(int(regs[aref]))
        index = heap.checked_index(array, int(regs[aidx]))
        regs[dst] = int(array.cells[index]) & mask
    return op


def _mk_astore(aref, aidx, val):
    def op(regs, st):
        heap = st.heap
        array = heap.deref(int(regs[aref]))
        index = heap.checked_index(array, int(regs[aidx]))
        heap.store(array, index, regs[val])
    return op


def _mk_arraylen(dst, src):
    def op(regs, st):
        regs[dst] = st.heap.deref(int(regs[src])).length
    return op


def _mk_gload(dst, gname, kind, bits):
    if kind == "float":
        def op(regs, st):
            regs[dst] = float(st.globals[gname])
        return op
    if kind == "wide":
        def op(regs, st):
            regs[dst] = int(st.globals[gname]) & _U64
        return op
    mask = (1 << bits) - 1
    if kind == "sign":
        high = 1 << (bits - 1)
        fill = _U64 ^ mask

        def op(regs, st):
            v = int(st.globals[gname]) & mask
            regs[dst] = (v | fill) if v & high else v
        return op

    def op(regs, st):
        regs[dst] = int(st.globals[gname]) & mask
    return op


def _mk_gstore(src, gname, elem):
    if elem is ScalarType.F64:
        def op(regs, st):
            st.globals[gname] = float(regs[src])
        return op
    mask = (1 << elem.bits) - 1

    def op(regs, st):
        st.globals[gname] = int(regs[src]) & mask
    return op


def _mk_sink(src, type_):
    if type_ is ScalarType.F64:
        pack = struct.pack
        unpack = struct.unpack

        def op(regs, st):
            bits = unpack("<Q", pack("<d", float(regs[src])))[0]
            st.checksum = ((st.checksum ^ bits) * _FNV_PRIME) & _U64
        return op

    def op(regs, st):
        st.checksum = (
            (st.checksum ^ (int(regs[src]) & _U64)) * _FNV_PRIME
        ) & _U64
    return op


def _mk_nop():
    # Kept in the ops list on purpose: omitting it would desync the
    # segment step count from the reference's per-instruction fuel.
    def op(regs, st):
        pass
    return op


# -- terminator factories -----------------------------------------------------
#
# A terminator closure returns the next block *index* (int) for BR/JMP
# or a 1-tuple holding the return value for RET; the frame loop
# discriminates on ``type(x) is int``.

def _mk_br(cond_slot, then_idx, else_idx):
    def term(regs, st):
        return then_idx if int(regs[cond_slot]) & _U32 else else_idx
    return term


def _mk_jmp(target_idx):
    def term(regs, st):
        return target_idx
    return term


def _mk_ret(src):
    if src is None:
        def term(regs, st):
            return _RET_VOID
        return term

    def term(regs, st):
        return (regs[src],)
    return term


# -- the translator -----------------------------------------------------------

class _Translator:
    def __init__(self, func: Function, ideal: bool,
                 traits: MachineTraits) -> None:
        self.func = func
        self.ideal = ideal
        self.traits = traits
        self.slots: dict[str, int] = {}

    def slot(self, name: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = self.slots[name] = len(self.slots)
        return index

    def translate(self) -> TranslatedFunction:
        func = self.func
        param_plan = tuple(
            (self.slot(p.name), p.type is ScalarType.F64)
            for p in func.params
        )
        if len({block.label for block in func.blocks}) != len(func.blocks):
            raise Untranslatable(f"{func.name}: duplicate block labels")
        labels = {block.label: i for i, block in enumerate(func.blocks)}
        blocks = tuple(
            self._translate_block(block, labels) for block in func.blocks
        )
        return TranslatedFunction(
            name=func.name,
            n_params=len(func.params),
            param_plan=param_plan,
            n_slots=len(self.slots),
            blocks=blocks,
        )

    def _translate_block(self, block, labels) -> TranslatedBlock:
        cut = _cut_block(block.instrs)
        term_instr = cut.pop() if cut and cut[-1].opcode in _TERMINATORS \
            else None

        segments = []
        ops: list = []
        for instr in cut:
            if instr.opcode is Opcode.CALL:
                segments.append((tuple(ops), len(ops) + 1,
                                 self._call_site(instr)))
                ops = []
            else:
                ops.append(self._translate_op(instr))

        terminator = None
        if term_instr is not None:
            # The terminator's fuel step rides on the final segment's
            # pre-check unless a CALL immediately precedes it — then the
            # callee burns unknown fuel and the step needs its own check.
            if ops or not segments:
                segments.append((tuple(ops), len(ops) + 1, None))
                term_mode = TERM_INLINE
            else:
                term_mode = TERM_CHECKED
            terminator = self._translate_term(term_instr, labels)
        else:
            if ops:
                segments.append((tuple(ops), len(ops), None))
            term_mode = TERM_NONE

        counted = cut + ([term_instr] if term_instr is not None else [])
        op_counts = tuple(Counter(i.opcode for i in counted).items())
        ext_counts = tuple(Counter(
            _EXTEND_WIDTH[i.opcode] for i in counted
            if i.opcode in _EXTEND_WIDTH
        ).items())
        return TranslatedBlock(
            label=block.label,
            segments=tuple(segments),
            terminator=terminator,
            term_mode=term_mode,
            op_counts=op_counts,
            ext_counts=ext_counts,
            n_counted=len(counted),
        )

    def _call_site(self, instr: Instr) -> CallSite:
        if instr.callee is None:
            raise Untranslatable(
                f"{self.func.name}: call without callee: {instr}")
        arg_slots = tuple(self.slot(s.name) for s in instr.srcs)
        if instr.dest is not None:
            return CallSite(instr.callee, arg_slots,
                            self.slot(instr.dest.name),
                            f"void call assigned: {instr}")
        return CallSite(instr.callee, arg_slots, -1, None)

    def _translate_term(self, instr: Instr, labels):
        opcode = instr.opcode
        try:
            if opcode is Opcode.BR:
                return _mk_br(self.slot(instr.srcs[0].name),
                              labels[instr.targets[0]],
                              labels[instr.targets[1]])
            if opcode is Opcode.JMP:
                return _mk_jmp(labels[instr.targets[0]])
        except (KeyError, IndexError) as exc:
            raise Untranslatable(
                f"{self.func.name}: bad branch target in {instr}") from exc
        # RET
        if instr.srcs:
            return _mk_ret(self.slot(instr.srcs[0].name))
        return _mk_ret(None)

    def _translate_op(self, instr: Instr):
        opcode = instr.opcode
        s = instr.srcs
        dst = self.slot(instr.dest.name) if instr.dest is not None else None

        if opcode is Opcode.CONST:
            if instr.elem is ScalarType.F64:
                value: int | float = float(instr.imm)
            elif instr.elem is ScalarType.I64 or instr.elem is ScalarType.REF:
                value = wrap_u64(int(instr.imm))
            else:
                value = wrap_u64(sign_extend(int(instr.imm), 32))
            return _mk_const(dst, value)

        if opcode is Opcode.MOV:
            return _mk_mov(dst, self.slot(s[0].name))

        if opcode in _EXTEND_WIDTH:
            width = _EXTEND_WIDTH[opcode]
            mask = (1 << width) - 1
            return _mk_extend(dst, self.slot(s[0].name), mask,
                              1 << (width - 1), _U64 ^ mask)

        if opcode in _ZEXT_WIDTH:
            return _mk_zext(dst, self.slot(s[0].name),
                            (1 << _ZEXT_WIDTH[opcode]) - 1)

        if opcode is Opcode.JUST_EXTENDED:
            return _mk_just_extended(dst, self.slot(s[0].name))

        if opcode is Opcode.TRUNC32:
            return _mk_trunc32(dst, self.slot(s[0].name), self.ideal)

        inline = _INLINE_BINOP32.get(opcode)
        if inline is not None:
            return inline(dst, self.slot(s[0].name), self.slot(s[1].name),
                          self.ideal)

        handler = _INT32_BINOPS.get(opcode)
        if handler is not None:
            return _mk_binop32(dst, self.slot(s[0].name),
                               self.slot(s[1].name), handler, self.ideal)

        handler = _INT64_BINOPS.get(opcode)
        if handler is not None:
            return _mk_binop64(dst, self.slot(s[0].name),
                               self.slot(s[1].name), handler)

        if opcode is Opcode.NEG32:
            return _mk_neg32(dst, self.slot(s[0].name), self.ideal)
        if opcode is Opcode.NOT32:
            return _mk_not32(dst, self.slot(s[0].name), self.ideal)
        if opcode is Opcode.NEG64:
            return _mk_neg64(dst, self.slot(s[0].name))
        if opcode is Opcode.NOT64:
            return _mk_not64(dst, self.slot(s[0].name))

        if opcode is Opcode.CMP32:
            return _mk_cmp32(dst, self.slot(s[0].name), self.slot(s[1].name),
                             instr.cond)
        if opcode is Opcode.CMP64:
            return _mk_cmp64(dst, self.slot(s[0].name), self.slot(s[1].name),
                             instr.cond)
        if opcode is Opcode.CMPF:
            return _mk_cmpf(dst, self.slot(s[0].name), self.slot(s[1].name),
                            instr.cond)

        handler = _FLOAT_OPS.get(opcode)
        if handler is not None:
            text = str(instr)
            if len(s) == 1:
                return _mk_float1(dst, self.slot(s[0].name), handler, text)
            return _mk_float2(dst, self.slot(s[0].name), self.slot(s[1].name),
                              handler, text)

        if opcode is Opcode.I2D or opcode is Opcode.L2D:
            return _mk_i2d(dst, self.slot(s[0].name))
        if opcode is Opcode.D2I:
            return _mk_d2i(dst, self.slot(s[0].name))
        if opcode is Opcode.D2L:
            return _mk_d2l(dst, self.slot(s[0].name))

        if opcode is Opcode.NEWARRAY:
            return _mk_newarray(dst, self.slot(s[0].name), instr.elem)
        if opcode is Opcode.ALOAD:
            kind, bits = _load_ext_params(instr.elem, self.ideal, self.traits)
            return _mk_aload(dst, self.slot(s[0].name), self.slot(s[1].name),
                             kind, bits)
        if opcode is Opcode.ASTORE:
            return _mk_astore(self.slot(s[0].name), self.slot(s[1].name),
                              self.slot(s[2].name))
        if opcode is Opcode.ARRAYLEN:
            return _mk_arraylen(dst, self.slot(s[0].name))

        if opcode is Opcode.GLOAD:
            kind, bits = _load_ext_params(instr.elem, self.ideal, self.traits)
            return _mk_gload(dst, instr.gname, kind, bits)
        if opcode is Opcode.GSTORE:
            return _mk_gstore(self.slot(s[0].name), instr.gname, instr.elem)

        if opcode is Opcode.SINK:
            return _mk_sink(self.slot(s[0].name), s[0].type)
        if opcode is Opcode.NOP:
            return _mk_nop()

        raise Untranslatable(
            f"{self.func.name}: unsupported opcode {opcode} in {instr}")


def translate_function(func: Function, *, ideal: bool,
                       traits: MachineTraits) -> TranslatedFunction:
    """Compile one function to threaded code, or raise
    :class:`Untranslatable`."""
    return _Translator(func, ideal, traits).translate()


# -- translation cache --------------------------------------------------------

def _traits_key(traits: MachineTraits):
    return (traits.name, tuple(sorted(
        (t.value, e.value) for t, e in traits.load_ext.items()
    )))


class TranslationCache:
    """Content-addressed LRU cache of translated functions.

    Keyed by the SHA-256 of the function's printed IR plus the
    translation mode — never by object identity — so the 12 variant
    clones of a bench grid or a driver-cache-restored program all share
    one translation.  A failed translation raises and stores nothing.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, TranslatedFunction] = \
            OrderedDict()
        # The default cache is shared process-wide; `repro serve` runs
        # executions on a thread pool, so lookups/inserts must not race.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def _key(self, func: Function, ideal: bool,
             traits: MachineTraits) -> tuple:
        digest = hashlib.sha256(
            format_function(func).encode("utf-8")
        ).hexdigest()
        return (digest, ideal, _traits_key(traits))

    def get_or_translate(self, func: Function, *, ideal: bool,
                         traits: MachineTraits) -> TranslatedFunction:
        key = self._key(func, ideal, traits)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
        # Translation itself runs outside the lock: two threads may
        # translate the same function concurrently (last insert wins),
        # but neither ever observes a half-built entry.
        translated = translate_function(func, ideal=ideal, traits=traits)
        with self._lock:
            self._entries[key] = translated
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return translated

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "translate.hits": self.hits,
            "translate.misses": self.misses,
            "translate.entries": len(self._entries),
        }


_DEFAULT_CACHE = TranslationCache()


def default_translation_cache() -> TranslationCache:
    """The process-wide cache shared by every ClosureInterpreter."""
    return _DEFAULT_CACHE
