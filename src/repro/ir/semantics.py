"""Sign-extension-relevant semantic classification of IR instructions.

This module encodes the facts that drive every phase of the paper's
algorithm:

* ``classify_use`` — for a (instruction, operand) pair: do the upper 32
  bits of the operand register affect execution?  This is the paper's
  ``AnalyzeUSE`` case analysis: *Case 1* (upper bits ignored, e.g. a
  32-bit store or compare), *Case 2* (the operand is unnecessary iff the
  destination is unnecessary, e.g. an addition), array-index operands
  (handled by ``AnalyzeARRAY``), or a hard requirement (e.g. ``i2d``,
  which converts the full register).
* ``canonical_bits`` — for a definition: the narrowest width ``w`` such
  that the destination register is *guaranteed* to hold a value equal to
  its ``w``-bit sign extension.  This is ``AnalyzeDEF`` Case 1.
* ``upper32_zero`` — for a definition: are the upper 32 bits of the
  destination guaranteed zero?  Needed by Theorems 1 and 3.
* propagation predicates for ``AnalyzeDEF`` Case 2 and for the array
  theorems' transparency rule.

All classification is parameterized by :class:`~repro.machine.model.
MachineTraits` because implicit sign extension differs per target (IA64
loads zero-extend; PPC64 ``lwa``/``lha`` sign-extend).
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from ..machine.model import LoadExt, MachineTraits
from .instruction import Instr
from .opcodes import Opcode, Role
from .types import INT32_MAX, ScalarType


class UseKind(enum.Enum):
    """How an instruction consumes one source operand's upper 32 bits."""

    IGNORES_HIGH = "ignores_high"  # AnalyzeUSE Case 1
    PROPAGATES = "propagates"  # AnalyzeUSE Case 2
    ARRAY_INDEX = "array_index"  # handled by AnalyzeARRAY
    REQUIRES = "requires"  # canonical value needed
    IRRELEVANT = "irrelevant"  # operand is not a narrow integer


#: Case-2 opcodes whose low-32 result depends only on low-32 inputs.
_PROPAGATING_OPS = frozenset(
    {
        Opcode.MOV,
        Opcode.ADD32,
        Opcode.SUB32,
        Opcode.MUL32,
        Opcode.NEG32,
        Opcode.AND32,
        Opcode.OR32,
        Opcode.XOR32,
        Opcode.NOT32,
        Opcode.SHL32,
    }
)

#: Subset of Case-2 opcodes through which AnalyzeARRAY can still reason
#: about the index expression (Theorems 2-4 cover only +/-/copy chains).
ARRAY_TRANSPARENT_OPS = frozenset({Opcode.MOV, Opcode.ADD32, Opcode.SUB32})

#: Opcodes that read only the low 32 (or fewer) bits of a VALUE operand.
_LOW_ONLY_OPS = frozenset(
    {
        Opcode.EXTEND8,
        Opcode.EXTEND16,
        Opcode.EXTEND32,
        Opcode.ZEXT8,
        Opcode.ZEXT16,
        Opcode.ZEXT32,
        Opcode.JUST_EXTENDED,
        Opcode.TRUNC32,
        Opcode.SHR32,  # lowered to a sign-extracting field op (IA64 extr)
        Opcode.USHR32,  # lowered to an unsigned field extract
        Opcode.CMP32,  # both targets have 32-bit compares
    }
)

#: Opcodes that need the true (canonical) value of a narrow VALUE operand.
_REQUIRING_OPS = frozenset(
    {
        Opcode.DIV32,  # machine divide consumes full registers
        Opcode.REM32,
        Opcode.I2D,  # conversion consumes the full register
    }
)

#: Bitwise opcodes: canonicality is closed under them (the upper bits of
#: canonical operands are sign copies, and bitwise ops preserve that).
BITWISE_OPS = frozenset({Opcode.AND32, Opcode.OR32, Opcode.XOR32, Opcode.NOT32})

ConstOracle = Callable[[Instr, int], int | float | None]
"""Looks up the constant value of operand ``index`` of an instruction,
or ``None`` when unknown.  Analyses supply an implementation backed by
UD chains; ``no_consts`` is the trivial oracle."""


def no_consts(_instr: Instr, _index: int) -> int | float | None:
    """Const oracle that knows nothing."""
    return None


def classify_use(instr: Instr, index: int, traits: MachineTraits) -> UseKind:
    """Classify how ``instr`` uses its ``index``-th source operand."""
    src = instr.srcs[index]
    if not src.type.is_narrow_int:
        return UseKind.IRRELEVANT

    role = instr.role_of(index)
    if role is Role.SHIFT_AMOUNT or role is Role.CONDITION:
        return UseKind.IGNORES_HIGH
    if role is Role.ARRAY_INDEX:
        return UseKind.ARRAY_INDEX
    if role is Role.ARRAY_REF:
        return UseKind.IRRELEVANT
    if role is Role.STORE_VALUE:
        # Stores write the low ``elem`` bits; upper register bits never
        # reach memory for narrow elements.
        elem = instr.elem
        if elem is not None and elem.bits <= 32:
            return UseKind.IGNORES_HIGH
        return UseKind.REQUIRES
    if role is Role.LENGTH:
        # Array allocation is a runtime call; the ABI wants a canonical
        # length.
        return UseKind.REQUIRES
    if role is Role.ARG:
        if instr.opcode is Opcode.SINK:
            return UseKind.REQUIRES
        return (
            UseKind.REQUIRES if traits.abi_canonical_args else UseKind.IGNORES_HIGH
        )
    if role is Role.RET_VALUE:
        return (
            UseKind.REQUIRES if traits.abi_canonical_ret else UseKind.IGNORES_HIGH
        )

    # Role.VALUE:
    opcode = instr.opcode
    if opcode in _LOW_ONLY_OPS:
        return UseKind.IGNORES_HIGH
    if opcode in _PROPAGATING_OPS:
        return UseKind.PROPAGATES
    if opcode in _REQUIRING_OPS:
        return UseKind.REQUIRES
    # A narrow register consumed by a 64-bit or float instruction should
    # not appear in converted code (width changes go through extends);
    # be conservative if it does.
    return UseKind.REQUIRES


def _const_fits_bits(value: int) -> int:
    """Narrowest of 8/16/32 whose signed range contains ``value``."""
    if -(1 << 7) <= value < (1 << 7):
        return 8
    if -(1 << 15) <= value < (1 << 15):
        return 16
    return 32


def canonical_bits(
    instr: Instr,
    traits: MachineTraits,
    const_of: ConstOracle = no_consts,
) -> int | None:
    """AnalyzeDEF Case 1: guaranteed canonical width of the destination.

    Returns the narrowest ``w`` in {8, 16, 32} such that the destination
    register always equals the ``w``-bit sign extension of itself, or
    ``None`` when no such guarantee exists.  A guarantee at width ``w``
    implies the guarantee at any wider width.
    """
    opcode = instr.opcode
    if opcode is Opcode.EXTEND8:
        return 8
    if opcode is Opcode.EXTEND16:
        return 16
    if opcode in (Opcode.EXTEND32, Opcode.JUST_EXTENDED, Opcode.D2I,
                  Opcode.SHR32, Opcode.ARRAYLEN):
        return 32
    if opcode is Opcode.ZEXT8:
        return 16  # value in [0, 255]
    if opcode in (Opcode.ZEXT16, Opcode.USHR32):
        if opcode is Opcode.ZEXT16:
            return 32  # value in [0, 65535]
        amount = const_of(instr, 1)
        if isinstance(amount, int) and (amount & 31) > 0:
            return 32  # logical shift by >0 clears bit 31
        return None
    if opcode in (Opcode.CMP32, Opcode.CMP64, Opcode.CMPF):
        return 8  # 0 or 1
    if opcode is Opcode.CONST:
        if instr.elem in (ScalarType.I64, ScalarType.F64, ScalarType.REF):
            return None
        if isinstance(instr.imm, int):
            # Constants are materialized canonically at their fit width.
            return _const_fits_bits(instr.imm)
        return None
    if opcode is Opcode.CALL:
        dest = instr.dest
        if dest is not None and dest.type.is_narrow_int and traits.abi_canonical_ret:
            return min(32, dest.type.bits) if dest.type.signed else 32
        return None
    if opcode in (Opcode.ALOAD, Opcode.GLOAD):
        elem = instr.elem
        if elem is None or not elem.is_narrow_int:
            return None
        ext = traits.load_extension(elem)
        if ext is LoadExt.SIGN:
            return elem.bits if elem.signed else 32
        # Zero-extended load: values of width < 32 land in the
        # non-negative canonical range; 32-bit values do not.
        if elem.bits < 32:
            return 32 if elem.bits == 16 else 16
        return None
    if opcode is Opcode.AND32:
        for operand in (0, 1):
            value = const_of(instr, operand)
            if isinstance(value, int) and 0 <= value <= INT32_MAX:
                if value <= 0x7F:
                    return 8
                if value <= 0x7FFF:
                    return 16
                return 32
        return None
    return None


def upper32_zero(
    instr: Instr,
    traits: MachineTraits,
    const_of: ConstOracle = no_consts,
) -> bool:
    """Are the upper 32 bits of the destination guaranteed zero?

    This is the precondition of Theorems 1 and 3 ("the upper 32 bits of
    *i* are initialized to zero") and holds for zero-extending loads
    (IA64), unsigned shifts, compare results, array lengths, the dummy
    ``just_extended`` marker (a bounds-checked index is in
    ``[0, maxlen)``), and non-negative 32-bit constants.
    """
    opcode = instr.opcode
    if opcode in (Opcode.ZEXT8, Opcode.ZEXT16, Opcode.ZEXT32, Opcode.USHR32,
                  Opcode.CMP32, Opcode.CMP64, Opcode.CMPF, Opcode.ARRAYLEN,
                  Opcode.JUST_EXTENDED):
        return True
    if opcode is Opcode.CONST:
        return isinstance(instr.imm, int) and 0 <= instr.imm <= INT32_MAX
    if opcode in (Opcode.ALOAD, Opcode.GLOAD):
        elem = instr.elem
        if elem is None or not elem.is_narrow_int:
            return False
        return traits.load_extension(elem) is LoadExt.ZERO
    if opcode is Opcode.AND32:
        for operand in (0, 1):
            value = const_of(instr, operand)
            if isinstance(value, int) and 0 <= value <= INT32_MAX:
                return True
        return False
    return False


def propagates_canonical(opcode: Opcode) -> bool:
    """AnalyzeDEF Case 2: destination canonical iff all narrow sources are.

    Copies trivially propagate; bitwise operations do too because the
    upper bits of canonical operands are all-zeros or all-ones sign
    copies, which AND/OR/XOR/NOT map to the sign copy of the result.
    """
    return opcode is Opcode.MOV or opcode in BITWISE_OPS


def use_read_bits(instr: Instr, index: int) -> int:
    """How many low bits an IGNORES_HIGH use actually reads.

    Needed for 8- and 16-bit extension elimination ("8-bit and 16-bit
    sign extensions are also eliminated based on the same algorithm"):
    an ``extend8`` is required by a use that reads bits above bit 7,
    even when that use ignores the upper 32 bits.
    """
    role = instr.role_of(index)
    if role is Role.SHIFT_AMOUNT:
        return 6
    if role is Role.STORE_VALUE and instr.elem is not None:
        return min(instr.elem.bits, 32)
    opcode = instr.opcode
    if opcode in (Opcode.EXTEND8, Opcode.ZEXT8):
        return 8
    if opcode in (Opcode.EXTEND16, Opcode.ZEXT16):
        return 16
    return 32
