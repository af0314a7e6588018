"""Scalar and array types for the repro IR.

The IR models a 64-bit machine compiling a 32-bit-centric language (Java
``int`` is 32 bits).  Every virtual register physically occupies a 64-bit
machine register; the *declared* type records the semantic width so the
sign-extension machinery knows which values must be kept canonical
(sign-extended) and which instructions only look at the low bits.
"""

from __future__ import annotations

import enum


class ScalarType(enum.Enum):
    """Declared width/kind of a register or array element."""

    I8 = "i8"
    I16 = "i16"
    I32 = "i32"
    I64 = "i64"
    U16 = "u16"  # Java char: unsigned 16-bit
    F64 = "f64"
    REF = "ref"  # array reference

    @property
    def is_narrow_int(self) -> bool:
        """Integer narrower than the 64-bit register (needs extension)."""
        return self in _NARROW_INT_TYPES

    @property
    def bits(self) -> int:
        """Semantic bit width of the type."""
        return _BITS[self]

    @property
    def signed(self) -> bool:
        """Whether the semantic value is interpreted as signed."""
        return self is not ScalarType.U16

    @property
    def register_type(self) -> "ScalarType":
        """The type of the register a load or ``CONST`` of this type
        fills: a narrow integer is promoted to ``i32``, as in Java."""
        return ScalarType.I32 if self in _NARROW_INT_TYPES else self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarType.{self.name}"


_NARROW_INT_TYPES = frozenset(
    {ScalarType.I8, ScalarType.I16, ScalarType.I32, ScalarType.U16}
)
_BITS = {
    ScalarType.I8: 8,
    ScalarType.I16: 16,
    ScalarType.U16: 16,
    ScalarType.I32: 32,
    ScalarType.I64: 64,
    ScalarType.F64: 64,
    ScalarType.REF: 64,
}

#: Limits of the signed 32-bit representation, used throughout the
#: sign-extension theorems (Section 3 of the paper).
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
UINT32_MASK = 0xFFFF_FFFF
UINT64_MASK = 0xFFFF_FFFF_FFFF_FFFF

#: Java's maximum array length (the paper's default ``maxlen``).
JAVA_MAX_ARRAY_LENGTH = 0x7FFF_FFFF


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to a Python int.

    >>> sign_extend(0xFFFF_FFFF, 32)
    -1
    >>> sign_extend(0x7FFF_FFFF, 32)
    2147483647
    """
    mask = (1 << bits) - 1
    value &= mask
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def zero_extend(value: int, bits: int) -> int:
    """Zero-extend the low ``bits`` bits of ``value``.

    >>> zero_extend(-1, 32)
    4294967295
    """
    return value & ((1 << bits) - 1)


def wrap_u64(value: int) -> int:
    """Wrap an integer into the unsigned 64-bit register representation."""
    return value & UINT64_MASK


def as_signed64(value: int) -> int:
    """Interpret an unsigned 64-bit register value as signed."""
    return sign_extend(value, 64)


def low32(value: int) -> int:
    """Low 32 bits of a register value (unsigned)."""
    return value & UINT32_MASK


def is_canonical32(register_value: int) -> bool:
    """True when a 64-bit register holds a sign-extended 32-bit value.

    >>> is_canonical32(wrap_u64(-1))
    True
    >>> is_canonical32(0xFFFF_FFFF)
    False
    """
    register_value = wrap_u64(register_value)
    return register_value == wrap_u64(sign_extend(register_value, 32))
