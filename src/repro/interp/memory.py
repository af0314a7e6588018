"""Simulated heap: Java-style arrays with bounds-checked access.

Bounds checks use 32-bit unsigned compares (both IA64 and PPC64 have
them, which is what makes the paper's array theorems free); the
*effective address*, however, is formed from the full 64-bit index
register, exactly as ``shladd``/``rldic`` would.  A register whose upper
32 bits are wrong therefore faults the access even when its low 32 bits
pass the bounds check — this is how unsound sign-extension elimination
is detected by the simulator instead of silently tolerated.
"""

from __future__ import annotations

from ..ir.types import ScalarType, low32


class SimError(Exception):
    """Base class for simulated execution errors."""


class Trap(SimError):
    """A language-level exception (bounds, div-by-zero, negative size)."""


class MemoryFault(SimError):
    """A wild effective address: the signature of an unsound optimization."""


class FuelExhausted(SimError):
    """The step budget ran out."""


#: Allocation cap, to catch corrupted lengths early.
MAX_ALLOC_ELEMENTS = 1 << 26

#: What an integer store keeps of ``int(value)``, by element type; a
#: reference keeps every bit (``v & -1`` is ``v``).
ELEM_MASK = {
    ScalarType.I8: 0xFF,
    ScalarType.I16: 0xFFFF,
    ScalarType.U16: 0xFFFF,
    ScalarType.I32: 0xFFFF_FFFF,
    ScalarType.I64: 0xFFFF_FFFF_FFFF_FFFF,
    ScalarType.REF: -1,
}


class ArrayObject:
    """One simulated array: raw cells of ``elem`` width."""

    __slots__ = ("elem", "cells")

    def __init__(self, elem: ScalarType, length: int) -> None:
        self.elem = elem
        fill: int | float = 0.0 if elem is ScalarType.F64 else 0
        self.cells: list[int | float] = [fill] * length

    @property
    def length(self) -> int:
        return len(self.cells)


class Heap:
    """All arrays allocated during one execution."""

    def __init__(self) -> None:
        #: every allocated array; reference ``r`` is ``arrays[r - 1]``
        self.arrays: list[ArrayObject] = []

    def allocate(self, elem: ScalarType, length: int) -> int:
        """Allocate and return a non-zero reference (0 is null)."""
        if length < 0:
            raise Trap(f"NegativeArraySizeException: {length}")
        if length > MAX_ALLOC_ELEMENTS:
            raise Trap(f"OutOfMemoryError: array length {length}")
        self.arrays.append(ArrayObject(elem, length))
        return len(self.arrays)

    def deref(self, ref: int) -> ArrayObject:
        if ref == 0:
            raise Trap("NullPointerException")
        if not 1 <= ref <= len(self.arrays):
            raise MemoryFault(f"dangling array reference {ref}")
        return self.arrays[ref - 1]

    def checked_index(self, array: ArrayObject, index_register: int) -> int:
        """Bounds-check with a 32-bit compare, then form the effective
        address from the full register.  Returns the element index.
        """
        checked = low32(index_register)
        if checked >= array.length:  # unsigned compare covers negatives
            raise Trap(
                f"ArrayIndexOutOfBoundsException: {checked} "
                f"(length {array.length})"
            )
        if index_register >> 32:
            raise MemoryFault(
                "effective address formed from a non-zero-extended index "
                f"register: 0x{index_register:016x} (checked index {checked})"
            )
        return checked

    def store(self, array: ArrayObject, index: int, value: int | float) -> None:
        if array.elem is ScalarType.F64:
            array.cells[index] = float(value)
        else:
            array.cells[index] = int(value) & ELEM_MASK[array.elem]

    def load_raw(self, array: ArrayObject, index: int) -> int | float:
        return array.cells[index]
