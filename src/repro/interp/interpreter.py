"""An interpreter with machine-faithful 64-bit register semantics.

Two modes:

* ``machine`` (default) — executes converted IR the way the target CPU
  would: every register is 64 bits wide, 32-bit arithmetic is performed
  full-width (upper bits flow through uncorrected), ``extend``
  materializes the sign extension, conversions and effective addresses
  consume full registers.  Running optimized and unoptimized code in
  this mode and comparing observable behaviour (the SINK checksum,
  return values, traps) is the soundness oracle for the whole repo.
* ``ideal`` — canonicalizes every narrow result automatically.  This is
  the semantics of *pre-conversion* IR (where each ``i32`` register
  conceptually holds a true 32-bit value); used to produce gold outputs
  and to test the frontend independently of conversion.

The interpreter also collects the paper's measurements: dynamic counts
of remaining sign extensions (Tables 1 and 2), per-site execution counts
for the cycle cost model (Figures 13 and 14), and branch profiles for
order determination (Section 2.2).
"""

from __future__ import annotations

import math
import struct
import sys
from collections import defaultdict
from dataclasses import dataclass

from ..ir.function import Function, Program
from ..ir.instruction import Instr
from ..ir.opcodes import Cond, Opcode
from ..ir.types import ScalarType, low32, sign_extend, wrap_u64
from ..machine.model import IA64, LoadExt, MachineTraits
from .memory import FuelExhausted, Heap, MemoryFault, Trap

U64 = 0xFFFF_FFFF_FFFF_FFFF
_FNV_PRIME = 1099511628211

#: Maximum interpreted call depth before ``StackOverflowError``.  Both
#: engines enforce the same limit with the same trap message.
DEFAULT_MAX_CALL_DEPTH = 512


def stack_overflow_trap(limit: int) -> Trap:
    """The trap a too-deep interpreted call raises, in both engines."""
    return Trap(f"StackOverflowError: call depth exceeded {limit} frames")


def _ensure_recursion_headroom(max_call_depth: int) -> None:
    """Raise CPython's recursion limit so the interpreter's own depth
    limit trips first.

    Each interpreted frame costs a handful of Python frames (``_call``
    plus ``_execute`` in the reference engine, one frame-loop call in
    the closure engine); without headroom a deep interpreted recursion
    would surface as ``RecursionError`` before reaching
    ``max_call_depth``.  The limit is only ever raised, never lowered.
    """
    needed = max_call_depth * 6 + 256
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)

_EXTEND_WIDTH = {Opcode.EXTEND8: 8, Opcode.EXTEND16: 16, Opcode.EXTEND32: 32}
_ZEXT_WIDTH = {Opcode.ZEXT8: 8, Opcode.ZEXT16: 16, Opcode.ZEXT32: 32}


@dataclass
class ExecResult:
    """Everything observed during one execution."""

    checksum: int
    ret_value: int | float | None
    steps: int
    #: dynamic executions of explicit sign extensions, by source width
    extend_counts: dict[int, int]
    #: instruction uid -> dynamic execution count (for the cost model)
    site_counts: dict[int, int]
    #: opcode -> dynamic execution count
    opcode_counts: dict[Opcode, int]
    #: per-function branch profiles: func name -> {(block, succ): count}
    profiles: dict[str, dict[tuple[str, str], int]]

    @property
    def extends32(self) -> int:
        return self.extend_counts.get(32, 0)

    @property
    def total_extends(self) -> int:
        return sum(self.extend_counts.values())

    def observable(self) -> tuple[int, int | float | None]:
        """The behaviour that must be preserved by optimization."""
        return (self.checksum, self.ret_value)


class Interpreter:
    """Executes one program.  Create a fresh instance per run."""

    def __init__(
        self,
        program: Program,
        *,
        traits: MachineTraits = IA64,
        mode: str = "machine",
        fuel: int = 50_000_000,
        collect_profile: bool = False,
        metrics=None,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
    ) -> None:
        if mode not in ("machine", "ideal"):
            raise ValueError(f"unknown mode: {mode}")
        self.program = program
        self.traits = traits
        self.ideal = mode == "ideal"
        self.fuel = fuel
        self.collect_profile = collect_profile
        self.max_call_depth = max_call_depth
        self.call_depth = 0
        _ensure_recursion_headroom(max_call_depth)
        #: optional repro.telemetry.MetricsRegistry; runtime counters
        #: are flushed into it once at the end of run() (zero per-step
        #: overhead, the hot loop never consults it)
        self.metrics = metrics

        self.heap = Heap()
        self.globals: dict[str, int | float] = {
            g.name: (float(g.initial) if g.type is ScalarType.F64
                     else int(g.initial))
            for g in program.globals.values()
        }
        self.checksum = 0
        self.steps = 0
        self.extend_counts: dict[int, int] = {8: 0, 16: 0, 32: 0}
        self.site_counts: dict[int, int] = {}
        self.opcode_counts: dict[Opcode, int] = {}
        self.profiles: dict[str, dict[tuple[str, str], int]] = {}
        #: func name -> {block label: dynamic entry count}.  Mirrors the
        #: closure engine's fold-on-success counters; only maintained
        #: when ``collect_profile`` is on (the per-step loop is
        #: untouched otherwise — see docs/PROFILING.md on overhead).
        self.block_entries: dict[str, dict[str, int]] = {}

    # -- public API ---------------------------------------------------------

    def run(self, func_name: str = "main",
            args: tuple[int | float, ...] = ()) -> ExecResult:
        func = self.program.function(func_name)
        ret = self._call(func, args)
        result = self._build_result(ret)
        if self.metrics is not None:
            self._flush_metrics(result)
        return result

    def _build_result(self, ret: int | float | None) -> ExecResult:
        """An immutable snapshot of this run's counters.

        Every dict is copied (profiles one level deep): a result must
        not alias live interpreter state, or a later run — or a caller
        mutating the result — silently corrupts it.
        """
        return ExecResult(
            checksum=self.checksum,
            ret_value=ret,
            steps=self.steps,
            extend_counts=dict(self.extend_counts),
            site_counts=dict(self.site_counts),
            opcode_counts=dict(self.opcode_counts),
            profiles={name: dict(edges)
                      for name, edges in self.profiles.items()},
        )

    def _flush_metrics(self, result: ExecResult) -> None:
        """Dump one run's dynamic counters into the metrics sink."""
        metrics = self.metrics
        for width, count in result.extend_counts.items():
            if count:
                metrics.counter("runtime.extends", width=width).inc(count)
        for opcode, count in result.opcode_counts.items():
            metrics.counter("runtime.opcodes", op=opcode.value).inc(count)
        metrics.counter("runtime.steps").inc(result.steps)
        metrics.gauge("runtime.fuel_remaining").set(
            max(0, self.fuel - result.steps)
        )
        metrics.histogram("runtime.site_exec_counts").merge(
            _site_histogram(result.site_counts)
        )

    # -- execution core ---------------------------------------------------------

    def _call(self, func: Function, args: tuple[int | float, ...]) -> int | float | None:
        if len(args) != len(func.params):
            raise Trap(
                f"arity mismatch calling {func.name}: got {len(args)} args"
            )
        depth = self.call_depth + 1
        if depth > self.max_call_depth:
            raise stack_overflow_trap(self.max_call_depth)
        # A never-written register reads as 0, as in the closure
        # engine's zero-filled frame; the verifier does not reject such
        # reads, so both engines must agree on them.
        regs: dict[str, int | float] = defaultdict(int)
        for param, value in zip(func.params, args):
            if param.type is ScalarType.F64:
                regs[param.name] = float(value)
            else:
                regs[param.name] = wrap_u64(int(value))
        self.call_depth = depth
        try:
            return self._execute(func, regs)
        finally:
            self.call_depth = depth - 1

    def _execute(self, func: Function, regs: dict[str, int | float]):
        block = func.entry
        position = 0
        instrs = block.instrs
        profile = None
        entries = None
        if self.collect_profile:
            profile = self.profiles.setdefault(func.name, {})
            entries = self.block_entries.setdefault(func.name, {})
            entries[block.label] = entries.get(block.label, 0) + 1

        while True:
            if position >= len(instrs):
                raise Trap(f"fell off block {block.label} in {func.name}")
            instr = instrs[position]
            self.steps += 1
            if self.steps > self.fuel:
                raise FuelExhausted(f"exceeded {self.fuel} steps")
            self.site_counts[instr.uid] = self.site_counts.get(instr.uid, 0) + 1
            self.opcode_counts[instr.opcode] = (
                self.opcode_counts.get(instr.opcode, 0) + 1
            )

            opcode = instr.opcode
            # -- control flow first ------------------------------------
            if opcode is Opcode.BR:
                taken = low32(int(regs[instr.srcs[0].name])) != 0
                target = instr.targets[0] if taken else instr.targets[1]
                if profile is not None:
                    key = (block.label, target)
                    profile[key] = profile.get(key, 0) + 1
                    entries[target] = entries.get(target, 0) + 1
                block = func.block(target)
                instrs = block.instrs
                position = 0
                continue
            if opcode is Opcode.JMP:
                target = instr.targets[0]
                if profile is not None:
                    key = (block.label, target)
                    profile[key] = profile.get(key, 0) + 1
                    entries[target] = entries.get(target, 0) + 1
                block = func.block(target)
                instrs = block.instrs
                position = 0
                continue
            if opcode is Opcode.RET:
                if instr.srcs:
                    return regs[instr.srcs[0].name]
                return None
            if opcode is Opcode.CALL:
                callee = self.program.function(instr.callee)
                call_args = tuple(regs[s.name] for s in instr.srcs)
                result = self._call(callee, call_args)
                if instr.dest is not None:
                    if result is None:
                        raise Trap(f"void call assigned: {instr}")
                    regs[instr.dest.name] = result
                position += 1
                continue

            self._step(instr, regs)
            position += 1

    # -- single instruction ---------------------------------------------------

    def _step(self, instr: Instr, regs: dict[str, int | float]) -> None:
        opcode = instr.opcode
        s = instr.srcs

        if opcode is Opcode.CONST:
            if instr.elem is ScalarType.F64:
                value: int | float = float(instr.imm)
            elif instr.elem is ScalarType.I64 or instr.elem is ScalarType.REF:
                value = wrap_u64(int(instr.imm))
            else:
                value = wrap_u64(sign_extend(int(instr.imm), 32))
            regs[instr.dest.name] = value
            return

        if opcode is Opcode.MOV:
            regs[instr.dest.name] = regs[s[0].name]
            return

        if opcode in _EXTEND_WIDTH:
            width = _EXTEND_WIDTH[opcode]
            self.extend_counts[width] += 1
            regs[instr.dest.name] = wrap_u64(
                sign_extend(int(regs[s[0].name]), width)
            )
            return

        if opcode in _ZEXT_WIDTH:
            width = _ZEXT_WIDTH[opcode]
            regs[instr.dest.name] = int(regs[s[0].name]) & ((1 << width) - 1)
            return

        if opcode is Opcode.JUST_EXTENDED:
            value = int(regs[s[0].name])
            if wrap_u64(sign_extend(value, 32)) != value:
                raise MemoryFault(
                    f"just_extended marker saw a non-canonical value "
                    f"0x{value:016x} — unsound elimination"
                )
            regs[instr.dest.name] = value
            return

        if opcode is Opcode.TRUNC32:
            regs[instr.dest.name] = int(regs[s[0].name])
            if self.ideal:
                regs[instr.dest.name] = wrap_u64(
                    sign_extend(int(regs[instr.dest.name]), 32)
                )
            return

        handler = _INT32_BINOPS.get(opcode)
        if handler is not None:
            a = int(regs[s[0].name])
            b = int(regs[s[1].name])
            result = handler(a, b)
            if self.ideal:
                result = wrap_u64(sign_extend(result, 32))
            regs[instr.dest.name] = result
            return

        handler = _INT64_BINOPS.get(opcode)
        if handler is not None:
            a = int(regs[s[0].name])
            b = int(regs[s[1].name])
            regs[instr.dest.name] = handler(a, b)
            return

        if opcode is Opcode.NEG32:
            result = wrap_u64(-int(regs[s[0].name]))
            if self.ideal:
                result = wrap_u64(sign_extend(result, 32))
            regs[instr.dest.name] = result
            return
        if opcode is Opcode.NOT32:
            result = wrap_u64(~int(regs[s[0].name]))
            if self.ideal:
                result = wrap_u64(sign_extend(result, 32))
            regs[instr.dest.name] = result
            return
        if opcode is Opcode.NEG64:
            regs[instr.dest.name] = wrap_u64(-int(regs[s[0].name]))
            return
        if opcode is Opcode.NOT64:
            regs[instr.dest.name] = wrap_u64(~int(regs[s[0].name]))
            return

        if opcode is Opcode.CMP32:
            a = int(regs[s[0].name])
            b = int(regs[s[1].name])
            if instr.cond.is_unsigned:
                regs[instr.dest.name] = int(
                    _compare(low32(a), low32(b), instr.cond)
                )
            else:
                regs[instr.dest.name] = int(
                    _compare(sign_extend(a, 32), sign_extend(b, 32), instr.cond)
                )
            return
        if opcode is Opcode.CMP64:
            a = int(regs[s[0].name])
            b = int(regs[s[1].name])
            if instr.cond.is_unsigned:
                regs[instr.dest.name] = int(_compare(a, b, instr.cond))
            else:
                regs[instr.dest.name] = int(
                    _compare(sign_extend(a, 64), sign_extend(b, 64), instr.cond)
                )
            return
        if opcode is Opcode.CMPF:
            a = float(regs[s[0].name])
            b = float(regs[s[1].name])
            regs[instr.dest.name] = int(_compare(a, b, instr.cond))
            return

        handler = _FLOAT_OPS.get(opcode)
        if handler is not None:
            operands = [float(regs[src.name]) for src in s]
            try:
                regs[instr.dest.name] = handler(*operands)
            except (ValueError, OverflowError) as exc:
                raise Trap(f"floating point error in {instr}: {exc}") from exc
            return

        if opcode is Opcode.I2D:
            regs[instr.dest.name] = float(sign_extend(int(regs[s[0].name]), 64))
            return
        if opcode is Opcode.L2D:
            regs[instr.dest.name] = float(sign_extend(int(regs[s[0].name]), 64))
            return
        if opcode is Opcode.D2I:
            regs[instr.dest.name] = wrap_u64(
                sign_extend(_java_d2i(float(regs[s[0].name])), 32)
            )
            return
        if opcode is Opcode.D2L:
            regs[instr.dest.name] = wrap_u64(_java_d2l(float(regs[s[0].name])))
            return

        if opcode is Opcode.NEWARRAY:
            length = sign_extend(int(regs[s[0].name]), 64)
            regs[instr.dest.name] = self.heap.allocate(instr.elem, length)
            return
        if opcode is Opcode.ALOAD:
            array = self.heap.deref(int(regs[s[0].name]))
            index = self.heap.checked_index(array, int(regs[s[1].name]))
            regs[instr.dest.name] = self._extend_loaded(
                self.heap.load_raw(array, index), instr.elem
            )
            return
        if opcode is Opcode.ASTORE:
            array = self.heap.deref(int(regs[s[0].name]))
            index = self.heap.checked_index(array, int(regs[s[1].name]))
            self.heap.store(array, index, regs[s[2].name])
            return
        if opcode is Opcode.ARRAYLEN:
            array = self.heap.deref(int(regs[s[0].name]))
            regs[instr.dest.name] = array.length
            return

        if opcode is Opcode.GLOAD:
            raw = self.globals[instr.gname]
            regs[instr.dest.name] = self._extend_loaded(raw, instr.elem)
            return
        if opcode is Opcode.GSTORE:
            value = regs[s[0].name]
            elem = instr.elem
            if elem is ScalarType.F64:
                self.globals[instr.gname] = float(value)
            else:
                self.globals[instr.gname] = int(value) & ((1 << elem.bits) - 1)
            return

        if opcode is Opcode.SINK:
            self._sink(regs[s[0].name], s[0].type)
            return
        if opcode is Opcode.NOP:
            return

        raise Trap(f"unhandled opcode {opcode} in {instr}")

    # -- helpers ---------------------------------------------------------------

    def _extend_loaded(self, raw: int | float, elem: ScalarType) -> int | float:
        if elem is ScalarType.F64:
            return float(raw)
        raw = int(raw)
        if elem is ScalarType.REF or elem is ScalarType.I64:
            return wrap_u64(raw)
        if self.ideal:
            if elem.signed:
                return wrap_u64(sign_extend(raw, elem.bits))
            return raw & 0xFFFF
        ext = self.traits.load_extension(elem)
        if ext is LoadExt.SIGN:
            return wrap_u64(sign_extend(raw, elem.bits))
        return raw & ((1 << elem.bits) - 1)

    def _sink(self, value: int | float, type_: ScalarType) -> None:
        if type_ is ScalarType.F64:
            bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        else:
            bits = wrap_u64(int(value))
        self.checksum = ((self.checksum ^ bits) * _FNV_PRIME) & U64


def _site_histogram(site_counts: dict[int, int]):
    """Distribution of per-site execution counts (how hot is hot)."""
    from ..telemetry.metrics import Histogram

    histogram = Histogram()
    for count in site_counts.values():
        histogram.observe(count)
    return histogram


def _compare(a, b, cond: Cond) -> bool:
    if cond is Cond.EQ:
        return a == b
    if cond is Cond.NE:
        return a != b
    if cond in (Cond.LT, Cond.ULT):
        return a < b
    if cond in (Cond.LE, Cond.ULE):
        return a <= b
    if cond in (Cond.GT, Cond.UGT):
        return a > b
    return a >= b


def _java_idiv(a: int, b: int) -> int:
    """Truncating division on the signed-64 interpretations.

    Inputs are raw u64 register values; the quotient's low 32 bits equal
    the Java ``int`` result whenever the inputs are canonical.
    """
    sa = sign_extend(a, 64)
    sb = sign_extend(b, 64)
    if sb == 0:
        raise Trap("ArithmeticException: / by zero")
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return wrap_u64(quotient)


def _java_irem(a: int, b: int) -> int:
    sa = sign_extend(a, 64)
    sb = sign_extend(b, 64)
    if sb == 0:
        raise Trap("ArithmeticException: % by zero")
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return wrap_u64(remainder)


def _java_d2i(value: float) -> int:
    if math.isnan(value):
        return 0
    if value >= 2147483647.0:
        return 2147483647
    if value <= -2147483648.0:
        return -2147483648
    return int(value)


def _java_d2l(value: float) -> int:
    if math.isnan(value):
        return 0
    if value >= 9223372036854775807.0:
        return 9223372036854775807
    if value <= -9223372036854775808.0:
        return -9223372036854775808
    return int(value)


_INT32_BINOPS = {
    Opcode.ADD32: lambda a, b: wrap_u64(a + b),
    Opcode.SUB32: lambda a, b: wrap_u64(a - b),
    Opcode.MUL32: lambda a, b: wrap_u64(a * b),
    Opcode.DIV32: _java_idiv,
    Opcode.REM32: _java_irem,
    Opcode.AND32: lambda a, b: a & b,
    Opcode.OR32: lambda a, b: a | b,
    Opcode.XOR32: lambda a, b: a ^ b,
    Opcode.SHL32: lambda a, b: wrap_u64(a << (b & 31)),
    # PPC64 ``sraw`` semantics: shift the low word, sign-extend the result.
    Opcode.SHR32: lambda a, b: wrap_u64(sign_extend(a, 32) >> (b & 31)),
    Opcode.USHR32: lambda a, b: low32(a) >> (b & 31),
}

_INT64_BINOPS = {
    Opcode.ADD64: lambda a, b: wrap_u64(a + b),
    Opcode.SUB64: lambda a, b: wrap_u64(a - b),
    Opcode.MUL64: lambda a, b: wrap_u64(a * b),
    Opcode.DIV64: _java_idiv,
    Opcode.REM64: _java_irem,
    Opcode.AND64: lambda a, b: a & b,
    Opcode.OR64: lambda a, b: a | b,
    Opcode.XOR64: lambda a, b: a ^ b,
    Opcode.SHL64: lambda a, b: wrap_u64(a << (b & 63)),
    Opcode.SHR64: lambda a, b: wrap_u64(sign_extend(a, 64) >> (b & 63)),
    Opcode.USHR64: lambda a, b: a >> (b & 63),
}

_FLOAT_OPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: _fdiv(a, b),
    Opcode.FREM: lambda a, b: math.fmod(a, b) if b != 0.0 else float("nan"),
    Opcode.FNEG: lambda a: -a,
    Opcode.FSQRT: lambda a: math.sqrt(a) if a >= 0.0 else float("nan"),
    Opcode.FSIN: math.sin,
    Opcode.FCOS: math.cos,
    Opcode.FEXP: math.exp,
    Opcode.FLOG: lambda a: math.log(a) if a > 0.0 else float("nan"),
    Opcode.FABS: abs,
    Opcode.FFLOOR: lambda a: float(math.floor(a)),
    Opcode.FPOW: lambda a, b: math.pow(a, b),
}


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        return math.copysign(float("inf"), a) * math.copysign(1.0, b)
    return a / b
