"""Execution engines: the reference loop and closure-threaded code.

Two interchangeable ways to run a program:

* ``reference`` — :class:`~repro.interp.interpreter.Interpreter`, the
  simple per-step dispatch loop.  It is the semantic oracle; it stays
  deliberately boring.
* ``closure`` — :class:`ClosureInterpreter`, which pre-translates each
  function once (see :mod:`repro.interp.translate`) and then runs
  zero-lookup closures over a flat register list.  Translation is total
  over verified IR; a function it rejects fails construction with
  :class:`~repro.interp.translate.Untranslatable`.

The closure frame loop runs a block, then follows its terminator: the
block's ``branch`` closure (a ``BR``, fused with the compare before it
when there is one) returns the next block's index; otherwise the
block's ``target`` is the ``JMP`` successor, or -1 for a ``RET`` of
``ret_slot``.  A block without calls runs as one pre-checked segment
(``ops``, ``n_steps``); a block with calls, or without a terminator,
goes through :meth:`ClosureInterpreter._run_segments`.

Both engines produce bit-identical :class:`ExecResult` values — same
checksum, return value, step count, site/opcode/extend counts, and
branch profiles — and raise the same ``SimError`` subtypes with the
same messages.  A never-written register reads as 0 in both.
``engine="both"`` in :func:`execute` runs the two back to back and
raises :class:`EngineParityError` on any disagreement, which the fuzz
oracle uses as an internal-consistency check.

One documented divergence remains, unobservable in practice: on a
*failed* run the closure engine's ``steps`` is only segment-granular
(counts are folded on success only); no failed run ever builds an
``ExecResult``, and the fuzz oracle never compares step counts.
"""

from __future__ import annotations

import time

from ..core.config import DEFAULT_ENGINE
from ..ir.function import Function, Program
from .interpreter import (
    ExecResult,
    Interpreter,
    stack_overflow_trap,
)
from .memory import FuelExhausted, SimError, Trap
from .translate import (
    TERM_CHECKED,
    TERM_NONE,
    TranslatedFunction,
    TranslationCache,
    Untranslatable,
    default_translation_cache,
    uid_layout,
)

_U64 = 0xFFFF_FFFF_FFFF_FFFF


class EngineParityError(AssertionError):
    """The closure engine disagreed with the reference interpreter."""


class ClosureInterpreter(Interpreter):
    """Runs pre-translated threaded code; reference-identical results.

    Construction translates (or fetches from the shared
    :class:`TranslationCache`) every function in the program, or raises
    :class:`Untranslatable`.  Each translated call frame is a flat list
    indexed by pre-resolved slots; each instruction is a closure with
    its behaviour burned in.
    """

    def __init__(self, program: Program, *,
                 translation_cache: TranslationCache | None = None,
                 **kwargs) -> None:
        super().__init__(program, **kwargs)
        self.translation_cache = (
            translation_cache if translation_cache is not None
            else default_translation_cache()
        )
        self.translate_seconds = 0.0
        self.translated_functions = 0
        self.closures_executed = 0
        self.translate_cache_hits = 0
        self.translate_cache_misses = 0
        self._translated: dict[str, TranslatedFunction] = {}
        self._layouts: dict[str, dict[str, tuple[int, ...]]] = {}
        #: per-function block-entry counters, folded into the result
        self._entries: dict[str, list[int]] = {}
        #: per-function {(block idx, succ idx): count} when profiling
        self._edge_profiles: dict[str, dict[tuple[int, int], int]] = {}
        self._translate_all()

    # -- translation ----------------------------------------------------

    def _translate_all(self) -> None:
        cache = self.translation_cache
        start = time.perf_counter()
        hits0, misses0 = cache.hits, cache.misses
        for func in self.program.functions.values():
            translated = cache.get_or_translate(
                func, ideal=self.ideal, traits=self.traits,
            )
            self._bind(func, translated)
            self._translated[func.name] = translated
            self.translated_functions += 1
        self.translate_cache_hits = cache.hits - hits0
        self.translate_cache_misses = cache.misses - misses0
        self.translate_seconds = time.perf_counter() - start

    def _bind(self, func: Function, translated: TranslatedFunction) -> None:
        """Attach this Function's uids to the (content-shared) translation.

        The layout must agree with the translation's static step counts
        block for block; a mismatch means the cached translation does
        not describe this object.
        """
        layout = uid_layout(func)
        for block in translated.blocks:
            uids = layout.get(block.label)
            if uids is None or len(uids) != block.n_counted:
                raise Untranslatable(
                    f"{func.name}: cached translation does not match "
                    f"block {block.label}"
                )
        self._layouts[func.name] = layout

    # -- execution ------------------------------------------------------

    def run(self, func_name: str = "main",
            args: tuple[int | float, ...] = ()) -> ExecResult:
        func = self.program.function(func_name)
        ret = self._call(func, args)
        self._fold_counts()
        result = self._build_result(ret)
        if self.metrics is not None:
            self._flush_metrics(result)
            self._flush_engine_metrics()
        return result

    def _call(self, func: Function,
              args: tuple[int | float, ...]) -> int | float | None:
        translated = self._translated[func.name]
        if len(args) != translated.n_params:
            raise Trap(
                f"arity mismatch calling {func.name}: got {len(args)} args"
            )
        depth = self.call_depth + 1
        if depth > self.max_call_depth:
            raise stack_overflow_trap(self.max_call_depth)
        regs: list[int | float] = [0] * translated.n_slots
        for (slot, is_float), value in zip(translated.param_plan, args):
            regs[slot] = float(value) if is_float else int(value) & _U64
        self.call_depth = depth
        try:
            if self.collect_profile:
                return self._run_frame_profiled(translated, regs)
            return self._run_frame(translated, regs)
        finally:
            self.call_depth = depth - 1

    def _run_frame(self, translated: TranslatedFunction,
                   regs: list[int | float]):
        blocks = translated.blocks
        entries = self._entries.get(translated.name)
        if entries is None:
            entries = self._entries[translated.name] = [0] * len(blocks)
        fuel = self.fuel
        bidx = 0
        while True:
            block = blocks[bidx]
            entries[bidx] += 1
            ops = block.ops
            if ops is None:
                self._run_segments(translated, block, regs)
            else:
                steps = self.steps + block.n_steps
                if steps > fuel:
                    self._fuel_out(ops, regs)
                self.steps = steps
                for op in ops:
                    op(regs, self)
            branch = block.branch
            if branch is not None:
                bidx = branch(regs, self)
                continue
            bidx = block.target
            if bidx < 0:
                slot = block.ret_slot
                return regs[slot] if slot >= 0 else None

    def _run_frame_profiled(self, translated: TranslatedFunction,
                            regs: list[int | float]):
        blocks = translated.blocks
        entries = self._entries.get(translated.name)
        if entries is None:
            entries = self._entries[translated.name] = [0] * len(blocks)
        profile = self._edge_profiles.setdefault(translated.name, {})
        fuel = self.fuel
        bidx = 0
        while True:
            block = blocks[bidx]
            entries[bidx] += 1
            ops = block.ops
            if ops is None:
                self._run_segments(translated, block, regs)
            else:
                steps = self.steps + block.n_steps
                if steps > fuel:
                    self._fuel_out(ops, regs)
                self.steps = steps
                for op in ops:
                    op(regs, self)
            branch = block.branch
            if branch is not None:
                nxt = branch(regs, self)
            else:
                nxt = block.target
                if nxt < 0:
                    slot = block.ret_slot
                    return regs[slot] if slot >= 0 else None
            key = (bidx, nxt)
            profile[key] = profile.get(key, 0) + 1
            bidx = nxt

    def _run_segments(self, translated: TranslatedFunction, block,
                      regs: list[int | float]) -> None:
        """Run a block that calls, or that has no terminator, up to its
        terminator: each segment's pre-check, its ops and its call, then
        the terminator's own fuel step when a call precedes it."""
        fuel = self.fuel
        for ops, n, call in block.segments:
            steps = self.steps + n
            if steps > fuel:
                self._fuel_out(ops, regs)
            self.steps = steps
            for op in ops:
                op(regs, self)
            if call is not None:
                result = self._call(
                    self.program.functions[call.callee],
                    [regs[i] for i in call.arg_slots],
                )
                dest = call.dest_slot
                if dest >= 0:
                    if result is None:
                        raise Trap(call.void_msg)
                    regs[dest] = result
        term_mode = block.term_mode
        if term_mode == TERM_NONE:
            raise Trap(f"fell off block {block.label} in {translated.name}")
        if term_mode == TERM_CHECKED:
            if self.steps >= fuel:
                self._fuel_out((), regs)
            self.steps += 1

    def _fuel_out(self, ops, regs) -> None:
        """A segment pre-check tripped: replay the reference's tail.

        The reference executes instructions while ``steps <= fuel``, so
        exactly ``fuel - steps`` more run before the exhausting one —
        and any of them may trap first, which must win over fuel.
        """
        remaining = self.fuel - self.steps
        if remaining > 0:
            for op in ops[:remaining]:
                op(regs, self)
        self.steps = self.fuel + 1
        raise FuelExhausted(f"exceeded {self.fuel} steps")

    # -- result folding -------------------------------------------------

    def _fold_counts(self) -> None:
        """Expand block-entry counters into the reference's counters.

        Only called on success, where every entered block completed;
        the static per-block instruction mix times the entry count is
        then exactly the reference's per-instruction tally.
        """
        site_counts = self.site_counts
        opcode_counts = self.opcode_counts
        extend_counts = self.extend_counts
        expose_entries = self.collect_profile
        for name, entries in self._entries.items():
            translated = self._translated[name]
            layout = self._layouts[name]
            blocks = translated.blocks
            folded = (self.block_entries.setdefault(name, {})
                      if expose_entries else None)
            for bidx, count in enumerate(entries):
                if not count:
                    continue
                block = blocks[bidx]
                if folded is not None:
                    folded[block.label] = (
                        folded.get(block.label, 0) + count
                    )
                for uid in layout[block.label]:
                    site_counts[uid] = site_counts.get(uid, 0) + count
                for opcode, k in block.op_counts:
                    opcode_counts[opcode] = (
                        opcode_counts.get(opcode, 0) + k * count
                    )
                for width, k in block.ext_counts:
                    extend_counts[width] += k * count
                self.closures_executed += block.n_counted * count
        for name, edges in self._edge_profiles.items():
            blocks = self._translated[name].blocks
            profile = self.profiles.setdefault(name, {})
            for (src, dst), count in edges.items():
                key = (blocks[src].label, blocks[dst].label)
                profile[key] = profile.get(key, 0) + count
        self._entries = {}
        self._edge_profiles = {}

    def _flush_engine_metrics(self) -> None:
        metrics = self.metrics
        metrics.counter("runtime.engine.translated_functions").inc(
            self.translated_functions
        )
        metrics.counter("runtime.engine.closures_executed").inc(
            self.closures_executed
        )
        metrics.counter("runtime.engine.translate_cache_hits").inc(
            self.translate_cache_hits
        )
        metrics.counter("runtime.engine.translate_cache_misses").inc(
            self.translate_cache_misses
        )
        metrics.gauge("runtime.engine.translate_seconds").set(
            self.translate_seconds
        )


#: Engine name -> interpreter class.  ``"both"`` is not an engine but a
#: cross-check mode understood by :func:`execute` and the fuzz oracle.
ENGINES: dict[str, type[Interpreter]] = {
    "reference": Interpreter,
    "closure": ClosureInterpreter,
}


def create_interpreter(program: Program, *, engine: str = DEFAULT_ENGINE,
                       **kwargs) -> Interpreter:
    """Instantiate the named engine."""
    cls = ENGINES.get(engine)
    if cls is None:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {sorted(ENGINES)})"
        )
    return cls(program, **kwargs)


def _outcome(interp: Interpreter, func_name: str, args):
    try:
        return ("ok", interp.run(func_name, args))
    except SimError as exc:
        return (type(exc).__name__, exc)


def execute(program: Program, func_name: str = "main",
            args: tuple[int | float, ...] = (), *,
            engine: str = DEFAULT_ENGINE, **kwargs) -> ExecResult:
    """Run ``program`` on the selected engine and return its result.

    ``engine="both"`` runs the default engine (closure) and then the
    reference interpreter and raises :class:`EngineParityError` unless
    both produce the same outcome — identical ``ExecResult`` on success,
    identical exception type and message on failure.  The default
    engine's result (or exception) is then propagated.
    """
    if engine != "both":
        return create_interpreter(program, engine=engine, **kwargs).run(
            func_name, args
        )

    kind, out = _outcome(
        create_interpreter(program, engine=DEFAULT_ENGINE, **kwargs),
        func_name, args,
    )
    # metrics=None: don't double-count one logical run
    ref_kind, ref_out = _outcome(
        create_interpreter(program, engine="reference",
                           **{**kwargs, "metrics": None}),
        func_name, args,
    )
    if kind != ref_kind:
        raise EngineParityError(
            f"engines disagree on outcome for {func_name}: "
            f"{DEFAULT_ENGINE}={kind}({out}) reference={ref_kind}({ref_out})"
        )
    if kind == "ok":
        if out != ref_out:
            raise EngineParityError(
                f"engines disagree on result for {func_name}: "
                f"{DEFAULT_ENGINE}={out!r} reference={ref_out!r}"
            )
    elif str(out) != str(ref_out):
        raise EngineParityError(
            f"engines disagree on {kind} message for {func_name}: "
            f"{DEFAULT_ENGINE}={out} reference={ref_out}"
        )
    if kind == "ok":
        return out
    raise out
