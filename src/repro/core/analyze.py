"""Phase (3)-3: ``EliminateOneExtend`` over UD/DU chains (Sections 2.3
and 3).

A sign extension can be eliminated if

* (USE side) the upper bits of its destination do not affect the correct
  execution of any transitive use — walked over DU chains with Case 1
  (the use ignores the bits), Case 2 (the use's result's low bits depend
  only on the operand's low bits, so recurse into the result's uses),
  and the array-index case handled by ``AnalyzeARRAY``; or
* (DEF side) every definition reaching its source already produces a
  suitably canonical value — walked over UD chains with Case 1 (known
  canonical definitions) and Case 2 (copies and bitwise operations
  propagate canonicality).

``AnalyzeARRAY`` implements Theorems 1-4: the language forbids negative
array indices and bounds checks are 32-bit compares, so an index
expression built from +/-/copies of suitably-ranged, canonical values
needs no explicit extension for the effective address.  The analysis
must reason about the index *as it will be after the extension is
removed*, so definitions that are the candidate extension itself are
bypassed (its raw source definitions are consulted instead).

Traversal flags (the paper's USE/DEF/ARRAY flags) are per-candidate.
USE flags break cycles optimistically (a revisited use contributes no
new requirement — plain reachability).  DEF flags are optimistic too,
which is sound because Case-2 recursion only passes through copies and
bitwise operations, which preserve canonicality.  ARRAY theorem cycles,
whether through an index's definitions or through copies, resolve
*pessimistically*, because canonicality is not invariant through
wrap-around +/-: the ``just_extended`` dummy markers after array
accesses are what make loop-carried index reasoning succeed, exactly as
in the paper.

Every walk stops ``MAX_CHAIN_DEPTH`` links deep and answers
conservatively there (as if the extension were needed), so a long chain
of dependent operations neither overflows Python's stack nor gets an
answer that depends on ``sys.getrecursionlimit()``.
"""

from __future__ import annotations

from ..analysis.ud_du import Chains
from ..analysis.value_range import MAX_CHAIN_DEPTH, Interval, ValueRanges
from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, Opcode
from ..ir.semantics import (
    ARRAY_TRANSPARENT_OPS,
    UseKind,
    canonical_bits,
    classify_use,
    propagates_canonical,
    upper32_zero,
    use_read_bits,
)
from ..ir.types import INT32_MAX, ScalarType
from ..machine.model import MachineTraits
from ..telemetry import (
    CAUSE_ARRAY,
    CAUSE_DEF,
    CAUSE_REQUIRED,
    CAUSE_USE,
    DecisionRecord,
    Telemetry,
    VERDICT_ELIMINATED,
    VERDICT_KEPT,
)
from .config import SignExtConfig


#: Arithmetic covered by the no-overflow canonicality rule.
_RANGE_CANONICAL_OPS = frozenset(
    {Opcode.ADD32, Opcode.SUB32, Opcode.MUL32, Opcode.NEG32}
)


class Eliminator:
    """Analyzes and eliminates sign extensions one at a time."""

    def __init__(self, func, chains: Chains, config: SignExtConfig,
                 telemetry: Telemetry | None = None) -> None:
        self.func = func
        self.chains = chains
        self.config = config
        self.traits: MachineTraits = config.traits
        self.ranges = ValueRanges(chains, config.traits,
                                  config.max_array_length)
        # Per-candidate traversal flags.
        self._use_flags: set[tuple[int, int]] = set()
        self._canon_memo: dict[tuple[int, int], bool] = {}
        self._canon_in_progress: set[tuple[int, int]] = set()
        self._zero_flags: set[int] = set()
        self._array_flags: set[int] = set()
        self._copy_flags: set[int] = set()
        #: links the current walk is deep, over every recursive walk
        self._depth = 0
        # Optional decision recording.  ``_trail`` is non-None only
        # while a candidate is being analyzed with telemetry attached;
        # every recording site is guarded on it, so the disabled path
        # costs one ``is not None`` test at most.
        self.telemetry = telemetry
        self._trail: list[str] | None = None
        self._trail_theorems: list[int] | None = None
        self._trail_dummy = False

    # -- the paper's EliminateOneExtend -------------------------------------

    def try_eliminate(self, ext: Instr) -> bool:
        """Analyze one extension; remove it (and splice chains) if legal."""
        self._use_flags = set()
        self._canon_memo = {}
        self._canon_in_progress = set()
        self._zero_flags = set()
        self._array_flags = set()
        self._copy_flags = set()
        width = EXTEND_BITS[ext.opcode]
        recording = self.telemetry is not None
        if recording:
            self._trail = []
            self._trail_theorems = []
            self._trail_dummy = False

        required = False
        for use in self.chains.uses_of(ext):
            if self.analyze_use(ext, use.instr, use.index, width,
                                analyze_array=self.config.array):
                required = True
                break

        use_side_ok = not required
        if required:
            required = False
            for definition in self.chains.defs_for(ext, 0):
                if self.analyze_def(definition, width):
                    required = True
                    break
            if not required and self._trail is not None:
                self._trail.append(
                    "AnalyzeDEF: every definition reaching the source is "
                    "already canonical"
                )

        if recording:
            self._record_decision(ext, width, removed=not required,
                                  use_side_ok=use_side_ok)
            self._trail = None
            self._trail_theorems = None

        if required:
            return False
        self.chains.bypass_and_remove(ext)
        return True

    # -- decision recording (telemetry only) --------------------------------

    def _theorem_hit(self, theorem: int) -> None:
        if self._trail_theorems is not None:
            self._trail_theorems.append(theorem)

    def _record_decision(self, ext: Instr, width: int, *, removed: bool,
                         use_side_ok: bool) -> None:
        theorems = sorted(set(self._trail_theorems or ()))
        if removed:
            verdict = VERDICT_ELIMINATED
            if use_side_ok:
                cause = CAUSE_ARRAY if theorems else CAUSE_USE
            else:
                cause = CAUSE_DEF
        else:
            verdict = VERDICT_KEPT
            cause = CAUSE_REQUIRED
        self.telemetry.decisions.add(DecisionRecord(
            function=self.func.name,
            block=self.chains.block_of(ext).label,
            instr_uid=ext.uid,
            instr=str(ext),
            width=width,
            verdict=verdict,
            cause=cause,
            reasons=list(self._trail or ()),
            theorems=theorems,
        ))
        metrics = self.telemetry.metrics
        metrics.counter("signext.decisions", verdict=verdict).inc()
        if removed:
            metrics.counter("signext.eliminated_by_cause", cause=cause).inc()
            if self._trail_dummy:
                metrics.counter("signext.dummy_marker_assists").inc()
        for theorem in theorems:
            metrics.counter("signext.theorem_hits", theorem=theorem).inc()

    # -- AnalyzeUSE -------------------------------------------------------------

    def analyze_use(self, ext: Instr, instr: Instr, index: int, width: int,
                    analyze_array: bool) -> bool:
        """True when the use (transitively) requires the extension."""
        flag = (instr.uid, index)
        if flag in self._use_flags:
            return False
        self._use_flags.add(flag)

        kind = classify_use(instr, index, self.traits)
        if kind is UseKind.IRRELEVANT:
            return False
        if kind is UseKind.IGNORES_HIGH:
            # Case 1 — but a narrower extension is still needed by a use
            # that reads bits at or above its width.
            if use_read_bits(instr, index) > width:
                if self._trail is not None:
                    self._trail.append(
                        f"AnalyzeUSE: use #{instr.uid} ({instr}) reads "
                        f"bits above width {width}"
                    )
                return True
            return False
        if kind is UseKind.ARRAY_INDEX:
            if width < 32:
                if self._trail is not None:
                    self._trail.append(
                        f"AnalyzeUSE: array index at #{instr.uid} feeds a "
                        f"32-bit bounds check; {width}-bit extension required"
                    )
                return True  # bits below 32 feed the bounds check
            if analyze_array:
                result = self.analyze_array(ext, instr, index)
                if self._trail is not None:
                    self._trail.append(
                        f"AnalyzeARRAY: subscript at #{instr.uid} ({instr}) "
                        + ("requires the extension" if result
                           else "is safe without the extension")
                    )
                return result
            if self._trail is not None:
                self._trail.append(
                    f"AnalyzeUSE: array index at #{instr.uid} with array "
                    "analysis disabled; extension required"
                )
            return True
        if kind is UseKind.PROPAGATES:
            # Refinement of Case 1 (the paper's Figure 3, statement (6)):
            # AND with a non-negative constant mask reads only the mask's
            # bits, so the extension is unneeded when the mask fits below
            # the extension width — regardless of downstream uses.
            if instr.opcode is Opcode.AND32:
                other = self.chains.const_of(instr, 1 - index)
                if (isinstance(other, int) and 0 <= other <= INT32_MAX
                        and other.bit_length() <= width):
                    return False
            # Case 2 — the operand's upper bits matter only if the
            # destination's do.
            if instr.opcode not in ARRAY_TRANSPARENT_OPS:
                analyze_array = False
            if self._depth >= MAX_CHAIN_DEPTH:
                if self._trail is not None:
                    self._trail.append(
                        f"AnalyzeUSE: uses past #{instr.uid} lie more than "
                        f"{MAX_CHAIN_DEPTH} links down the chain; assumed to "
                        "need the extension"
                    )
                return True
            self._depth += 1
            required = False
            for use in self.chains.uses_of(instr):
                if self.analyze_use(ext, use.instr, use.index, width,
                                    analyze_array):
                    required = True
                    break
            self._depth -= 1
            return required
        if self._trail is not None:
            self._trail.append(
                f"AnalyzeUSE: use #{instr.uid} ({instr}) requires a "
                "canonical full-width value"
            )
        return True  # REQUIRES

    # -- AnalyzeDEF -------------------------------------------------------------

    def analyze_def(self, definition, width: int) -> bool:
        """True when the definition fails to guarantee canonicality.

        Cycles through Case-2 operations resolve optimistically, which
        is sound because copies and bitwise operations preserve
        canonicality (so the induction is valid as long as every entry
        into the cycle is canonical).  Results are memoized so repeated
        queries within one candidate stay consistent.
        """
        if definition.is_param:
            if definition.reg.type is ScalarType.I32:
                required = not (self.traits.abi_canonical_args
                                and width >= 32)
                if required and self._trail is not None:
                    self._trail.append(
                        f"AnalyzeDEF: parameter %{definition.reg.name} is "
                        "not ABI-canonical at this width"
                    )
                return required
            if self._trail is not None:
                self._trail.append(
                    f"AnalyzeDEF: parameter %{definition.reg.name} has a "
                    "non-i32 type; canonicality unknown"
                )
            return True
        instr = definition.instr
        key = (instr.uid, width)
        cached = self._canon_memo.get(key)
        if cached is not None:
            return cached
        if key in self._canon_in_progress:
            return False  # optimistic on Case-2 cycles
        if self._depth >= MAX_CHAIN_DEPTH:
            if self._trail is not None:
                self._trail.append(
                    f"AnalyzeDEF: definition #{instr.uid} lies more than "
                    f"{MAX_CHAIN_DEPTH} links up the chain; canonicality "
                    "unknown"
                )
            return True
        self._canon_in_progress.add(key)
        self._depth += 1
        try:
            result = self._analyze_def_uncached(instr, width)
        finally:
            self._canon_in_progress.discard(key)
            self._depth -= 1
        self._canon_memo[key] = result
        return result

    def _analyze_def_uncached(self, instr: Instr, width: int) -> bool:
        if self.config.debug_skip_def_check:
            # Fault injection (see SignExtConfig.debug_skip_def_check):
            # pretend every definition already produces a canonical
            # value.  The fuzz campaign's oracle must catch the
            # resulting miscompiles.
            return False
        guaranteed = canonical_bits(instr, self.traits, self.chains.const_of)
        if guaranteed is not None and guaranteed <= width:
            if (self._trail is not None
                    and instr.opcode is Opcode.JUST_EXTENDED):
                self._trail_dummy = True
                self._trail.append(
                    f"AnalyzeDEF: dummy marker #{instr.uid} guarantees the "
                    "bounds-checked index is canonical"
                )
            return False  # Case 1
        if instr.opcode is Opcode.AND32 and width >= 32 \
                and self._and_operand_positive(instr):
            return False  # Case 1, range-refined
        if width >= 32 and instr.opcode in _RANGE_CANONICAL_OPS \
                and self._canonical_via_range(instr):
            return False  # no-overflow arithmetic on canonical inputs
        if propagates_canonical(instr.opcode):
            # Case 2 — canonical iff every narrow source is canonical.
            for index, src in enumerate(instr.srcs):
                if not src.type.is_narrow_int:
                    continue
                for up_def in self.chains.defs_for(instr, index):
                    if self.analyze_def(up_def, width):
                        return True
            return False
        if self._trail is not None:
            self._trail.append(
                f"AnalyzeDEF: definition #{instr.uid} ({instr}) does not "
                f"guarantee canonical bits <= {width}"
            )
        return True

    def _canonical_via_range(self, instr: Instr) -> bool:
        """No-overflow rule: +/-/*/neg of canonical operands whose result
        interval provably fits in 32 bits computes the true value
        full-width, so the destination register is canonical.

        Combined with the guarded-induction-variable ranges in
        :mod:`repro.analysis.value_range`, this is what proves loop
        counters (and products like ``k * 64 + m``) canonical — the
        role the paper delegates to its cited range analyses.  The
        optimistic cycle resolution in :meth:`analyze_def` is sound
        here because each node on the cycle re-checks its own
        no-overflow interval: if every entry value is canonical and no
        step can wrap, canonicality is preserved inductively.
        """
        definition = self.chains.definition_of(instr)
        if definition is None:
            return False
        interval = self.ranges.range_of_def(definition)
        if interval.is_top:
            return False
        for index, src in enumerate(instr.srcs):
            if not src.type.is_narrow_int:
                continue
            for up_def in self.chains.defs_for(instr, index):
                if self.analyze_def(up_def, 32):
                    return False
        return True

    def _and_operand_positive(self, instr: Instr) -> bool:
        """The paper's AND example: if either operand register is known
        zero in its upper 32 bits with a non-negative 32-bit value, the
        bitwise AND result is canonical (indeed upper-zero)."""
        for index in (0, 1):
            interval = self.ranges.range_of_use(instr, index)
            if interval.lo >= 0 and interval.hi <= INT32_MAX \
                    and self._operand_upper_zero(instr, index):
                return True
        return False

    # -- upper-32-zero reasoning (Theorems 1 and 3) -------------------------------

    def _operand_upper_zero(self, instr: Instr, index: int,
                            bypass: Instr | None = None) -> bool:
        defs = self.chains.defs_for(instr, index)
        if not defs:
            return False
        return all(self._def_upper_zero(d, bypass) for d in defs)

    def _def_upper_zero(self, definition, bypass: Instr | None) -> bool:
        if definition.is_param:
            return False
        instr = definition.instr
        if bypass is not None and instr is bypass:
            # The candidate extension is about to be removed: consult its
            # raw source definitions instead.
            return self._operand_upper_zero(instr, 0, None)
        if instr.uid in self._zero_flags or self._depth >= MAX_CHAIN_DEPTH:
            return False  # pessimistic on cycles and deep chains
        self._zero_flags.add(instr.uid)
        self._depth += 1
        try:
            if upper32_zero(instr, self.traits, self.chains.const_of):
                return True
            if instr.opcode is Opcode.MOV:
                return self._operand_upper_zero(instr, 0, bypass)
            if instr.opcode is Opcode.AND32:
                return any(
                    self._operand_upper_zero(instr, i, bypass) for i in (0, 1)
                )
            if instr.opcode in (Opcode.OR32, Opcode.XOR32):
                return all(
                    self._operand_upper_zero(instr, i, bypass) for i in (0, 1)
                )
            if instr.is_extend:
                # A canonical value with a known non-negative range has
                # zero upper bits.
                interval = self.ranges.range_of_use(instr, 0)
                return interval.lo >= 0 and interval.hi <= INT32_MAX
            if instr.opcode in _RANGE_CANONICAL_OPS:
                # No-overflow arithmetic on canonical inputs holds the
                # true value; if that value is non-negative the upper
                # 32 bits are zero (Theorem 1's hypothesis).
                definition = self.chains.definition_of(instr)
                if definition is not None:
                    interval = self.ranges.range_of_def(definition)
                    if (not interval.is_top and interval.lo >= 0
                            and self._canonical_via_range(instr)):
                        return True
            return False
        finally:
            self._zero_flags.discard(instr.uid)
            self._depth -= 1

    # -- AnalyzeARRAY (Theorems 1-4) ---------------------------------------------

    def analyze_array(self, ext: Instr, array_instr: Instr,
                      index: int) -> bool:
        """True when the array access still requires the extension.

        Checks that every definition of the index operand that is
        affected by removing ``ext`` satisfies one of the theorems.
        """
        tainted = {uid for uid, _ in self._use_flags}
        tainted.add(ext.uid)
        for definition in self.chains.defs_for(array_instr, index):
            if definition.is_param:
                continue  # untainted path: unaffected by the removal
            instr = definition.instr
            if instr.uid not in tainted and instr is not ext:
                continue
            if not self._theorem_def_ok(definition, ext):
                return True
        return False

    def _bypassing(self, defs, ext: Instr):
        """``defs`` as they will be once ``ext`` is removed: the
        candidate gives way to the definitions reaching its source.
        Lazy, so a caller that stops at the first failure evaluates no
        more than it needs; the memo and cycle flags make that order
        matter."""
        for definition in defs:
            if definition.instr is ext:
                yield from self.chains.defs_for(ext, 0)
            else:
                yield definition

    def _theorem_def_ok(self, definition, ext: Instr) -> bool:
        instr = definition.instr
        if instr.uid in self._array_flags:
            return False  # pessimistic: rely on dummy markers, not cycles
        self._array_flags.add(instr.uid)
        try:
            # a[i] where i's definition is the candidate checks the
            # candidate's raw source definitions instead.
            return all(self._theorem_value_ok(d, ext)
                       for d in self._bypassing((definition,), ext))
        finally:
            self._array_flags.discard(instr.uid)

    def _theorem_value_ok(self, definition, ext: Instr) -> bool:
        """Is one reaching definition safe as an array index source?"""
        if definition.is_param:
            # Canonical by ABI: canonical + LS(e) implies a correct
            # effective address (generalized Theorem 1).
            return (self.traits.abi_canonical_args
                    and definition.reg.type is ScalarType.I32)
        return self._theorem_value_instr_ok(definition.instr, ext)

    def _theorem_value_instr_ok(self, instr: Instr, ext: Instr) -> bool:
        theorems = self.config.theorems
        # Canonical value + LS: a canonical index that passes the 32-bit
        # bounds check is non-negative, hence zero-extended (Theorem 1's
        # generalization); upper-32-zero + LS is Theorem 1 itself.
        if 1 in theorems and self._def_canonical_quick(instr, ext):
            self._theorem_hit(1)
            return True
        if 1 in theorems and self._def_upper_zero_wrapper(instr, ext):
            self._theorem_hit(1)
            return True
        if instr.opcode is Opcode.MOV:
            return self._theorem_operand_ok(instr, 0, ext)
        if instr.opcode is Opcode.ADD32 and (theorems & {2, 4}):
            return self._theorem_add_ok(instr, ext)
        if instr.opcode is Opcode.SUB32 and (theorems & {2, 3, 4}):
            return self._theorem_sub_ok(instr, ext)
        return False

    def _theorem_operand_ok(self, instr: Instr, index: int, ext: Instr) -> bool:
        # A copy cycle (``t = mov a; a = mov t``) leads back here; like
        # an ARRAY cycle, a copy met again on the path fails, as does a
        # copy chain too deep to follow.
        if instr.uid in self._copy_flags or self._depth >= MAX_CHAIN_DEPTH:
            return False
        self._copy_flags.add(instr.uid)
        self._depth += 1
        try:
            return all(self._theorem_value_ok(d, ext) for d in
                       self._bypassing(self.chains.defs_for(instr, index),
                                       ext))
        finally:
            self._copy_flags.discard(instr.uid)
            self._depth -= 1

    def _theorem_bound(self) -> int:
        """Lower bound on the non-negative-ish operand: Theorem 2 needs
        0; Theorem 4 relaxes it to (maxlen-1) - 0x7fffffff."""
        if 4 in self.config.theorems:
            return (self.config.max_array_length - 1) - INT32_MAX
        return 0

    def _theorem_add_ok(self, instr: Instr, ext: Instr) -> bool:
        """Theorems 2 and 4 for ``i + j``."""
        if not (self._operand_canonical(instr, 0, ext)
                and self._operand_canonical(instr, 1, ext)):
            return False
        bound = self._theorem_bound()
        for index in (0, 1):
            interval = self.ranges.range_of_use(instr, index)
            if interval.lo >= bound and interval.hi <= INT32_MAX:
                self._theorem_hit(
                    2 if interval.lo >= 0 and 2 in self.config.theorems
                    else 4
                )
                return True
        return False

    def _theorem_sub_ok(self, instr: Instr, ext: Instr) -> bool:
        """Theorem 3 for ``i - j``, plus Theorems 2/4 with ``-j``."""
        theorems = self.config.theorems
        j_range = self.ranges.range_of_use(instr, 1)
        # Theorem 3: upper 32 bits of i are zero, 0 <= j <= INT32_MAX.
        if (3 in theorems
                and self._operand_upper_zero(instr, 0, bypass=ext)
                and j_range.lo >= 0 and j_range.hi <= INT32_MAX):
            self._theorem_hit(3)
            return True
        # Theorems 2/4 with j := -j (the paper's closing remark).
        if not theorems & {2, 4}:
            return False
        if not (self._operand_canonical(instr, 0, ext)
                and self._operand_canonical(instr, 1, ext)):
            return False
        bound = self._theorem_bound()
        i_range = self.ranges.range_of_use(instr, 0)
        if i_range.lo >= bound and i_range.hi <= INT32_MAX:
            self._theorem_hit(
                2 if i_range.lo >= 0 and 2 in theorems else 4
            )
            return True
        if j_range.lo > -(INT32_MAX + 1):  # -j must not overflow
            negated = Interval(-j_range.hi, -j_range.lo)
            if negated.lo >= bound and negated.hi <= INT32_MAX:
                self._theorem_hit(
                    2 if negated.lo >= 0 and 2 in theorems else 4
                )
                return True
        return False

    # -- canonicality helpers for the theorems --------------------------------------

    def _operand_canonical(self, instr: Instr, index: int, ext: Instr) -> bool:
        defs = self.chains.defs_for(instr, index)
        return bool(defs) and not any(
            self.analyze_def(d, 32) for d in self._bypassing(defs, ext))

    def _def_canonical_quick(self, instr: Instr, ext: Instr) -> bool:
        if instr is ext:
            return False
        definition = self.chains.definition_of(instr)
        if definition is None:
            return False
        return not self.analyze_def(definition, 32)

    def _def_upper_zero_wrapper(self, instr: Instr, ext: Instr) -> bool:
        definition = self.chains.definition_of(instr)
        if definition is None:
            return False
        return self._def_upper_zero(definition, bypass=ext)
