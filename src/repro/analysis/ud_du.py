"""UD/DU chains [Aho-Sethi-Ullman], the paper's workhorse structure.

``EliminateOneExtend`` walks DU chains ("all instructions that use the
destination operand of EXT") and UD chains ("all instructions that
define the source operand of EXT"); ``AnalyzeARRAY`` recurses over both.

The chains are built from reaching definitions and then kept in step
with the function by whoever edits it, as QBE's passes "require and
preserve uses".  The general passes share them through one
:class:`ChainsHolder` per function:

* Constant folding and simplify's algebraic step put a ``CONST`` or
  ``MOV`` in an instruction's place (:meth:`Chains.replace`), copy
  propagation points an operand at the copied register
  (:meth:`Chains.repoint`), and DCE deletes instructions whose
  definitions reach no use (:meth:`Chains.remove`).  These edits are
  exact: afterwards the chains equal a fresh ``Chains(func)``.
* GCSE, LICM, branch folding and unreachable-block removal add, move or
  disconnect code; they call :meth:`ChainsHolder.invalidate`, and the
  next request rebuilds.

Phase 3 builds its own chains once.  When the eliminator removes a
same-register extension ``r = extend(r)`` it calls
:meth:`Chains.bypass_and_remove`, which splices the extension out of the
chains *conservatively* (former users of the extension now see every
definition that reached the extension).  The splice may overapproximate
reaching definitions along paths that never passed through the removed
instruction; overapproximation only makes the analyses more
conservative, never unsound.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..ir.block import Block
from ..ir.function import Function
from ..ir.instruction import Instr, VReg
from ..ir.opcodes import Opcode
from .dataflow import bit_indices
from .reaching import Definition, ReachingDefinitions


@dataclass(frozen=True)
class Use:
    """One use site: operand ``index`` of ``instr``."""

    instr: Instr
    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<use {self.instr}@{self.index}>"


class Chains:
    """UD and DU chains for one function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        reaching = ReachingDefinitions(func)
        #: Every definition in the function; :meth:`remove` drops one.
        self.definitions = reaching.definitions
        self._def_of_instr = reaching.def_of_instr
        #: use (instr uid, operand index) -> definitions reaching it
        self._ud: dict[tuple[int, int], list[Definition]] = {}
        #: definition index -> uses it reaches
        self._du: dict[int, list[Use]] = {
            d.index: [] for d in self.definitions
        }
        self._block_of_instr: dict[int, Block] = {}
        # The per-block bitsets are not kept: an edit would leave them
        # stale, so the edits below work from the chains alone.
        self._build(reaching)

    # -- construction ------------------------------------------------------

    def _build(self, reaching: ReachingDefinitions) -> None:
        for block in self.func.blocks:
            live = reaching.reaching_in(block.label)
            for instr in block.instrs:
                self._block_of_instr[instr.uid] = block
                for operand_index, src in enumerate(instr.srcs):
                    mask = reaching.defs_of_reg_bits(src)
                    def_indices = bit_indices(live & mask)
                    defs = [self.definitions[i] for i in def_indices]
                    self._ud[(instr.uid, operand_index)] = defs
                    use = Use(instr, operand_index)
                    for definition in defs:
                        self._du[definition.index].append(use)
                if instr.dest is not None:
                    definition = self._def_of_instr[instr.uid]
                    same_reg = reaching.defs_of_reg_bits(instr.dest)
                    live = (live & ~same_reg) | (1 << definition.index)

    # -- queries ---------------------------------------------------------------

    def defs_for(self, instr: Instr, operand_index: int) -> list[Definition]:
        """UD chain: definitions reaching operand ``operand_index``."""
        return self._ud.get((instr.uid, operand_index), [])

    def const_of(self, instr: Instr, operand_index: int) -> int | float | None:
        """The constant operand ``operand_index`` holds: the immediate
        of its reaching definitions when all are ``CONST``s that set one
        register image, else None.  Callers that need an integer check
        for it."""
        first = None
        for definition in self.defs_for(instr, operand_index):
            src = definition.instr
            if src is None or src.opcode is not Opcode.CONST:
                return None
            if first is None:
                first = src
            elif _image_bits(src) != _image_bits(first):
                return None
        return None if first is None else first.imm

    def uses_of(self, instr: Instr) -> list[Use]:
        """DU chain: uses reached by the definition made by ``instr``."""
        definition = self._def_of_instr.get(instr.uid)
        if definition is None:
            return []
        return self._du[definition.index]

    def uses_of_param(self, reg: VReg) -> list[Use]:
        for definition in self.definitions:
            if definition.is_param and definition.reg.name == reg.name:
                return self._du[definition.index]
        return []

    def definition_of(self, instr: Instr) -> Definition | None:
        return self._def_of_instr.get(instr.uid)

    def block_of(self, instr: Instr) -> Block:
        return self._block_of_instr[instr.uid]

    # -- exact in-place edits ---------------------------------------------
    #
    # Each leaves every UD and DU chain equal to a fresh ``Chains(func)``
    # of the edited function.  UD chains keep a fresh build's order
    # (ascending definition index); a DU chain may list its uses in
    # another order.

    def replace(self, old: Instr, new: Instr) -> None:
        """Put ``new`` in ``old``'s place in its block.

        ``new`` defines the register ``old`` defined and reads only
        registers ``old`` read: a ``CONST``, or a ``MOV`` of one of
        ``old``'s operands.  ``old``'s definition now names ``new``, so
        the UD chains that hold it stay as they are; each operand of
        ``new`` takes the UD chain of ``old``'s operand on the same
        register, since the same definitions reach the same place.
        """
        read = {src.name for src in old.srcs}
        if (old.dest is None or new.dest != old.dest
                or any(src.name not in read for src in new.srcs)):
            raise ValueError(f"{new} cannot replace {old}")
        reaching = dict(zip((src.name for src in old.srcs),
                            self._unlink_operands(old)))
        for index, src in enumerate(new.srcs):
            self._link_operand(new, index, list(reaching[src.name]))
        definition = self._def_of_instr.pop(old.uid)
        definition.instr = new
        self._def_of_instr[new.uid] = definition
        block = self._block_of_instr.pop(old.uid)
        self._block_of_instr[new.uid] = block
        block.instrs[block.instrs.index(old)] = new

    def repoint(self, instr: Instr, index: int,
                defs: list[Definition]) -> None:
        """Operand ``index`` of ``instr`` now reads another register,
        whose definitions reaching ``instr`` are exactly ``defs``.  The
        caller has already rewritten ``instr.srcs``."""
        for definition in self._ud[(instr.uid, index)]:
            self._du[definition.index] = [
                use for use in self._du[definition.index]
                if use.instr is not instr or use.index != index
            ]
        self._link_operand(instr, index, list(defs))

    def remove(self, instr: Instr) -> None:
        """Delete ``instr`` from its block; the register it defines must
        reach no use."""
        definition = self._def_of_instr.get(instr.uid)
        if definition is None or self._du[definition.index]:
            raise ValueError(f"not a dead definition: {instr}")
        self._unlink_operands(instr)
        del self._def_of_instr[instr.uid]
        del self._du[definition.index]
        self.definitions.remove(definition)
        self._block_of_instr.pop(instr.uid).remove(instr)

    def _unlink_operands(self, instr: Instr) -> list[list[Definition]]:
        """Drop every operand of ``instr`` from the chains; return the
        operands' UD chains."""
        chains = [self._ud.pop((instr.uid, index))
                  for index in range(len(instr.srcs))]
        for index in {d.index for defs in chains for d in defs}:
            self._du[index] = [use for use in self._du[index]
                               if use.instr is not instr]
        return chains

    def _link_operand(self, instr: Instr, index: int,
                      defs: list[Definition]) -> None:
        self._ud[(instr.uid, index)] = defs
        use = Use(instr, index)
        for definition in defs:
            self._du[definition.index].append(use)

    # -- conservative splice (phase 3) -------------------------------------

    def bypass_and_remove(self, instr: Instr) -> None:
        """Remove a same-register pass-through ``r = op(r)`` instruction
        (an ``extend`` or dummy marker) and splice the chains around it.

        Every use that saw this instruction's definition now also sees
        the definitions that reached the instruction's source operand,
        and vice versa.
        """
        if not (instr.dest is not None and len(instr.srcs) == 1
                and instr.dest.name == instr.srcs[0].name):
            raise ValueError(f"not a same-register pass-through: {instr}")

        definition = self._def_of_instr[instr.uid]
        upstream = list(self._ud.get((instr.uid, 0), []))
        # The definition may reach the instruction's own operand around
        # a loop back edge; that self-use vanishes with the instruction
        # and must not be re-attached to the upstream definitions.
        downstream = [
            use for use in self._du[definition.index]
            if use.instr is not instr
        ]

        for use in downstream:
            chain = self._ud[(use.instr.uid, use.index)]
            chain[:] = [d for d in chain if d is not definition]
            for up_def in upstream:
                if up_def not in chain:
                    chain.append(up_def)

        for up_def in upstream:
            du_chain = self._du[up_def.index]
            du_chain[:] = [u for u in du_chain if u.instr.uid != instr.uid]
            for use in downstream:
                if use not in du_chain:
                    du_chain.append(use)

        self._du[definition.index] = []
        self._ud.pop((instr.uid, 0), None)

        block = self._block_of_instr.pop(instr.uid)
        block.remove(instr)


class ChainsHolder:
    """The chains of one function, built on first request and kept until
    :meth:`invalidate`.

    A pass that edits the function must either make the same edit to the
    chains it got (constant folding, simplify's algebraic step, copy
    propagation and DCE use :meth:`Chains.replace`, :meth:`Chains.repoint`
    and :meth:`Chains.remove`) or call :meth:`invalidate` before anyone
    asks again (GCSE, LICM, branch folding, unreachable-block removal).
    Until then every :meth:`get` returns the same :class:`Chains`.
    """

    __slots__ = ("func", "_chains")

    def __init__(self, func: Function) -> None:
        self.func = func
        self._chains: Chains | None = None

    def get(self) -> Chains:
        if self._chains is None:
            self._chains = Chains(self.func)
        return self._chains

    def invalidate(self) -> None:
        self._chains = None


def _image_bits(const: Instr) -> int | bytes:
    """The register image ``const`` sets, bit for bit: a float's IEEE-754
    bytes, so ``-0.0`` is not ``0.0``."""
    from ..interp.interpreter import const_image  # interp imports analysis

    image = const_image(const.imm, const.elem)
    return struct.pack("<d", image) if isinstance(image, float) else image
