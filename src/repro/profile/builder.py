"""Reconstruct an :class:`ExecutionProfile` from an ``ExecResult``.

The central trick is the one the closure engine's fold already relies
on (see ``ClosureInterpreter._fold_counts``): **on a successful run,
every entered block completed**, so every instruction in a block's
executed cut shares the block's entry count.  Reading it back out is
the same identity in reverse — a block's dynamic entry count is the
``site_counts`` value of its *first* instruction:

* the closure engine fills ``site_counts`` by multiplying block-entry
  counters by the static per-block mix, so the first instruction's
  count *is* the fold counter;
* the reference loop counts every instruction it executes, and the
  first instruction of a block runs exactly once per entry.

Both engines therefore yield the same profile from the result they
already produce, and profiling adds **no per-instruction work** to
either hot loop — the zero-overhead contract the engine-parity suite
enforces.

Self time is modelled with the same cycle table the paper figures use
(:mod:`repro.machine.costs`); cumulative time propagates self cycles
through the dynamic call graph, collapsing strongly connected
components so recursion cannot double-count.
"""

from __future__ import annotations

from ..core.config import DEFAULT_ENGINE
from ..interp.interpreter import ExecResult
from ..ir.function import Function, Program
from ..ir.opcodes import EXTEND_BITS, Opcode
from ..machine.costs import DEFAULT_COSTS
from ..machine.model import MachineTraits
from ..telemetry.decisions import DecisionLog
from .model import (
    BlockProfile,
    ExecutionProfile,
    ExtendSite,
    FunctionProfile,
)


def build_profile(
    program: Program,
    result: ExecResult,
    *,
    traits: MachineTraits | None = None,
    engine: str = DEFAULT_ENGINE,
    variant: str = "",
    machine: str = "",
    workload: str = "",
    decisions: DecisionLog | None = None,
) -> ExecutionProfile:
    """Derive the full hotness profile of one successful execution.

    ``decisions`` optionally attaches the compile-time decision log so
    surviving extend sites carry their verdict/cause in the artifact
    and the annotated renderer.
    """
    extend_cost = traits.extend_cost if traits is not None else 1.0
    machine = machine or (traits.name if traits is not None else "")
    profile = ExecutionProfile(
        program=program.name,
        engine=engine,
        variant=variant,
        machine=machine,
        workload=workload,
        steps=result.steps,
        checksum=result.checksum,
        extend_totals={w: c for w, c in sorted(result.extend_counts.items())
                       if c},
        opcode_totals={
            op.value: count
            for op, count in sorted(result.opcode_counts.items(),
                                    key=lambda item: item[0].value)
            if count
        },
    )
    verdicts = _verdict_index(decisions)
    for func in program.functions.values():
        fprofile = _profile_function(func, result, extend_cost, verdicts)
        profile.functions.append(fprofile)
        profile.total_cycles += fprofile.self_cycles
        profile.extend_cycles += sum(
            site.count * extend_cost
            for block in fprofile.blocks
            for site in block.extend_sites
        )
    _propagate_cumulative(profile)
    return profile


def _verdict_index(
    decisions: DecisionLog | None,
) -> dict[int, tuple[str, str]]:
    if decisions is None:
        return {}
    return {r.instr_uid: (r.verdict, r.cause) for r in decisions}


def _profile_function(func: Function, result: ExecResult,
                      extend_cost: float,
                      verdicts: dict[int, tuple[str, str]],
                      ) -> FunctionProfile:
    site_counts = result.site_counts
    fprofile = FunctionProfile(
        name=func.name,
        entries=0,
        edges=dict(result.profiles.get(func.name, {})),
    )
    for index, block in enumerate(func.blocks):
        cut = block.executed()
        entries = site_counts.get(cut[0].uid, 0) if cut else 0
        self_cycles = 0.0
        sites: list[ExtendSite] = []
        for instr in cut:
            if instr.is_extend:
                self_cycles += entries * extend_cost
                verdict, cause = verdicts.get(instr.uid, (None, None))
                sites.append(ExtendSite(
                    uid=instr.uid, instr=str(instr),
                    width=EXTEND_BITS[instr.opcode],
                    count=entries, verdict=verdict, cause=cause,
                ))
            else:
                self_cycles += entries * DEFAULT_COSTS[instr.opcode]
            if entries and instr.opcode is Opcode.CALL:
                fprofile.calls[instr.callee] = (
                    fprofile.calls.get(instr.callee, 0) + entries
                )
        if index == 0:
            fprofile.entries = entries
        fprofile.self_cycles += self_cycles
        fprofile.blocks.append(BlockProfile(
            label=block.label,
            entries=entries,
            instrs=len(cut),
            self_cycles=self_cycles,
            extend_sites=sites,
        ))
    return fprofile


# -- cumulative time over the dynamic call graph ------------------------------

def _entering_calls(profile: ExecutionProfile,
                    component_of: dict[str, int]) -> dict[int, int]:
    """Per component: dynamic calls arriving from *other* components."""
    entering: dict[int, int] = {}
    for func in profile.functions:
        for callee, count in func.calls.items():
            comp = component_of.get(callee)
            if comp is None or comp == component_of[func.name]:
                continue
            entering[comp] = entering.get(comp, 0) + count
    return entering

def _propagate_cumulative(profile: ExecutionProfile) -> None:
    """Fill ``cumulative_cycles``: self plus attributed callee time.

    A callee's cumulative cycles are split among its callers in
    proportion to their dynamic call counts.  Strongly connected
    components of the call graph (recursion) are collapsed first, so
    every function inside a cycle reports the component's combined
    cumulative time instead of diverging.
    """
    by_name = {f.name: f for f in profile.functions}
    graph = {
        f.name: [c for c in f.calls if c in by_name]
        for f in profile.functions
    }
    component_of = _tarjan_scc(graph)
    members: dict[int, list[str]] = {}
    for name, comp in component_of.items():
        members.setdefault(comp, []).append(name)
    # Calls *entering* each component from outside it.  Intra-component
    # (recursive) calls are not entry points: the component's combined
    # self time already covers them, so counting them in the split
    # denominator would starve the real callers of attribution.
    entering = _entering_calls(profile, component_of)

    cumulative: dict[int, float] = {}

    def component_cumulative(comp: int) -> float:
        if comp in cumulative:
            return cumulative[comp]
        total = sum(by_name[name].self_cycles for name in members[comp])
        for name in members[comp]:
            for callee, count in by_name[name].calls.items():
                if callee not in component_of:
                    continue
                callee_comp = component_of[callee]
                if callee_comp == comp:
                    continue  # intra-component (recursive) edge
                fraction = count / max(1, entering.get(callee_comp, count))
                total += fraction * component_cumulative(callee_comp)
        cumulative[comp] = total
        return total

    for func in profile.functions:
        func.cumulative_cycles = component_cumulative(
            component_of[func.name]
        )


def _tarjan_scc(graph: dict[str, list[str]]) -> dict[str, int]:
    """Iterative Tarjan; returns node -> component id (deterministic)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    component_of: dict[str, int] = {}
    counter = [0]
    components = [0]

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = graph[node]
            for i in range(child_index, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component_of[member] = components[0]
                    if member == node:
                        break
                components[0] += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component_of
