"""The execution-profile data model and its versioned artifact schema.

A profile is the runtime counterpart of the compile-time decision log:
where did block entries, sign extensions, and modelled cycles actually
go during one execution.  The model is deliberately *derived* data —
:mod:`repro.profile.builder` reconstructs every number from the
``ExecResult`` the engines already produce, so collecting a profile
adds no per-instruction work to either hot loop.

Artifacts serialize to one JSON document (``kind: "repro-profile"``,
``schema_version: 1``) that is **content-fingerprinted** (a SHA-256
digest over the canonical payload, excluding the fingerprint itself)
and **deterministic**: rows are ranked by hotness with stable name
tie-breaks, and nothing host- or time-dependent enters the payload, so
two runs of the same program produce byte-identical dumps.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any

from ..analysis.frequency import BranchProfile
from ..decode import DocumentError, Fields

#: Bump when the artifact layout changes; the decoder reads only this one.
SCHEMA_VERSION = 1

#: Discriminator so a profile artifact is never mistaken for telemetry,
#: perf-history, or fuzz-corpus JSON.
ARTIFACT_KIND = "repro-profile"


@dataclass
class ExtendSite:
    """One static sign-extension site and its dynamic execution count."""

    uid: int
    instr: str
    width: int
    count: int
    #: compile-time verdict from the decision log, when one was attached
    #: ("eliminated" sites no longer appear in compiled code, so a site
    #: present here is either "kept" or was never a candidate)
    verdict: str | None = None
    cause: str | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "uid": self.uid,
            "instr": self.instr,
            "width": self.width,
            "count": self.count,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict
        if self.cause is not None:
            out["cause"] = self.cause
        return out


@dataclass
class BlockProfile:
    """Hotness of one basic block."""

    label: str
    #: dynamic entries — exactly the closure engine's fold-on-success
    #: counter for this block
    entries: int
    #: static instructions in the executed cut (through the terminator)
    instrs: int
    #: modelled cycles spent in this block's own instructions
    self_cycles: float
    extend_sites: list[ExtendSite] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "entries": self.entries,
            "instrs": self.instrs,
            "self_cycles": self.self_cycles,
            "extend_sites": [s.as_dict() for s in self.extend_sites],
        }


@dataclass
class FunctionProfile:
    """Hotness of one function: blocks, edges, calls, time estimates."""

    name: str
    #: entries of the function's entry block (== times called)
    entries: int
    blocks: list[BlockProfile] = field(default_factory=list)
    #: (src label, dst label) -> taken count; only populated when the
    #: run collected branch profiles
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    #: callee name -> dynamic call count out of this function
    calls: dict[str, int] = field(default_factory=dict)
    self_cycles: float = 0.0
    #: self plus attributed callee cycles (call-graph propagated)
    cumulative_cycles: float = 0.0

    def block(self, label: str) -> BlockProfile:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(label)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "entries": self.entries,
            "self_cycles": self.self_cycles,
            "cumulative_cycles": self.cumulative_cycles,
            "calls": {k: self.calls[k] for k in sorted(self.calls)},
            "blocks": [b.as_dict() for b in _ranked_blocks(self.blocks)],
            "edges": [
                {"src": src, "dst": dst, "count": count}
                for (src, dst), count in sorted(self.edges.items())
            ],
        }


@dataclass
class ExecutionProfile:
    """Everything one profiled execution established."""

    program: str
    engine: str
    functions: list[FunctionProfile] = field(default_factory=list)
    #: run identification, free-form but deterministic (variant name,
    #: machine name, workload name — never timestamps or hosts)
    variant: str = ""
    machine: str = ""
    workload: str = ""
    steps: int = 0
    checksum: int = 0
    total_cycles: float = 0.0
    extend_cycles: float = 0.0
    #: dynamic executions of explicit sign extensions, by source width
    extend_totals: dict[int, int] = field(default_factory=dict)
    #: opcode name -> dynamic execution count
    opcode_totals: dict[str, int] = field(default_factory=dict)

    def function(self, name: str) -> FunctionProfile:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def block_entries(self) -> dict[str, dict[str, int]]:
        """``{function: {block label: entry count}}`` — the shape the
        closure engine's fold counters take."""
        return {
            func.name: {b.label: b.entries for b in func.blocks}
            for func in self.functions
        }

    def branch_profiles(self) -> dict[str, BranchProfile]:
        """Round-trip into :func:`collect_branch_profiles`-compatible
        :class:`BranchProfile` objects (functions with observed edges)."""
        return {
            func.name: BranchProfile(dict(func.edges))
            for func in self.functions
            if func.edges
        }

    # -- serialization --------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """The canonical (fingerprint-free) document body."""
        return {
            "kind": ARTIFACT_KIND,
            "schema_version": SCHEMA_VERSION,
            "program": self.program,
            "workload": self.workload,
            "variant": self.variant,
            "machine": self.machine,
            "engine": self.engine,
            "steps": self.steps,
            "checksum": f"{self.checksum:#018x}",
            "totals": {
                "cycles": self.total_cycles,
                "extend_cycles": self.extend_cycles,
                "extends": {str(w): self.extend_totals[w]
                            for w in sorted(self.extend_totals)},
                "opcodes": {k: self.opcode_totals[k]
                            for k in sorted(self.opcode_totals)},
            },
            "functions": [
                f.as_dict() for f in _ranked_functions(self.functions)
            ],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical payload; content-addresses the
        artifact the same way perf records and the compile cache are."""
        return _digest(self.payload())

    def to_dict(self) -> dict[str, Any]:
        document = self.payload()
        document["fingerprint"] = self.fingerprint()
        return document

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "ExecutionProfile":
        """Decode one artifact: its kind, schema version, fingerprint,
        hex checksum and every field; raises :class:`DocumentError`."""
        read = Fields(document, "profile artifact", kind=ARTIFACT_KIND,
                      schema_version=SCHEMA_VERSION)
        body = {k: v for k, v in document.items() if k != "fingerprint"}
        if read("fingerprint", str) != _digest(body):
            raise DocumentError("profile artifact fingerprint does not "
                                "match its payload")
        checksum = read("checksum", str)
        if not re.fullmatch("0x[0-9a-f]{16}", checksum):
            raise DocumentError(f"profile artifact checksum {checksum!r} "
                                "is not 16 hex digits")
        totals = Fields(read("totals", dict), "profile artifact.totals")
        return cls(
            program=read("program", str),
            engine=read("engine", str),
            variant=read("variant", str, ""),
            machine=read("machine", str, ""),
            workload=read("workload", str, ""),
            steps=read("steps", int),
            checksum=int(checksum, 16),
            total_cycles=totals("cycles", float),
            extend_cycles=totals("extend_cycles", float),
            extend_totals=totals.map("extends", int, keys=int),
            opcode_totals=totals.map("opcodes", int),
            functions=[FunctionProfile(
                name=func("name", str),
                entries=func("entries", int),
                self_cycles=func("self_cycles", float),
                cumulative_cycles=func("cumulative_cycles", float),
                calls=func.map("calls", int),
                edges={(edge("src", str), edge("dst", str)):
                       edge("count", int) for edge in func.objects("edges")},
                blocks=[BlockProfile(
                    label=block("label", str),
                    entries=block("entries", int),
                    instrs=block("instrs", int),
                    self_cycles=block("self_cycles", float),
                    extend_sites=[ExtendSite(
                        uid=site("uid", int), instr=site("instr", str),
                        width=site("width", int), count=site("count", int),
                        verdict=site("verdict", str, None),
                        cause=site("cause", str, None),
                    ) for site in block.objects("extend_sites")],
                ) for block in func.objects("blocks")],
            ) for func in read.objects("functions")],
        )


def _digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _ranked_functions(
    functions: list[FunctionProfile],
) -> list[FunctionProfile]:
    """Hottest first, name as the stable tie-break."""
    return sorted(functions,
                  key=lambda f: (-f.self_cycles, -f.entries, f.name))


def _ranked_blocks(blocks: list[BlockProfile]) -> list[BlockProfile]:
    return sorted(blocks,
                  key=lambda b: (-b.entries, -b.self_cycles, b.label))


def validate_profile(document: Any) -> list[str]:
    """Problems decoding one artifact document: ``[]``, or the one
    message of :meth:`ExecutionProfile.from_dict`."""
    try:
        ExecutionProfile.from_dict(document)
    except DocumentError as exc:
        return [str(exc)]
    return []
