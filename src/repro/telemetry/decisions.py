"""Structured per-candidate elimination decision records.

Every sign extension the eliminator considers yields one
:class:`DecisionRecord`: where the candidate lives (function, block,
instruction uid and text), the verdict, which analysis decided it, and
the reason chain the DU/UD walk produced.  A kept extension is thereby
explainable — the record names the concrete use or definition that
required it.

Verdicts and causes::

    verdict    "eliminated" | "kept"
    cause      "AnalyzeUSE"    no transitive use needs the upper bits
               "AnalyzeDEF"    every reaching definition is canonical
               "AnalyzeARRAY"  an array subscript was proven safe by
                               Theorems 1-4 (subset of AnalyzeUSE wins)
               "required"      a use/definition requirement survived
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

VERDICT_ELIMINATED = "eliminated"
VERDICT_KEPT = "kept"

CAUSE_USE = "AnalyzeUSE"
CAUSE_DEF = "AnalyzeDEF"
CAUSE_ARRAY = "AnalyzeARRAY"
CAUSE_REQUIRED = "required"


@dataclass
class DecisionRecord:
    """One candidate extension, one verdict, one reason chain."""

    function: str
    block: str
    instr_uid: int
    instr: str
    width: int
    verdict: str
    cause: str
    reasons: list[str] = field(default_factory=list)
    #: Section 3 theorems that fired while analyzing this candidate
    theorems: list[int] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "function": self.function,
            "block": self.block,
            "instr_uid": self.instr_uid,
            "instr": self.instr,
            "width": self.width,
            "verdict": self.verdict,
            "cause": self.cause,
            "reasons": list(self.reasons),
            "theorems": list(self.theorems),
        }


class DecisionLog:
    """Accumulates decision records across functions."""

    def __init__(self) -> None:
        self.records: list[DecisionRecord] = []

    def add(self, record: DecisionRecord) -> None:
        self.records.append(record)

    def merge(self, other: "DecisionLog") -> None:
        """Append another log's records (pool workers merge into the
        driver's log)."""
        self.records.extend(other.records)

    def eliminated(self) -> list[DecisionRecord]:
        return [r for r in self.records if r.verdict == VERDICT_ELIMINATED]

    def kept(self) -> list[DecisionRecord]:
        return [r for r in self.records if r.verdict == VERDICT_KEPT]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [record.as_dict() for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
