"""Wire protocol of the compile service: schemas in, schemas out.

One module owns every JSON shape that crosses the wire, so the server,
the load-test client, and the tests all agree byte-for-byte on what a
response looks like (docs/SERVING.md documents the schemas).  Two rules
keep responses comparable across processes and hosts:

* **responses are pure functions of repro results** — the builders
  below take :class:`~repro.api.RunResult` / ``CompileResult`` /
  profile objects and render them deterministically (sorted keys,
  stable field set), so the load-test client can compute the *expected*
  response locally with ``repro.api`` and compare for bit-identity;
* **volatile fields are segregated** — anything that legitimately
  differs between a served and a local execution (wall-clock timing,
  cache/coalescing disposition) lives under the keys named in
  :data:`VOLATILE_KEYS`, which comparators strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.config import (
    DEFAULT_ENGINE,
    DEFAULT_VARIANT,
    ENGINE_CHOICES,
    VARIANTS,
)
from ..machine import MACHINES

#: response keys that may differ between a served and a local run
VOLATILE_KEYS = frozenset({
    "cached", "coalesced", "timing_ms", "cache_key", "server", "trace_id",
})

_ENDPOINTS = ("compile", "run", "bench", "profile")

#: serving defaults; requests may lower but not raise the fuel budget
MAX_FUEL = 1_000_000_000


class ProtocolError(Exception):
    """A request the protocol rejects; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


@dataclass(frozen=True)
class ServeRequest:
    """One validated request to a ``/v1/*`` endpoint."""

    endpoint: str
    source: str | None
    workload: str | None
    variant: str
    machine: str
    engine: str
    fuel: int
    #: bench only — variant names to sweep (``None`` = baseline + full)
    variants: tuple[str, ...] | None = None

    @property
    def label(self) -> str:
        return self.workload or "request"


def _expect_str(payload: dict, key: str) -> str | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ProtocolError(f"{key!r} must be a string")
    return value


def parse_request(endpoint: str, payload: Any, *,
                  default_fuel: int = 100_000_000) -> ServeRequest:
    """Validate one JSON body into a :class:`ServeRequest`."""
    if endpoint not in _ENDPOINTS:
        raise ProtocolError(f"unknown endpoint {endpoint!r}", status=404)
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")

    source = _expect_str(payload, "source")
    workload = _expect_str(payload, "workload")
    if endpoint == "bench":
        if source is not None:
            raise ProtocolError("bench serves registry workloads only; "
                                "pass 'workload', not 'source'")
        if workload is None:
            raise ProtocolError("bench requires 'workload'")
    elif (source is None) == (workload is None):
        raise ProtocolError(
            "exactly one of 'source' (J32 text) or 'workload' "
            "(registry name) is required"
        )

    variant = _expect_str(payload, "variant") or DEFAULT_VARIANT
    if variant not in VARIANTS:
        raise ProtocolError(
            f"unknown variant {variant!r}; one of: "
            + ", ".join(sorted(VARIANTS))
        )
    machine = _expect_str(payload, "machine") or "ia64"
    if machine not in MACHINES:
        raise ProtocolError(
            f"unknown machine {machine!r}; one of: "
            + ", ".join(sorted(MACHINES))
        )
    engine = _expect_str(payload, "engine") or DEFAULT_ENGINE
    if engine not in ENGINE_CHOICES:
        raise ProtocolError(
            f"unknown engine {engine!r}; one of: " + ", ".join(ENGINE_CHOICES)
        )

    fuel = payload.get("fuel", default_fuel)
    if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel <= 0:
        raise ProtocolError("'fuel' must be a positive integer")
    if fuel > MAX_FUEL:
        raise ProtocolError(f"'fuel' exceeds the serving cap {MAX_FUEL}")

    variants: tuple[str, ...] | None = None
    if "variants" in payload:
        if endpoint != "bench":
            raise ProtocolError("'variants' is a bench-only field")
        raw = payload["variants"]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(v, str) for v in raw)):
            raise ProtocolError("'variants' must be a non-empty list of "
                                "variant names")
        unknown = [v for v in raw if v not in VARIANTS]
        if unknown:
            raise ProtocolError(f"unknown variants: {', '.join(unknown)}")
        variants = tuple(dict.fromkeys(raw))  # dedup, keep order

    return ServeRequest(
        endpoint=endpoint,
        source=source,
        workload=workload,
        variant=variant,
        machine=machine,
        engine=engine,
        fuel=fuel,
        variants=variants,
    )


def load_program(request: ServeRequest):
    """The :class:`Program` a request names; 400 on bad source/name."""
    from ..frontend import compile_source
    from ..frontend.errors import SourceError
    from ..workloads import JBYTEMARK, SPECJVM98, get_workload

    if request.workload is not None:
        if request.workload not in JBYTEMARK + SPECJVM98:
            raise ProtocolError(
                f"unknown workload {request.workload!r}; one of: "
                + ", ".join(JBYTEMARK + SPECJVM98)
            )
        return get_workload(request.workload).program()
    try:
        return compile_source(request.source, "request")
    except SourceError as exc:
        raise ProtocolError(f"source does not compile: {exc}") from exc


# -- response builders --------------------------------------------------------
#
# Builders are deterministic renderings of repro results.  The load-test
# client calls the same builders on locally computed results, strips
# VOLATILE_KEYS from both sides, and requires equality.

def compile_response(result, *, cache_key: str = "",
                     cached: bool = False) -> dict[str, Any]:
    """Render one :class:`~repro.core.pipeline.CompileResult`."""
    return {
        "static_extends": result.static_extend_count,
        "eliminated": result.total_eliminated,
        "function_stats": {
            name: {
                "candidates": stats.candidates,
                "eliminated": stats.eliminated,
            }
            for name, stats in sorted(result.function_stats.items())
        },
        "timing_ms": round(result.timing.total() * 1000, 3),
        "cache_key": cache_key,
        "cached": cached,
    }


def run_response(outcome) -> dict[str, Any]:
    """Render one :class:`~repro.api.RunResult` — the bit-identity
    contract: a served run and a local ``repro.api.run`` of the same
    request must produce equal dicts (after stripping volatile keys).
    """
    return {
        "ret_value": outcome.ret_value,
        "checksum": outcome.checksum,
        "gold_checksum": outcome.gold_checksum,
        "verified": bool(outcome.verified),
        "steps": outcome.steps,
        "extend_counts": {
            str(width): count
            for width, count in sorted(outcome.extend_counts.items())
        },
        "cycles": {
            "total": outcome.cycles.total,
            "extend_cycles": outcome.cycles.extend_cycles,
        },
        "static_extends": outcome.compile.static_extend_count,
        "eliminated": outcome.compile.total_eliminated,
    }


def bench_response(suite, workload: str) -> dict[str, Any]:
    """Render one workload's cells of a :class:`~repro.api.SuiteResult`."""
    results = suite.workload(workload)
    return {
        "workload": workload,
        "gold_checksum": results.gold_checksum,
        "cells": {
            name: {
                "dyn_extend32": cell.dyn_extend32,
                "dyn_extend16": cell.dyn_extend16,
                "dyn_extend8": cell.dyn_extend8,
                "static_extends": cell.static_extends,
                "steps": cell.steps,
                "cycles": cell.cycles.total,
                "extend_cycles": cell.cycles.extend_cycles,
            }
            for name, cell in sorted(results.cells.items())
        },
    }


def profile_response(outcome, *, top: int = 10) -> dict[str, Any]:
    """Render one :class:`~repro.api.ProfileResult` (hot-block summary)."""
    prof = outcome.profile
    document = prof.to_dict()
    hot: list[dict[str, Any]] = []
    for func in document.get("functions", []):
        for block in func.get("blocks", []):
            hot.append({
                "function": func["name"],
                "block": block["label"],
                "entries": block["entries"],
                "self_cycles": block["self_cycles"],
            })
    hot.sort(key=lambda b: (-b["self_cycles"], b["function"], b["block"]))
    return {
        "workload": prof.workload,
        "program": prof.program,
        "total_cycles": prof.total_cycles,
        "fingerprint": document.get("fingerprint", ""),
        "hot_blocks": hot[:top],
        "static_extends": outcome.compile.static_extend_count,
        "eliminated": outcome.compile.total_eliminated,
    }


def strip_volatile(document: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``document`` without the fields that may legitimately
    differ between a served and a locally computed response."""
    return {k: v for k, v in document.items() if k not in VOLATILE_KEYS}
