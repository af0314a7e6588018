"""The perf timeseries record: one benchmark cell, one schema'd row.

Every benchmark execution in the repo — a harness grid cell (engine
comparisons are ``repro perf record --engines reference closure``), a
paper-figure suite run in ``benchmarks/`` — lands in the same
append-only history as one :class:`RunRecord`.  A record
captures everything needed to compare it against any other run of the
same cell:

* the **cell key** ``(workload, machine, variant, engine)`` — what was
  measured;
* **per-phase wall times** (the compile buckets of
  :class:`~repro.opt.pass_manager.Timing` plus the ``execute`` phase;
  older histories may also carry a ``translate`` phase);
* **deterministic measures** (dynamic extension counts per width,
  static extensions, interpreter steps, modelled cycles) — these are
  pure functions of the code and must reproduce exactly on any host;
* **counter families** from the telemetry metrics registry
  (``driver.cache.*``, ``translate.*``, ``runtime.engine.*``,
  ``signext.*`` elimination decisions per theorem) when the producer
  collected them;
* **provenance**: host fingerprint, python/platform, the
  config fingerprint from :mod:`repro.driver.fingerprint`, git
  revision, and package version.

Records are content-addressed (:attr:`RunRecord.record_id`): the digest
covers every field except bookkeeping (``created``, ``run_id``), so the
history store can deduplicate replayed imports without ever comparing
floats for "close enough".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, NamedTuple

from ..decode import DocumentError, Fields

SCHEMA_VERSION = 1

#: Measures that are deterministic functions of (program, config,
#: fuel) — compared exactly across hosts by the compare engine.
DETERMINISTIC_MEASURES = (
    "dyn_extend32",
    "dyn_extend16",
    "dyn_extend8",
    "static_extends",
    "steps",
)


class CellKey(NamedTuple):
    """The pairing key the compare engine joins records on."""

    workload: str
    machine: str
    variant: str
    engine: str

    def label(self) -> str:
        return f"{self.workload}/{self.machine}/{self.variant}/{self.engine}"


@dataclass
class RunRecord:
    """One benchmark cell measurement (see module docstring)."""

    workload: str
    variant: str
    engine: str
    #: target machine model (``ia64``/``ppc64``) — not the host
    machine: str
    #: which producer emitted this record (``cli``, ``benchmarks``,
    #: ``loadtest``, ...)
    source: str
    fuel: int
    #: repeat index within one recording run; min-of-repeats happens at
    #: compare time across records sharing (run_id, key)
    repeat: int = 0
    #: seconds per phase: the Timing buckets (``sign_ext``, ``chains``,
    #: ``others``) plus ``execute`` (older records: also ``translate``)
    phases: dict[str, float] = field(default_factory=dict)
    #: deterministic measures (see DETERMINISTIC_MEASURES) + floats
    #: such as ``cycles``/``extend_cycles``
    measures: dict[str, float] = field(default_factory=dict)
    #: flattened telemetry counter series, when collected
    counters: dict[str, int] = field(default_factory=dict)
    #: ``{"python": ..., "platform": ..., "host_id": ...}``
    host: dict[str, str] = field(default_factory=dict)
    config_fingerprint: str = ""
    git_rev: str = ""
    package_version: str = ""
    #: groups the records appended by one recording invocation
    run_id: str = ""
    created: float = 0.0
    schema_version: int = SCHEMA_VERSION

    # -- identity -------------------------------------------------------------

    def key(self) -> CellKey:
        return CellKey(self.workload, self.machine, self.variant,
                       self.engine)

    @property
    def host_id(self) -> str:
        return self.host.get("host_id", "")

    @property
    def record_id(self) -> str:
        """Content address over everything except bookkeeping fields."""
        payload = asdict(self)
        payload.pop("created", None)
        payload.pop("run_id", None)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        document = asdict(self)
        document["record_id"] = self.record_id
        return document

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "RunRecord":
        """Decode one record: its schema version, every field's type and
        non-negative phases; raises :class:`DocumentError`."""
        read = Fields(document, "run record", schema_version=SCHEMA_VERSION)
        phases = read.map("phases", float, {})
        for name, seconds in phases.items():
            if seconds < 0:
                raise DocumentError(f"run record phase {name!r} has "
                                    f"negative duration {seconds!r}")
        return cls(
            **{key: read(key, str) for key in CellKey._fields},
            source=read("source", str, "unknown"),
            fuel=read("fuel", int, 0),
            repeat=read("repeat", int, 0),
            phases=phases,
            measures=read.map("measures", float, {}),
            counters=read.map("counters", int, {}),
            host=read.map("host", str, {}),
            **{key: read(key, str, "") for key in (
                "config_fingerprint", "git_rev", "package_version", "run_id")},
            created=read("created", float, 0.0),
        )
