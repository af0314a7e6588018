"""Append-only JSONL history of :class:`~repro.perf.record.RunRecord`.

The store is a directory holding one ``history.jsonl`` — one JSON
object per line, append-only, so concurrent producers can only ever
interleave whole lines (each append is a single ``write`` of one
``\\n``-terminated line opened in append mode).  Three properties the
rest of the perf subsystem relies on:

* **content-addressed dedup** — every record's ``record_id`` digest is
  tracked; appending an already-present record is a no-op, so
  re-importing a baseline file or replaying a CI artifact never
  inflates the history;
* **schema-version gate** — a record whose ``schema_version`` is not
  the current one (a newer schema than this code understands, or none
  at all) is skipped rather than misread;
* **corruption tolerance** — a truncated or garbled line is skipped
  (and counted), never fatal: a perf history must not be able to break
  the benchmarks that feed it.

``perf/baseline.jsonl`` in the repository root is the same format with
no directory wrapper — :func:`load_jsonl` reads either.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable

from ..driver.cache import default_cache_dir
from .record import SCHEMA_VERSION, RunRecord

HISTORY_FILENAME = "history.jsonl"


def default_history_dir() -> Path:
    """``<cache dir>/perf-history`` — ``~/.cache/repro/perf-history``."""
    return default_cache_dir() / "perf-history"


# -- schema version -----------------------------------------------------------

def migrate_record(document: dict[str, Any]) -> dict[str, Any] | None:
    """The record document, if this code can read its schema.

    Every record ever written is at the current ``SCHEMA_VERSION``, so
    there is nothing to upgrade.  Returns ``None`` for documents newer
    than this code (a downgraded checkout must not misread them) or
    with no usable version.
    """
    if not isinstance(document, dict):
        return None
    if document.get("schema_version") != SCHEMA_VERSION:
        return None
    return document


# -- reading ------------------------------------------------------------------

def load_jsonl(path: str | Path) -> list[RunRecord]:
    """Every readable record in one JSONL file, in file order.

    Unparseable lines and unmigratable documents are skipped — the
    history must never be able to fail a benchmark run.
    """
    path = Path(path)
    if not path.is_file():
        return []
    records: list[RunRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError:
                continue
            document = migrate_record(document)
            if document is None:
                continue
            try:
                records.append(RunRecord.from_dict(document))
            except (TypeError, ValueError):
                continue
    return records


class HistoryStore:
    """Append-only, deduplicated record store under one directory."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else default_history_dir())
        self._seen: set[str] | None = None

    @property
    def path(self) -> Path:
        return self.directory / HISTORY_FILENAME

    # -- internal -------------------------------------------------------------

    def _known_ids(self) -> set[str]:
        if self._seen is None:
            self._seen = {r.record_id for r in load_jsonl(self.path)}
        return self._seen

    # -- writing --------------------------------------------------------------

    def append(self, record: RunRecord) -> bool:
        """Persist one record; ``False`` if its content is already
        stored (dedup by ``record_id``)."""
        record_id = record.record_id
        if record_id in self._known_ids():
            return False
        if not record.created:
            record.created = time.time()
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
        self._known_ids().add(record_id)
        return True

    def extend(self, records: Iterable[RunRecord]) -> int:
        """Append many; returns how many were new."""
        return sum(1 for record in records if self.append(record))

    # -- reading --------------------------------------------------------------

    def records(self) -> list[RunRecord]:
        return load_jsonl(self.path)

    def run_ids(self) -> list[str]:
        """Distinct run ids, oldest first (by first appearance)."""
        seen: dict[str, None] = {}
        for record in self.records():
            if record.run_id and record.run_id not in seen:
                seen[record.run_id] = None
        return list(seen)

    def records_for_run(self, run_id: str) -> list[RunRecord]:
        return [r for r in self.records() if r.run_id == run_id]

    def latest_runs(self, count: int = 2) -> list[list[RunRecord]]:
        """The newest ``count`` record batches, newest first."""
        ids = self.run_ids()
        batches = []
        for run_id in reversed(ids[-count:] if count else ids):
            batches.append(self.records_for_run(run_id))
        return batches

    def __len__(self) -> int:
        return len(self._known_ids())
