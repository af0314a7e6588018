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
* **one decoder** — every line goes through
  :meth:`~repro.perf.record.RunRecord.from_dict`, which checks each
  field (type, non-negative phase durations, and a ``schema_version``
  equal to the one this code writes);
* **corruption tolerance** — a truncated or garbled line, or one the
  decoder rejects, is skipped, never fatal: a perf history must not be
  able to break the benchmarks that feed it.

``perf/baseline.jsonl`` in the repository root is the same format with
no directory wrapper — :func:`load_jsonl` reads either.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable

from ..driver.cache import default_cache_dir
from .record import RunRecord

HISTORY_FILENAME = "history.jsonl"


def default_history_dir() -> Path:
    """``<cache dir>/perf-history`` — ``~/.cache/repro/perf-history``."""
    return default_cache_dir() / "perf-history"


# -- reading ------------------------------------------------------------------

def load_jsonl(path: str | Path) -> list[RunRecord]:
    """Every readable record in one JSONL file, in file order.

    A line that is not JSON (or nests too deep to parse), or that
    :meth:`RunRecord.from_dict` rejects, is skipped — the history must
    never be able to fail a benchmark run.
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
                records.append(RunRecord.from_dict(json.loads(line)))
            except (ValueError, RecursionError):  # not JSON, or rejected
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

    def _runs(self) -> dict[str, list[RunRecord]]:
        """Records by run id, runs oldest first (by first appearance),
        from one read of the history."""
        runs: dict[str, list[RunRecord]] = {}
        for record in self.records():
            if record.run_id:
                runs.setdefault(record.run_id, []).append(record)
        return runs

    def run_ids(self) -> list[str]:
        """Distinct run ids, oldest first (by first appearance)."""
        return list(self._runs())

    def records_for_run(self, run_id: str) -> list[RunRecord]:
        return [r for r in self.records() if r.run_id == run_id]

    def latest_runs(self, count: int = 2) -> list[list[RunRecord]]:
        """The newest ``count`` record batches, newest first."""
        newest_first = list(self._runs().values())[::-1]
        return newest_first[:count] if count else newest_first

    def __len__(self) -> int:
        return len(self._known_ids())
