"""The one hook every benchmark producer emits perf records through.

The harness (:func:`repro.harness.measure_workload`, which ``repro perf
record`` drives for every grid cell, engine comparisons included), the
paper-figure suites (``benchmarks/conftest.py``), and the load tester
all take an optional :class:`PerfRecorder`; when present, every bench cell lands in
the recorder's :class:`~repro.perf.store.HistoryStore` as one
:class:`~repro.perf.record.RunRecord`.  One hook means one timeseries:
a paper-table regeneration and a CI gate run are directly comparable
rows of the same history.

The recorder computes the per-run provenance once — host fingerprint,
python/platform, git revision, a fresh ``run_id`` grouping the batch —
so producers only supply what they measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

from .record import RunRecord
from .store import HistoryStore

#: environment variable that opts external producers (the pytest
#: benchmark suites) into recording without new plumbing
PERF_DIR_ENV = "REPRO_PERF_DIR"


def host_fingerprint() -> dict[str, str]:
    """Stable identity of the measuring host.

    Wall-clock comparisons are only meaningful between records whose
    ``host_id`` matches; the id hashes the stable hardware/OS facts and
    deliberately excludes the python version (a python upgrade changes
    performance — that is a *finding*, not a pairing failure — so it is
    recorded separately and shown in reports).
    """
    node = platform.node()
    identity = "\x00".join((node, platform.machine(), platform.system()))
    host_id = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_id": host_id,
    }


def current_git_rev(root: str | Path | None = None) -> str:
    """The checked-out revision, or ``"unknown"`` outside a checkout."""
    env = os.environ.get("REPRO_GIT_REV")
    if env:
        return env
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def _new_run_id() -> str:
    return f"{time.time_ns():x}-{os.getpid():x}"


class PerfRecorder:
    """Builds and appends :class:`RunRecord` rows for one run batch."""

    def __init__(
        self,
        store: HistoryStore | str | Path | None = None,
        *,
        source: str = "cli",
        run_id: str | None = None,
        git_rev: str | None = None,
    ) -> None:
        if store is None or isinstance(store, (str, Path)):
            store = HistoryStore(store)
        self.store = store
        self.source = source
        self.run_id = run_id if run_id is not None else _new_run_id()
        self.host = host_fingerprint()
        self.git_rev = git_rev if git_rev is not None else current_git_rev()
        self.recorded = 0
        self.deduplicated = 0

    def record_cell(
        self,
        *,
        workload: str,
        variant: str,
        engine: str,
        machine: str,
        fuel: int,
        repeat: int = 0,
        phases: dict[str, float] | None = None,
        measures: dict[str, float] | None = None,
        counters: dict[str, int] | None = None,
        config_fingerprint: str = "",
    ) -> RunRecord:
        """Build one record from a producer's measurements and persist
        it; returns the record (already content-addressed)."""
        from .. import __version__

        record = RunRecord(
            workload=workload,
            variant=variant,
            engine=engine,
            machine=machine,
            source=self.source,
            fuel=fuel,
            repeat=repeat,
            phases=dict(phases or {}),
            measures=dict(measures or {}),
            counters=dict(counters or {}),
            host=dict(self.host),
            config_fingerprint=config_fingerprint,
            git_rev=self.git_rev,
            package_version=__version__,
            run_id=self.run_id,
            created=time.time(),
        )
        if self.store.append(record):
            self.recorded += 1
        else:
            self.deduplicated += 1
        return record


def recorder_from_env(source: str) -> PerfRecorder | None:
    """A recorder writing to ``$REPRO_PERF_DIR``, if set."""
    directory = os.environ.get(PERF_DIR_ENV)
    if not directory:
        return None
    return PerfRecorder(HistoryStore(directory), source=source)
