"""Performance observatory: benchmark history, regression gate, dashboard.

The perf subsystem makes every benchmark number in this repo a row in
an append-only timeseries instead of a write-once snapshot:

* :mod:`~repro.perf.record` — the :class:`RunRecord` schema: one bench
  cell with per-phase wall times, deterministic measures, counter
  families, and full provenance (host, config fingerprint, git rev);
* :mod:`~repro.perf.store` — the JSONL :class:`HistoryStore` with
  content-addressed dedup and a schema-version gate;
* :mod:`~repro.perf.compare` — the statistical compare engine:
  min-of-repeats, MAD noise floor, exact comparison of deterministic
  counts, machine-readable ``improved``/``regressed``/``neutral``
  verdicts;
* :mod:`~repro.perf.recorder` — the single hook (``PerfRecorder``)
  through which the harness (and so ``repro perf record``), the
  paper-figure suites, and the load tester all emit records;
* :mod:`~repro.perf.report` — the self-contained single-file HTML
  dashboard and the terminal summary;
* :mod:`~repro.perf.grid` — the fixed recording grid behind
  ``repro perf record`` and the CI ``perf-gate`` job.

See docs/PERF.md for the schema, the noise model, and the baseline
workflow.
"""

from .compare import (
    CompareReport,
    compare_records,
    format_compare,
    parse_threshold,
    scaled_mad,
)
from .grid import (
    DEFAULT_RECORD_VARIANTS,
    DEFAULT_RECORD_WORKLOADS,
    record_grid,
)
from .record import SCHEMA_VERSION, CellKey, RunRecord, validate_record
from .recorder import (
    PERF_DIR_ENV,
    PerfRecorder,
    current_git_rev,
    host_fingerprint,
    recorder_from_env,
)
from .report import format_history_summary, render_html
from .store import (
    HistoryStore,
    default_history_dir,
    load_jsonl,
    migrate_record,
)

__all__ = [
    "CellKey",
    "CompareReport",
    "DEFAULT_RECORD_VARIANTS",
    "DEFAULT_RECORD_WORKLOADS",
    "HistoryStore",
    "PERF_DIR_ENV",
    "PerfRecorder",
    "RunRecord",
    "SCHEMA_VERSION",
    "compare_records",
    "current_git_rev",
    "default_history_dir",
    "format_compare",
    "format_history_summary",
    "host_fingerprint",
    "load_jsonl",
    "migrate_record",
    "parse_threshold",
    "record_grid",
    "recorder_from_env",
    "render_html",
    "scaled_mad",
    "validate_record",
]
