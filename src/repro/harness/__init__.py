"""Experiment harness: regenerate the paper's tables and figures."""

from .claims import Verdict, check_claims, format_claims
from .export import export_json, results_to_dict, strip_volatile
from .figures import format_percent_figure, format_performance_figure
from .runner import (
    CellResult,
    SoundnessError,
    WorkloadResults,
    measure_workload,
    run_suite,
)
from .tables import ROW_ORDER, format_dynamic_count_table, format_timing_table

__all__ = [
    "CellResult",
    "ROW_ORDER",
    "SoundnessError",
    "Verdict",
    "WorkloadResults",
    "check_claims",
    "export_json",
    "format_dynamic_count_table",
    "format_percent_figure",
    "format_performance_figure",
    "format_claims",
    "format_timing_table",
    "measure_workload",
    "results_to_dict",
    "run_suite",
    "strip_volatile",
]
