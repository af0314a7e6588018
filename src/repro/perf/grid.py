"""``repro perf record``: run a fixed bench grid into the history.

A *recording run* executes a small, fixed (workload x variant x engine)
grid ``repeat`` times through the normal harness path —
:func:`repro.harness.measure_workload`, batch driver, soundness check
and all — with a :class:`~repro.perf.recorder.PerfRecorder` attached,
so every cell lands in the history as ``repeat`` records sharing one
``run_id``.  Min-of-repeats happens later, in the compare engine;
recording keeps the raw observations.

The default grid is deliberately small (two paper variants): the point
of a gate is a stable signal run on every PR, not a full Table 1
regeneration — ``--all-variants`` widens it when a PR touches
elimination behaviour itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core import VARIANTS
from ..core.config import DEFAULT_ENGINE, CompileOptions
from .recorder import PerfRecorder

#: the fixed gate grid's variants: the two ends of the paper's tables
DEFAULT_RECORD_VARIANTS = ("baseline", "new algorithm (all)")

#: the fixed gate grid's workloads: one cheap, one hot-path heavy
DEFAULT_RECORD_WORKLOADS = ("fourier", "huffman")


def record_grid(
    workloads: Sequence[str] = DEFAULT_RECORD_WORKLOADS,
    *,
    engines: Iterable[str] = (DEFAULT_ENGINE,),
    variants: Sequence[str] | None = None,
    options: CompileOptions | None = None,
    repeat: int = 3,
    recorder: PerfRecorder,
) -> dict[str, Any]:
    """Run the grid, recording every cell; returns append counts and,
    under ``driver_stats``, the driver's counters."""
    from ..api import driver_from_options
    from ..workloads import get_workload

    options = options if options is not None else CompileOptions()
    engines = tuple(engines)
    variant_names = tuple(variants) if variants else DEFAULT_RECORD_VARIANTS
    for name in variant_names:
        if name not in VARIANTS:
            raise ValueError(f"unknown variant: {name!r}")
    variant_map = {name: VARIANTS[name] for name in variant_names}
    resolved = [get_workload(name) for name in workloads]

    from ..harness import measure_workload

    with driver_from_options(options) as driver:
        for engine in engines:
            for repeat_index in range(repeat):
                for workload in resolved:
                    measure_workload(
                        workload,
                        variant_map,
                        traits=options.traits(),
                        fuel=options.fuel,
                        driver=driver,
                        engine=engine,
                        recorder=recorder,
                        repeat_index=repeat_index,
                    )
        driver_stats = driver.stats()
    return {
        "recorded": recorder.recorded,
        "deduplicated": recorder.deduplicated,
        "cells": len(resolved) * len(variant_map) * len(engines),
        "repeat": repeat,
        "driver_stats": driver_stats,
    }
