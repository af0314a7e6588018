"""Engine benchmark: reference vs. closure.

Times the *execution phase* of one workload's full variant grid — the
gold ideal-mode run plus every compiled (variant, machine) cell — under
both engines and writes the comparison to a JSON document
(``BENCH_interp.json`` in CI).  Compilation is done once up front and
excluded from the timings; the closure engine's translation time is
reported separately (it is paid once per program content and then
served from the shared :class:`TranslationCache`).

Methodology:

* every timing is the minimum over ``--repeat`` runs (least-noise
  estimator for a deterministic workload);
* each timed run constructs a fresh interpreter and calls ``run()``;
  for the closure engine the translation cache is pre-warmed, so
  construction cost is slot binding only — the steady state of the
  harness, which shares the cache process-wide;
* both engines execute identical programs with identical fuel and
  machine traits, and every cell's ``ExecResult`` is asserted equal
  across the two engines before its timing is recorded.

Run as::

    python -m repro.interp.benchmark --out BENCH_interp.json --repeat 3
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import time

from ..core import VARIANTS, compile_ir
from ..machine.model import IA64, PPC64
from ..workloads import get_workload
from .engine import ClosureInterpreter, Interpreter
from .profiler import collect_branch_profiles
from .translate import TranslationCache

_MACHINES = {"ia64": IA64, "ppc64": PPC64}

def _time_run(make_interpreter, program, repeat, **kwargs):
    """(per-repeat seconds, ExecResult) for ``repeat`` fresh runs."""
    times = []
    result = None
    for _ in range(repeat):
        interp = make_interpreter(program, **kwargs)
        start = time.perf_counter()
        result = interp.run()
        times.append(time.perf_counter() - start)
    return times, result


def _record_cell(recorder, *, workload, variant, engine, machine, fuel,
                 times, result, config=None, extra_phases=None):
    """Emit one perf record per repeat through the ``perf.recorder``
    hook (min-of-repeats is applied later, by the compare engine)."""
    if recorder is None:
        return
    from ..driver.fingerprint import fingerprint_config

    fingerprint = fingerprint_config(config) if config is not None else ""
    for index, seconds in enumerate(times):
        phases = {"execute": seconds}
        if extra_phases and index == 0:
            phases.update(extra_phases)
        recorder.record_cell(
            workload=workload,
            variant=variant,
            engine=engine,
            machine=machine,
            fuel=fuel,
            repeat=index,
            phases=phases,
            measures={
                "dyn_extend32": result.extend_counts.get(32, 0),
                "dyn_extend16": result.extend_counts.get(16, 0),
                "dyn_extend8": result.extend_counts.get(8, 0),
                "steps": result.steps,
            },
            config_fingerprint=fingerprint,
        )


def run_benchmark(workload_name: str = "huffman", *,
                  machine: str = "ia64",
                  fuel: int = 100_000_000,
                  repeat: int = 3,
                  recorder=None) -> dict:
    """Benchmark both engines over one workload's variant grid.

    ``recorder`` (a :class:`repro.perf.PerfRecorder`) lands every
    timed cell in the perf history — one record per repeat, plus the
    cold translation time as a ``translate`` phase on the closure
    engine's gold cell.
    """
    traits = _MACHINES[machine]
    workload = get_workload(workload_name)
    program = workload.program()
    profiles = collect_branch_profiles(program, fuel=fuel)

    compiled = {
        name: compile_ir(program, config.with_traits(traits), profiles)
        for name, config in VARIANTS.items()
    }

    closure = functools.partial(ClosureInterpreter,
                                translation_cache=TranslationCache())
    # Pre-warm: translate every program once so the timed closure runs
    # measure steady-state execution, as the harness sees it.
    translate_start = time.perf_counter()
    closure(program, mode="ideal", fuel=fuel)
    for cell in compiled.values():
        closure(cell.program, traits=traits, fuel=fuel)
    translate_seconds = time.perf_counter() - translate_start

    # ``reference`` first: it is the baseline the speedup is computed
    # against.
    make = {"reference": Interpreter, "closure": closure}
    cold_phase = {"closure": {"translate": translate_seconds}}
    engines: dict[str, dict] = {}
    results: dict[str, dict] = {}
    for engine, make_interpreter in make.items():
        gold_times, gold = _time_run(make_interpreter, program, repeat,
                                     mode="ideal", fuel=fuel)
        _record_cell(recorder, workload=workload_name, variant="gold",
                     engine=engine, machine=machine, fuel=fuel,
                     times=gold_times, result=gold,
                     extra_phases=cold_phase.get(engine))
        cells = {}
        cell_results = {}
        for name, cell in compiled.items():
            times, result = _time_run(make_interpreter, cell.program,
                                      repeat, traits=traits, fuel=fuel)
            _record_cell(recorder, workload=workload_name, variant=name,
                         engine=engine, machine=machine, fuel=fuel,
                         times=times, result=result,
                         config=VARIANTS[name].with_traits(traits))
            cells[name] = min(times)
            cell_results[name] = result
        engines[engine] = {
            "gold_seconds": min(gold_times),
            "cell_seconds": cells,
            "total_seconds": min(gold_times) + sum(cells.values()),
        }
        results[engine] = {"gold": gold, **cell_results}

    for key, reference_result in results["reference"].items():
        assert results["closure"][key] == reference_result, (
            f"engine parity violated in cell {key!r}"
        )

    reference_total = engines["reference"]["total_seconds"]
    closure_total = engines["closure"]["total_seconds"]
    return {
        "benchmark": "interpreter-engine-comparison",
        "workload": workload_name,
        "machine": machine,
        "variants": len(compiled),
        "fuel": fuel,
        "repeat": repeat,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "steps": {key: result.steps
                  for key, result in results["reference"].items()},
        "engines": engines,
        "translate_seconds_cold": translate_seconds,
        "speedup": reference_total / closure_total,
        "parity": "all cells bit-identical across both engines",
        "methodology": [
            "execution phase only: compilation excluded, one gold "
            "ideal-mode run plus every compiled machine-mode variant "
            "cell",
            f"each timing is the minimum of {repeat} fresh "
            "interpreter runs (min-of-repeats)",
            "closure translation pre-warmed through the shared cache "
            "and reported separately as translate_seconds_cold",
            "ExecResult equality asserted across both engines "
            "for every timed cell before recording",
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.interp.benchmark",
        description="Compare the reference and closure engines.",
    )
    parser.add_argument("--workload", default="huffman")
    parser.add_argument("--machine", default="ia64",
                        choices=sorted(_MACHINES))
    parser.add_argument("--fuel", type=int, default=100_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default=None,
                        help="write the JSON document here (default stdout)")
    parser.add_argument("--perf-dir", default=None, metavar="DIR",
                        help="also append every timed cell to the perf "
                             "history at DIR (default: $REPRO_PERF_DIR "
                             "if set)")
    args = parser.parse_args(argv)

    from ..perf import PerfRecorder, recorder_from_env

    if args.perf_dir:
        recorder = PerfRecorder(args.perf_dir, source="engine-bench")
    else:
        recorder = recorder_from_env("engine-bench")
    document = run_benchmark(args.workload, machine=args.machine,
                             fuel=args.fuel, repeat=args.repeat,
                             recorder=recorder)
    if recorder is not None:
        print(f"[{recorder.recorded} perf records appended to "
              f"{recorder.store.path}]")
    text = json.dumps(document, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        reference = document["engines"]["reference"]["total_seconds"]
        closure = document["engines"]["closure"]["total_seconds"]
        print(f"{args.workload}/{args.machine}: reference "
              f"{reference:.3f}s, closure {closure:.3f}s — closure "
              f"{document['speedup']:.2f}x -> {args.out}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
