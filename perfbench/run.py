"""The repository benchmark: one workload per run, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the five end-to-end metrics, with times scaled to
a reference host by speed probes taken next to the work and the CPU
time the host stole meanwhile (speed.py); the times as measured are
printed too.  ``--trace 1`` runs
a fixed number of ops untraced, then the same ops again with every
layer's public entry point timed, and reports the per-layer metrics.
Informational lines (work identity, provenance, host interference, the
per-layer table) come first; the last line of standard output is the
JSON result.  perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run measures at least this many ops, so that ten of them lie above
#: the 90th percentile.
MIN_OPS = 100
#: An op is scaled over the ops up to this many places away (speed.py).
RADIUS = 4

END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
              "peak_rss_mb")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MiB"}


def per_layer_spec() -> list[dict]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["per_layer"]


# -- host and process facts ----------------------------------------------------

def host_sample() -> dict:
    """Load average plus cumulative iowait and steal ticks, for explaining
    an outlier afterwards; nothing is gated on them."""
    sample: dict = {}
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            sample["loadavg"] = [float(x) for x in handle.read().split()[:3]]
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        sample["iowait_ticks"] = int(fields[5])
        sample["steal_ticks"] = int(fields[8])
    except (OSError, IndexError, ValueError):
        sample["unavailable"] = True
    return sample


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Restart the VmHWM high-water mark so it covers only what follows."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def sha256_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


# -- the measured loop ---------------------------------------------------------

class LoopResult:
    """What one measured pass did: op latencies and speed scales by op
    index, failures by op index, and the window the ops ran in, as
    measured and scaled (speed.py)."""

    def __init__(self) -> None:
        self.latency: dict[int, float] = {}  # seconds
        self.factor: dict[int, float] = {}
        self.failures: dict[int, str] = {}
        self.window = 0.0
        self.scaled_window = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def fail(self, index: int, problem: str) -> None:
        self.failures.setdefault(index, problem)

    def good_latencies(self, *, scaled: bool = False) -> list[float]:
        return [v * (self.factor[k] if scaled else 1.0)
                for k, v in sorted(self.latency.items())
                if k not in self.failures]

    def ops_per_s(self, *, scaled: bool = False) -> float:
        window = self.scaled_window if scaled else self.window
        return len(self.good_latencies()) / window


def closed_loop(workload, *, seconds: float | None = None,
                ops: int | None = None, recorder=None,
                pause_at=(), pause=None) -> LoopResult:
    """One op in flight at a time, in the workload's seeded order.

    Runs ``ops`` ops, or until ``seconds`` of op time have passed, at
    least :data:`MIN_OPS` ops are done and the last round of
    ``workload.ROUND`` ops is complete, so every program carries equal
    weight.  The window clock counts op time only: a speed probe before
    each op, the output check after it, and ``pause()`` once the window
    passes each time in ``pause_at``, run with the clock stopped.
    """
    result = LoopResult()
    pauses = sorted(pause_at)
    readings = []  # before each op, and one after the last
    ends = []  # CPU tick counters just after each op
    index = 0
    while True:
        if pauses and result.window >= pauses[0]:
            pauses.pop(0)
            pause()
        if ops is not None:
            if index >= ops:
                break
        elif (result.window >= seconds and index >= MIN_OPS
              and index % workload.ROUND == 0):
            break
        readings.append(speed.reading(workload.probe()))
        start = time.perf_counter()
        try:
            if recorder is None:
                outcome = workload.op(index)
            else:
                recorder.set_op(str(index))
                try:
                    outcome = recorder.timed("op", workload.op, index)
                finally:
                    recorder.set_op(None)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            outcome = exc
        elapsed = time.perf_counter() - start
        ends.append(speed.ticks())
        result.window += elapsed
        result.latency[index] = elapsed
        problem = (f"{type(outcome).__name__}: {outcome}"
                   if isinstance(outcome, Exception)
                   else workload.check(index, outcome))
        if problem:
            result.fail(index, problem)
        index += 1
    readings.append(speed.reading(workload.probe()))
    for index, scale in enumerate(speed.factors(readings, ends, RADIUS)):
        result.factor[index] = scale
        result.scaled_window += result.latency[index] * scale
    return result


def end_to_end_metrics(setups: list[float], loop: LoopResult, rss_mb: float,
                       *, scaled: bool = True) -> dict:
    lat_ms = [x * 1000.0 for x in loop.good_latencies(scaled=scaled)]
    if len(lat_ms) < 2:  # nearly every op failed: the run is not correct
        lat_ms = [0.0, 0.0]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": loop.ops_per_s(scaled=scaled),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": percentile(lat_ms, 90),
        "peak_rss_mb": rss_mb,
    }


# -- per-layer report ----------------------------------------------------------

def layer_metrics(per_op: dict[int, dict[str, float]],
                  extra: dict[str, float]) -> tuple[dict, list]:
    """Per-op means (ms) of each layer's self time and of ``other``, the
    op time no layer accounts for, plus the ops whose ``other`` is below
    -1 us: layer spans that overlap or are counted twice."""
    n = len(per_op)
    names = sorted({k for op in per_op.values() for k in op})
    values = {f"{layer}.ms": 1000.0 * sum(op.get(layer, 0.0)
                                          for op in per_op.values()) / n
              for layer in names}
    negative = [(index, op["other"]) for index, op in sorted(per_op.items())
                if op.get("other", 0.0) < -1e-6]
    values.update(extra)
    return values, negative


def print_layer_table(values: dict, reached: set[str]) -> None:
    print("per-layer (self time per op unless a count or ratio):")
    for spec in per_layer_spec():
        name = spec["name"]
        layer = name[:-3] if name.endswith(".ms") else name
        shown = f"{values.get(name, 0.0):12.4f} {spec['unit']}"
        if name.endswith(".ms") and name != "other.ms" \
                and layer not in reached:
            shown = "           - (not reached)"
        print(f"  {name:28s} {shown}")


def layer_result(values: dict) -> dict:
    metrics = {}
    for spec in per_layer_spec():
        value = values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return metrics


# -- entry point ---------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-cold", "run-warm", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import repro
    from repro.core.config import CompileOptions

    import workloads

    work_dir = ROOT / ".perfbench"
    scratch = work_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    import_s = time.perf_counter() - process_start
    host_before = host_sample()
    try:
        workload = workloads.make(args.workload, args.seed, scratch)
        if args.trace:
            report = workloads.traced_run(workload, work_dir)
        else:
            report = workloads.timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work_dir.rmdir()  # only when no span files were kept
        except OSError:
            pass
    host_after = host_sample()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "plan_sha256": workload.plan_sha256(),
        "done_sha256": workload.done_sha256(report["ops_done"]),
        "ops_done": report["ops_done"],
        "version": repro.__version__,
        "default_engine": CompileOptions().engine,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "import_s": round(import_s, 4),
    }
    provenance.update(report.get("provenance", {}))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("host " + json.dumps({"before": host_before, "after": host_after},
                               sort_keys=True))
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = layer_result(report["metrics"])
    else:
        metrics = {name: {"value": float(report["metrics"][name]),
                          "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END}
        print(f"{'':12s} {'scaled':>12s} {'measured':>12s}")
        for name in END_TO_END:
            print(f"{name:12s} {report['metrics'][name]:12.4f} "
                  f"{report['measured'][name]:12.4f} "
                  f"{END_TO_END_UNITS[name]}")
        print(f"ops attempted {report['attempted']}, "
              f"failed {len(report['failures'])}")
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
