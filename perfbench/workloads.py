"""The three workloads and the two kinds of run (timed, traced).

Each workload fixes its op sequence from the seed, so a run and its
traced twin perform the same ops in the same order.  A workload object
provides ``setup_steps`` (the steps of one set-up), ``set_up_again``
(one more identical set-up, timed; ``SETUPS`` of them per run, spread
through the window, and their median is ``setup_s``), ``probe`` (speed
probes for the work's CPUs, see speed.py), ``measure`` (one measured
pass), ``check_after`` (output checks that cost CPU, after the window)
and the hooks the traced report needs.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import statistics
import time
from pathlib import Path

import run as bench
import speed
from layers import Recorder, by_op, self_times

EXPECTED = Path(__file__).resolve().parent / "expected.json"
MACHINE_NAMES = ("ia64", "ppc64")


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN here


def output_problem(want: dict, ret_value, checksum) -> str:
    if not same(ret_value, want["ret_value"]) or checksum != want["checksum"]:
        return (f"output (ret {ret_value!r}, checksum {checksum}) differs "
                f"from expected (ret {want['ret_value']!r}, checksum "
                f"{want['checksum']})")
    return ""


def paper_sources() -> dict[str, str]:
    from repro.workloads import all_workloads

    return {w.name: w.source for w in all_workloads()}


def interp_cache_stats() -> dict[str, float]:
    """Hits and misses of the process-wide translation caches."""
    import repro.interp as interp

    stats: dict[str, float] = {}
    for name, factory in (("translate", "default_translation_cache"),
                          ("codegen", "default_codegen_cache")):
        cache = getattr(interp, factory, None)
        if cache is not None:
            stats[f"interp.{name}.hits"] = cache().hits
            stats[f"interp.{name}.misses"] = cache().misses
    return stats


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def clear_interp_caches() -> None:
    import repro.interp as interp

    for factory in ("default_translation_cache", "default_codegen_cache"):
        cache = getattr(interp, factory, None)
        if cache is not None:
            cache().clear()


class InProcess:
    """Shared by the two workloads that call ``repro`` in this process."""

    #: set-ups per timed run: one before the window, one after it, the
    #: rest spread evenly through it
    SETUPS = 3
    #: ops per round: each round runs every paper program once
    ROUND = 17
    #: ops in each pass of a traced run
    TRACE_OPS = 6 * ROUND

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.expected = load_expected()
        self.sources = paper_sources()

    def setup_steps(self) -> list:
        """Each set-up starts from empty process-wide translation caches,
        so repeats do equal work."""
        return [clear_interp_caches]

    def set_up_again(self) -> tuple[float, float]:
        self.discard_setup()
        return timed_set_up(self)

    def probe(self) -> list[float]:
        """The ops run in this thread: probe it."""
        return [speed.probe()]

    def measure(self, *, seconds=None, ops=None, recorder=None,
                pause_at=(), pause=None):
        return bench.closed_loop(self, seconds=seconds, ops=ops,
                                 recorder=recorder, pause_at=pause_at,
                                 pause=pause)

    def plan_sha256(self) -> str:
        return self.done_sha256(len(self.sequence))

    def done_sha256(self, ops_done: int) -> str:
        return bench.sha256_lines(self.op_name(i) for i in range(ops_done))

    def reset_peak(self) -> None:
        bench.reset_peak_rss()

    def peak_rss(self) -> float:
        return bench.peak_rss_mb()

    def check_after(self, loop) -> None:
        pass

    def rewind(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cache_entry_kb(self) -> float:
        return 0.0

    def layer_values(self, recorder, traced, setup_rec, cache_delta):
        """Per-layer metrics of a pass whose ops ran in this process."""
        table = by_op(recorder.spans)
        op_seconds = {span[4]: span[2] - span[1] for span in recorder.spans
                      if span is not None and span[0] == "op"}
        per_op = {}
        for index in sorted(traced.latency):
            parts = dict(table.get(str(index), {}))
            parts.pop("op", None)
            parts["other"] = op_seconds[str(index)] - sum(parts.values())
            per_op[index] = parts
        counts = recorder.counts
        execute_s = sum(s[2] - s[1] for s in recorder.spans
                        if s is not None and s[0] == "interp.execute")
        profile_s = sum(own for span, own in zip(setup_rec.spans,
                                                 self_times(setup_rec.spans))
                        if span is not None and span[0] == "interp.profile")
        extra = layer_counts(counts, execute_s, cache_delta)
        extra["interp.profile.ms"] = 1000.0 * profile_s
        extra["driver.cache.entry_kb"] = self.cache_entry_kb()
        values, negative = bench.layer_metrics(per_op, extra)
        reached = {s[0] for s in recorder.spans if s is not None}
        if profile_s:
            reached.add("interp.profile")
        return values, reached, negative, []


class CompileCold(InProcess):
    """Compile only, no cache: every op is the whole compiler."""

    NAME = "compile-cold"
    SETUPS = 5

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.core.config import VARIANTS

        # A seeded permutation of all 408 cells, stratified so that each
        # round of 17 ops compiles every program once.
        rng = random.Random(f"compile-cold:{seed}")
        configs = [(variant, machine) for variant in VARIANTS
                   for machine in MACHINE_NAMES]
        names = sorted(self.sources)
        orders = {name: rng.sample(configs, len(configs)) for name in names}
        self.sequence = []
        for round_index in range(len(configs)):
            for name in rng.sample(names, len(names)):
                self.sequence.append((name,) + orders[name][round_index])
        # A seeded sample of ops whose compiled program is executed
        # after the window and checked against the expected output.
        self.sampled = set(random.Random(f"compile-cold-sample:{seed}")
                           .sample(range(4 * bench.MIN_OPS), 12))
        self.kept: dict[int, object] = {}
        self.profiles: dict = {}

    def op_name(self, index: int) -> str:
        return "|".join(self.sequence[index % len(self.sequence)])

    def setup_steps(self) -> list:
        from repro.interp import collect_branch_profiles
        from repro.workloads import get_workload

        def profile(name: str) -> None:
            self.profiles[name] = collect_branch_profiles(
                get_workload(name).program())

        return super().setup_steps() + [
            functools.partial(profile, name) for name in sorted(self.sources)]

    def discard_setup(self) -> None:
        self.profiles = {}

    def op(self, index: int):
        import repro

        name, variant, machine = self.sequence[index % len(self.sequence)]
        return repro.compile(
            self.sources[name],
            repro.CompileOptions(variant=variant, machine=machine),
            profiles=self.profiles[name],
        )

    def check(self, index: int, result) -> str:
        from repro.ir.verifier import VerificationError, verify_program

        cell = self.op_name(index)
        want = self.expected["cells"][cell]
        got = [result.static_extend_count, result.total_eliminated]
        if got != want:
            return (f"{cell}: static_extends, eliminated = {got}, "
                    f"expected {want}")
        try:
            verify_program(result.program)
        except VerificationError as exc:
            return f"{cell}: compiled program fails verification: {exc}"
        if index in self.sampled:
            self.kept[index] = result.program
        return ""

    def check_after(self, loop) -> None:
        from repro.interp import execute
        from repro.machine import MACHINES

        for index, program in sorted(self.kept.items()):
            name, _, machine = self.sequence[index % len(self.sequence)]
            try:
                out = execute(program, traits=MACHINES[machine])
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                loop.fail(index, f"sampled execution raised {exc!r}")
                continue
            problem = output_problem(self.expected["programs"][name],
                                     out.ret_value, out.checksum)
            if problem:
                loop.fail(index, f"{self.op_name(index)}: {problem}")
        self.kept.clear()


class RunWarm(InProcess):
    """``repro.run`` with the compile cache on and every cache warm."""

    NAME = "run-warm"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.core.config import VARIANTS

        # 17 cells: each program in a seeded order, under its own seeded
        # (variant, machine), so one draw cannot make a whole run light
        # or heavy.
        rng = random.Random(f"run-warm:{seed}")
        names = sorted(self.sources)
        rng.shuffle(names)
        self.sequence = [(name, rng.choice(sorted(VARIANTS)),
                          rng.choice(MACHINE_NAMES)) for name in names]
        self.options: dict = {}
        self.cache_dir: Path | None = None
        self._set_ups = 0

    def op_name(self, index: int) -> str:
        return "|".join(self.sequence[index % len(self.sequence)])

    def setup_steps(self) -> list:
        import repro

        def options() -> None:
            self._set_ups += 1
            self.cache_dir = self.scratch / f"cache-{self._set_ups}"
            self.options = {
                (variant, machine): repro.CompileOptions(
                    variant=variant, machine=machine,
                    cache=True, cache_dir=str(self.cache_dir))
                for _, variant, machine in self.sequence
            }

        return super().setup_steps() + [options] + [
            functools.partial(self.op, index)
            for index in range(len(self.sequence))]

    def discard_setup(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, index: int):
        import repro

        name, variant, machine = self.sequence[index % len(self.sequence)]
        return repro.run(self.sources[name], self.options[variant, machine])

    def check(self, index: int, result) -> str:
        name = self.sequence[index % len(self.sequence)][0]
        return output_problem(self.expected["programs"][name],
                              result.ret_value, result.checksum)

    def cache_entry_kb(self) -> float:
        sizes = [p.stat().st_size for p in self.cache_dir.iterdir()
                 if p.is_file()]
        return statistics.mean(sizes) / 1024.0 if sizes else 0.0


def make(name: str, seed: int, scratch: Path):
    if name == "compile-cold":
        return CompileCold(seed, scratch)
    if name == "run-warm":
        return RunWarm(seed, scratch)
    from serve_mixed import ServeMixed

    return ServeMixed(seed, scratch)


# -- the two kinds of run ------------------------------------------------------

def set_up(workload) -> None:
    for step in workload.setup_steps():
        step()


def timed_set_up(workload) -> tuple[float, float]:
    """One set-up, measured and scaled: each step is scaled by the
    readings taken around it, with the clock stopped for them."""
    readings, ends, times = [], [], []
    for step in workload.setup_steps():
        readings.append(speed.reading(workload.probe()))
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
        ends.append(speed.ticks())
    readings.append(speed.reading(workload.probe()))
    scales = speed.factors(readings, ends, bench.RADIUS)
    return sum(times), sum(t * f for t, f in zip(times, scales))


def timed_run(workload, seconds: float) -> dict:
    """``SETUPS`` identical set-ups: one before the window, one after
    it, the rest at even intervals of window time, with the window clock
    stopped, so that they meet the same host conditions as the ops.
    ``setup_s`` is the median of their scaled times; peak RSS covers the
    ops only.  The metrics are scaled to the reference speed; the same
    metrics as measured are reported too."""
    setups, peaks = [], []

    def set_up_again() -> None:
        peaks.append(workload.peak_rss())
        setups.append(workload.set_up_again())
        workload.reset_peak()

    inside = workload.SETUPS - 2
    pause_at = [seconds * k / (inside + 1) for k in range(1, inside + 1)]
    try:
        setups.append(timed_set_up(workload))
        workload.reset_peak()
        loop = workload.measure(seconds=seconds, pause_at=pause_at,
                                pause=set_up_again)
        peaks.append(workload.peak_rss())
        workload.check_after(loop)
        setups.append(workload.set_up_again())
    finally:
        workload.close()
    scales = list(loop.factor.values())
    return {
        "metrics": bench.end_to_end_metrics([s for _, s in setups], loop,
                                            max(peaks)),
        "measured": bench.end_to_end_metrics([m for m, _ in setups], loop,
                                             max(peaks), scaled=False),
        "attempted": loop.attempted,
        "ops_done": loop.attempted,
        "failures": [f"op {i}: {p}" for i, p in sorted(loop.failures.items())],
        "provenance": {"setup_reps_s": [round(m, 4) for m, _ in setups],
                       "window_s": round(loop.window, 4),
                       "speed_scale": [round(min(scales), 4),
                                       round(statistics.median(scales), 4),
                                       round(max(scales), 4)]},
    }


def traced_run(workload, work_dir: Path) -> dict:
    """``TRACE_OPS`` ops untraced, then the same ops traced."""
    spans_dir = work_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_rec = Recorder()
        setup_rec.install()
        try:
            set_up(workload)
        finally:
            setup_rec.uninstall()
        untraced = workload.measure(ops=workload.TRACE_OPS)
        workload.check_after(untraced)
        workload.rewind()
        recorder = Recorder()
        before = interp_cache_stats()
        recorder.install()
        try:
            traced = workload.measure(ops=workload.TRACE_OPS,
                                      recorder=recorder)
        finally:
            recorder.uninstall()
        after = interp_cache_stats()
        workload.check_after(traced)
        span_file = spans_dir / f"{workload.NAME}-seed{workload.seed}.jsonl"
        recorder.dump(span_file)
        values, reached, negative, files = workload.layer_values(
            recorder, traced, setup_rec,
            {k: after[k] - before.get(k, 0) for k in after})
    finally:
        workload.close()
    values["trace.overhead_frac"] = (1.0 - traced.ops_per_s(scaled=True)
                                     / untraced.ops_per_s(scaled=True))
    bench.print_layer_table(values, reached)
    print_layer_map(workload.NAME, values)
    print(f"layer sum check: {len(negative)} of {len(traced.latency)} ops "
          f"have other.ms below -0.001 (layer spans overlap)")
    print(f"untraced {untraced.ops_per_s():.4f} ops/s, traced "
          f"{traced.ops_per_s():.4f} ops/s as measured")
    missing = sorted(set(setup_rec.missing + recorder.missing))
    for name in missing:
        print(f"missing layer: {name} (not found; its metrics read 0)")
    for path in [span_file] + files:
        print(f"spans: {path}")
    failures = [f"{label} op {i}: {p}"
                for label, loop in (("untraced", untraced), ("traced", traced))
                for i, p in sorted(loop.failures.items())]
    failures += [f"traced op {i}: layer self times exceed the op time by "
                 f"{-other * 1e6:.1f} us" for i, other in negative]
    return {
        "metrics": values,
        "attempted": untraced.attempted + traced.attempted,
        "ops_done": workload.TRACE_OPS,
        "failures": failures,
        "provenance": {"missing_layers": missing},
    }


COMPILER = ("opt.", "core.", "analysis.")

#: Predictions the traced run checks: (workload, claim, layer-name
#: prefixes, test on their share of the op time).
LAYER_MAP = [
    ("compile-cold", "opt + core + analysis >= 70% of op time", COMPILER,
     lambda share: share >= 0.70),
    ("run-warm", "opt + core + analysis < 5% of op time", COMPILER,
     lambda share: share < 0.05),
    ("run-warm", "interp.execute >= 75% of op time", ("interp.execute.",),
     lambda share: share >= 0.75),
    ("compile-cold", "serve.* read 0", ("serve.",),
     lambda share: share == 0.0),
    ("run-warm", "serve.* read 0", ("serve.",), lambda share: share == 0.0),
    ("serve-mixed", "serve.* above 0", ("serve.",), lambda share: share > 0.0),
]


def print_layer_map(workload: str, values: dict) -> None:
    op_ms = sum(v for k, v in values.items()
                if k.endswith(".ms") and k != "interp.profile.ms")
    for name, claim, prefixes, test in LAYER_MAP:
        if name != workload:
            continue
        share = sum(v for k, v in values.items()
                    if k.endswith(".ms") and k.startswith(prefixes)) / op_ms
        verdict = "confirmed" if test(share) else "MISS"
        print(f"layer map: {claim}: {100 * share:.1f}% of "
              f"{op_ms:.2f} ms -> {verdict}")


def layer_counts(counts: dict, execute_s: float, cache_delta: dict) -> dict:
    """The count and ratio metrics shared by every workload."""
    return {
        "core.candidates": counts.get("core.candidates", 0),
        "core.eliminated": counts.get("core.eliminated", 0),
        "core.static_extends": counts.get("core.static_extends", 0),
        "interp.steps": counts.get("interp.steps", 0),
        "interp.steps_per_s": ratio(counts.get("interp.steps", 0),
                                    execute_s),
        "driver.cache.hit_ratio": ratio(counts.get("driver.cache.hits", 0),
                                        counts.get("driver.cache.lookups", 0)),
        "interp.translate.hit_ratio": ratio(
            cache_delta.get("interp.translate.hits", 0),
            cache_delta.get("interp.translate.hits", 0)
            + cache_delta.get("interp.translate.misses", 0)),
        "interp.codegen.hit_ratio": ratio(
            cache_delta.get("interp.codegen.hits", 0),
            cache_delta.get("interp.codegen.hits", 0)
            + cache_delta.get("interp.codegen.misses", 0)),
    }
