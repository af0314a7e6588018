"""Outside-in layer tracing for the benchmark's traced runs.

Only traced runs install these timers.  ``install`` wraps the public
entry point of every layer with a timer by rebinding each module-level
name that resolves to it, so the caller's own lookup finds the timed
version; ``uninstall`` puts the originals back.  The
package itself is never edited.  A name that no longer exists is
reported in ``Recorder.missing`` instead of failing the run.

Spans live in memory as ``(name, start, end, parent, op, phase,
thread)`` tuples and are written out once, after the measured ops.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute): calls to the function are timed as the layer.
FUNCTION_LAYERS = [
    ("frontend", "repro.frontend", "compile_source"),
    ("ir.clone", "repro.ir.clone", "clone_program"),
    ("ir.verify", "repro.ir.verifier", "verify_program"),
    ("opt.inline", "repro.opt.inline", "inline_small_functions"),
    ("core.convert64", "repro.core.convert64", "convert_function"),
    ("core.insertion", "repro.core.insertion", "insert_dummy_markers"),
    ("core.insertion", "repro.core.insertion",
     "insert_before_requiring_uses"),
    ("core.insertion", "repro.core.pde_insertion", "run_pde_insertion"),
    ("core.insertion", "repro.core.insertion", "remove_dummy_markers"),
    ("core.ordering", "repro.core.ordering", "order_candidates"),
    # Phase 3 minus its insertion, ordering and chain children is the
    # elimination loop itself.
    ("core.elimination", "repro.core.elimination",
     "run_sign_extension_elimination"),
    ("core.first-algorithm", "repro.core.first_algorithm",
     "run_first_algorithm"),
    ("driver.fingerprint", "repro.driver.fingerprint", "cache_key"),
    ("interp.profile", "repro.interp.profiler", "collect_branch_profiles"),
    ("interp.prepare", "repro.interp.engine", "create_interpreter"),
    ("interp.execute", "repro.interp.engine", "execute"),
    ("machine.cycles", "repro.machine.costs", "count_cycles"),
]

#: (layer, module, class, method): calls to the method are timed.
METHOD_LAYERS = [
    ("driver.cache.get", "repro.driver.cache", "CompileCache", "get"),
    ("driver.cache.put", "repro.driver.cache", "CompileCache", "put"),
]

#: (layer, module, class): constructing the class is timed.
CLASS_LAYERS = [
    ("analysis.chains", "repro.analysis.ud_du", "Chains"),
]

#: Figure 5 step 2's pass list; each entry's ``run`` is timed as
#: ``opt.<pass name>``.  The cleanup round is the same copy propagation.
PASS_LIST = ("repro.core.pipeline", "GENERAL_PASSES")
PASS_ALIASES = {"copy-prop-cleanup": "copy-prop"}

#: Server methods whose ``trace_id`` argument names the op whose work
#: runs on that thread (traced serve child only).
SERVER_PHASES = [
    ("prepare", "repro.serve.server", "ReproServer", "_prepare"),
    ("work", "repro.serve.server", "ReproServer", "_traced_work"),
]


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> tuple[str | None, str | None]:
        return (getattr(self._local, "op", None),
                getattr(self._local, "phase", None))

    def set_op(self, op: str | None, phase: str | None = None) -> None:
        self._local.op = op
        self._local.phase = phase

    def timed(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            op, phase = self.current_op()
            self.spans[index] = (name, start, end, parent, op, phase,
                                 threading.get_ident())

    def record(self, name: str, start: float, end: float, op: str) -> None:
        """Add a span measured elsewhere (a client op of serve-mixed)."""
        with self._lock:
            self.spans.append((name, start, end, None, op, None,
                               threading.get_ident()))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    # -- installing wrappers -------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Point every ``repro`` module global bound to ``original`` at
        ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, replacement)

    def _replace(self, target, attr: str, replacement) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def _lookup(self, module_name: str, *attrs: str):
        try:
            target = importlib.import_module(module_name)
            for attr in attrs:
                target = getattr(target, attr)
        except (ImportError, AttributeError):
            self.missing.append(".".join((module_name,) + attrs))
            return None
        return target

    def install(self, *, server: bool = False) -> None:
        """Wrap every layer entry point listed above."""
        for layer, module_name, attr in FUNCTION_LAYERS:
            original = self._lookup(module_name, attr)
            if original is not None:
                self._rebind_everywhere(original,
                                        self._function_wrapper(layer, original))
        for layer, module_name, cls_name, method in METHOD_LAYERS:
            original = self._lookup(module_name, cls_name, method)
            if original is not None:
                self._replace(self._lookup(module_name, cls_name), method,
                              self._function_wrapper(layer, original))
        for layer, module_name, cls_name in CLASS_LAYERS:
            original = self._lookup(module_name, cls_name)
            if original is not None:
                self._rebind_everywhere(original,
                                        self._class_wrapper(layer, original))
        passes = self._lookup(*PASS_LIST)
        for entry in passes or ():
            name = "opt." + PASS_ALIASES.get(entry.name, entry.name)
            self._replace(entry, "run",
                          self._function_wrapper(name, entry.run))
        self._count_compiles()
        if server:
            for phase, module_name, cls_name, method in SERVER_PHASES:
                original = self._lookup(module_name, cls_name, method)
                if original is not None:
                    self._replace(self._lookup(module_name, cls_name), method,
                                  self._phase_wrapper(phase, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _function_wrapper(self, layer: str, original):
        recorder = self

        @functools.wraps(original)
        def timed_call(*args, **kwargs):
            result = recorder.timed(layer, original, *args, **kwargs)
            if layer == "interp.execute":
                recorder.count("interp.steps", result.steps)
            elif layer == "driver.cache.get":
                recorder.count("driver.cache.lookups", 1)
                recorder.count("driver.cache.hits", result is not None)
            return result

        return timed_call

    def _class_wrapper(self, layer: str, original):
        recorder = self

        class Timed(original):
            def __init__(self, *args, **kwargs):
                recorder.timed(layer, super().__init__, *args, **kwargs)

        Timed.__name__ = original.__name__
        Timed.__qualname__ = original.__qualname__
        return Timed

    def _phase_wrapper(self, phase: str, original):
        recorder = self

        @functools.wraps(original)
        def with_op(server_self, *args, **kwargs):
            trace_id = args[1] if len(args) > 1 else kwargs.get("trace_id")
            recorder.set_op(trace_id, phase)
            try:
                return original(server_self, *args, **kwargs)
            finally:
                recorder.set_op(None)

        return with_op

    def _count_compiles(self) -> None:
        """Count what phase 3 did on every compile that really ran (cache
        hits compile nothing and add nothing)."""
        original = self._lookup("repro.core.pipeline", "compile_ir")
        if original is None:
            return
        recorder = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            stats = result.function_stats.values()
            recorder.count("core.candidates",
                           sum(s.candidates for s in stats))
            recorder.count("core.eliminated", result.total_eliminated)
            recorder.count("core.static_extends", result.static_extend_count)
            return result

        self._rebind_everywhere(original, counted)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line, parents by index."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:  # still open: a wrapper never returned
                    continue
                name, start, end, parent, op, phase, thread = span
                handle.write(json.dumps({
                    "i": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "phase": phase,
                    "thread": thread,
                }) + "\n")
            handle.write(json.dumps({
                "counts": dict(self.counts), "missing": self.missing,
            }) + "\n")


def load_spans(path) -> tuple[list[tuple], dict[str, float], list[str]]:
    """Read a file written by :meth:`Recorder.dump` back into tuples
    (indices renumbered densely, parents remapped)."""
    spans: list[tuple] = []
    remap: dict[int, int] = {}
    counts: dict[str, float] = {}
    missing: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counts" in record:
                counts, missing = record["counts"], record["missing"]
                continue
            remap[record["i"]] = len(spans)
            spans.append((record["name"], record["start"], record["end"],
                          remap.get(record["parent"]), record["op"],
                          record["phase"], record["thread"]))
    return spans, counts, missing


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover,
    in seconds (children of one span run on its thread, in sequence)."""
    own = [span[2] - span[1] if span is not None else 0.0 for span in spans]
    for span in spans:
        if span is not None and span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def by_op(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """``{op: {layer: self seconds}}`` over every recorded span."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        if span is not None:
            table[span[4]][span[0]] += own
    return table


def top_level_by_op(spans: list[tuple]) -> dict[tuple, float]:
    """``{(op, phase): seconds}`` covered by spans with no parent — the
    part of a server phase that the layer spans account for."""
    covered: dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span is not None and span[3] is None:
            covered[(span[4], span[5])] += span[2] - span[1]
    return covered
