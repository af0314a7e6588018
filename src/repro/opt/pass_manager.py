"""Pass pipeline and the one compile-time recorder (the paper's Table 3).

The paper buckets JIT compilation time into "sign extension
optimizations", "UD/DU chain creation", and "others".  Every timed
compiler region is one ``with timing.span(name, bucket)``, which reads
the clock once per edge and adds the region to its bucket.  Only when
the :class:`Timing` carries a tracer (``compile_ir`` attaches one under
telemetry) is the region also a span of the pipeline trace.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..analysis.ud_du import ChainsHolder
from ..ir.function import Function

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.tracer import Tracer

#: A pass gets the function and the chains it shares with the other
#: passes; whenever it edits the function it makes the same edit to the
#: chains or calls ``holder.invalidate()``.
PassFn = Callable[[Function, ChainsHolder], bool]

BUCKET_SIGN_EXT = "sign extension optimizations"
BUCKET_CHAINS = "UD/DU chain creation"
BUCKET_OTHERS = "others"

#: Short machine-friendly key per bucket, shared by the harness JSON
#: export and the telemetry export (one source of truth for the
#: bucket -> key mapping).
BUCKET_KEYS = {
    BUCKET_SIGN_EXT: "sign_ext",
    BUCKET_CHAINS: "chains",
    BUCKET_OTHERS: "others",
}


@dataclass
class Pass:
    """One general optimization; its time counts as "others"."""

    name: str
    run: PassFn


class _NullSpan:
    """What an untraced region yields: annotations go nowhere."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def annotate(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _TimedRegion:
    """A region whose wall time is added to one bucket on exit, even
    when it raises."""

    __slots__ = ("_timing", "_bucket", "_traced", "_start")

    def __init__(self, timing: "Timing", bucket: str, traced) -> None:
        self._timing = timing
        self._bucket = bucket
        self._traced = traced

    def __enter__(self):
        span = self._traced.__enter__()
        self._start = perf_counter()
        return span

    def __exit__(self, *exc_info: object) -> None:
        self._timing.add(self._bucket, perf_counter() - self._start)
        self._traced.__exit__(*exc_info)


@dataclass
class Timing:
    """Accumulated wall-clock seconds per bucket."""

    seconds: dict[str, float] = field(default_factory=dict)
    #: Attached only while a traced compile runs; never part of a result.
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def span(self, name: str, bucket: str | None = None,
             category: str = "pipeline", **args: Any):
        """Time one region; use as a context manager.

        Its wall time goes to ``bucket`` (a bucket-less region only
        groups others in the trace).  It yields the tracer's span, or
        a shared no-op one when no tracer is attached.
        """
        traced = (self.tracer.span(name, category, **args)
                  if self.tracer is not None else _NULL_SPAN)
        if bucket is None:
            return traced
        return _TimedRegion(self, bucket, traced)

    def add(self, bucket: str, elapsed: float) -> None:
        self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed

    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, bucket: str) -> float:
        total = self.total()
        if total == 0.0:
            return 0.0
        return self.seconds.get(bucket, 0.0) / total

    def as_dict(self) -> dict[str, float]:
        """Seconds per bucket under the short keys, plus the total.

        The single rendering used by the harness JSON export, Table 3
        code, and the telemetry export.
        """
        out = {
            key: self.seconds.get(bucket, 0.0)
            for bucket, key in BUCKET_KEYS.items()
        }
        out["total"] = self.total()
        return out


class PassManager:
    """Runs a fixed pipeline over one function, timing every pass."""

    def __init__(self, passes: list[Pass],
                 timing: Timing | None = None) -> None:
        self.passes = passes
        self.timing = timing if timing is not None else Timing()

    def run(self, func: Function, holder: ChainsHolder | None = None) -> bool:
        holder = holder if holder is not None else ChainsHolder(func)
        changed = False
        for pass_ in self.passes:
            with self.timing.span(pass_.name, BUCKET_OTHERS, category="pass",
                                  function=func.name) as span:
                result = bool(pass_.run(func, holder))
                span.annotate(changed=result)
            changed |= result
        return changed

    def run_to_fixpoint(self, func: Function, max_rounds: int = 4) -> None:
        """Run rounds until one changes nothing.  All passes of all rounds
        share one :class:`ChainsHolder`, so chains that no pass
        invalidated are never rebuilt."""
        holder = ChainsHolder(func)
        for _ in range(max_rounds):
            if not self.run(func, holder):
                break
