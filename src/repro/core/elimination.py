"""Phase 3 driver: insertion, order determination, elimination.

Chains are built once (the paper's "UD/DU chain creation" budget line)
and spliced incrementally as extensions are removed.

Each sub-phase ((3)-1 insertion, (3)-2 order determination, chain
construction, (3)-3 elimination) is one ``Timing.span`` region: it
feeds its Table-3 bucket and, under a traced compile, is also a span.
With ``telemetry`` attached the phase's statistics land in the metrics
registry and every candidate produces one decision record (see
:mod:`repro.telemetry.decisions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.frequency import BranchProfile
from ..analysis.ud_du import Chains
from ..ir.function import Function
from ..ir.opcodes import EXTEND_BITS
from ..opt.pass_manager import BUCKET_CHAINS, BUCKET_SIGN_EXT, Timing
from ..telemetry import Telemetry
from .analyze import Eliminator
from .config import SignExtConfig
from .insertion import (
    insert_before_requiring_uses,
    insert_dummy_markers,
    remove_dummy_markers,
)
from .ordering import order_candidates
from .pde_insertion import run_pde_insertion


@dataclass
class FunctionStats:
    """What phase 3 did to one function."""

    name: str = ""
    #: extensions insertion added; for PDE, those it placed minus the
    #: originals it removed, so it may be negative
    inserted: int = 0
    dummies: int = 0
    candidates: int = 0
    eliminated: int = 0
    eliminated_by_width: dict[int, int] = field(
        default_factory=lambda: {8: 0, 16: 0, 32: 0}
    )


def run_sign_extension_elimination(
    func: Function,
    config: SignExtConfig,
    profile: BranchProfile | None = None,
    timing: Timing | None = None,
    telemetry: Telemetry | None = None,
) -> FunctionStats:
    """Run phase 3 (the new algorithm) on one converted function.

    Sub-phases are spans only when ``timing`` carries a tracer.
    """
    stats = FunctionStats(name=func.name)
    timing = timing if timing is not None else Timing()

    placed = 0  # extensions insertion put in: the signext.inserted counter
    with timing.span("sign-ext", function=func.name):
        with timing.span("insertion", BUCKET_SIGN_EXT, category="sign-ext"):
            stats.dummies = insert_dummy_markers(func)
            if config.insert:
                if config.insert_pde:
                    placed, removed = run_pde_insertion(func, config.traits)
                    stats.inserted = placed - removed
                else:
                    placed = stats.inserted = insert_before_requiring_uses(
                        func, config.traits
                    )
        with timing.span("ordering", BUCKET_SIGN_EXT, category="sign-ext"):
            candidates = order_candidates(
                func,
                use_order=config.order,
                profile=profile if config.use_profile else None,
            )
        stats.candidates = len(candidates)

        with timing.span("chains", BUCKET_CHAINS, category="sign-ext"):
            chains = Chains(func)

        with timing.span("elimination", BUCKET_SIGN_EXT, category="sign-ext"):
            eliminator = Eliminator(func, chains, config, telemetry=telemetry)
            for ext in candidates:
                if eliminator.try_eliminate(ext):
                    stats.eliminated += 1
                    stats.eliminated_by_width[EXTEND_BITS[ext.opcode]] += 1
            remove_dummy_markers(func)

    if telemetry is not None:
        _record_phase3_metrics(stats, placed, config, telemetry)
    return stats


def _record_phase3_metrics(stats: FunctionStats, placed: int,
                           config: SignExtConfig,
                           telemetry: Telemetry) -> None:
    metrics = telemetry.metrics
    metrics.counter("signext.candidates").inc(stats.candidates)
    metrics.counter("signext.dummy_markers").inc(stats.dummies)
    if placed:
        mode = "pde" if config.insert_pde else "simple"
        metrics.counter("signext.inserted", mode=mode).inc(placed)
    for width, count in stats.eliminated_by_width.items():
        if count:
            metrics.counter("signext.eliminated", width=width).inc(count)
