"""Configuration of the sign-extension pipeline and the paper's variants.

Each row of Tables 1 and 2 is one :class:`SignExtConfig`; the
``VARIANTS`` registry lists them in the paper's order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..ir.types import JAVA_MAX_ARRAY_LENGTH
from ..machine.model import IA64, MachineTraits


class Placement(enum.Enum):
    """Where conversion generates sign extensions (Figure 6)."""

    GEN_DEF = "gen_def"  # after every definition (the paper's choice)
    GEN_USE = "gen_use"  # before every requiring use (the reference)


class Algorithm(enum.Enum):
    NONE = "none"  # Figure 5 step 3 disabled
    BWD_FLOW = "bwd_flow"  # the first algorithm: backward dataflow
    UD_DU = "ud_du"  # the new algorithm: UD/DU chains


@dataclass(frozen=True)
class SignExtConfig:
    """All knobs of the sign-extension machinery."""

    placement: Placement = Placement.GEN_DEF
    algorithm: Algorithm = Algorithm.UD_DU
    #: phase (3)-1 — insert extensions before requiring instructions
    insert: bool = False
    #: use the PDE-variant insertion instead of the simple algorithm
    insert_pde: bool = False
    #: phase (3)-2 — eliminate hottest regions first
    order: bool = False
    #: Section 3 — array-subscript elimination via Theorems 1-4
    array: bool = False
    #: run the general optimizations of Figure 5 step 2
    general_opts: bool = True
    #: maximum array length assumed by Theorem 4
    max_array_length: int = JAVA_MAX_ARRAY_LENGTH
    #: which of Section 3's theorems AnalyzeARRAY may use (for ablation)
    theorems: frozenset[int] = frozenset({1, 2, 3, 4})
    #: use interpreter-collected branch profiles for order determination
    use_profile: bool = True
    #: DEBUG ONLY — fault injection for the fuzz campaign: AnalyzeDEF
    #: unconditionally reports every reaching definition as canonical,
    #: which deliberately miscompiles most programs.  Never set outside
    #: ``repro fuzz --inject-bug`` and the reducer tests.
    debug_skip_def_check: bool = False
    traits: MachineTraits = field(default=IA64)

    def with_traits(self, traits: MachineTraits) -> "SignExtConfig":
        return replace(self, traits=traits)


def _variant(**kwargs) -> SignExtConfig:
    return SignExtConfig(**kwargs)


#: The rows of Tables 1 and 2, in the paper's order.
VARIANTS: dict[str, SignExtConfig] = {
    "baseline": _variant(algorithm=Algorithm.NONE),
    "gen use": _variant(placement=Placement.GEN_USE, algorithm=Algorithm.NONE),
    "first algorithm (bwd flow)": _variant(algorithm=Algorithm.BWD_FLOW),
    "basic ud/du": _variant(algorithm=Algorithm.UD_DU),
    "insert": _variant(algorithm=Algorithm.UD_DU, insert=True),
    "order": _variant(algorithm=Algorithm.UD_DU, order=True),
    "insert, order": _variant(algorithm=Algorithm.UD_DU, insert=True, order=True),
    "array": _variant(algorithm=Algorithm.UD_DU, array=True),
    "array, insert": _variant(algorithm=Algorithm.UD_DU, array=True, insert=True),
    "array, order": _variant(algorithm=Algorithm.UD_DU, array=True, order=True),
    "all, using PDE": _variant(
        algorithm=Algorithm.UD_DU, array=True, insert=True, insert_pde=True,
        order=True,
    ),
    "new algorithm (all)": _variant(
        algorithm=Algorithm.UD_DU, array=True, insert=True, order=True
    ),
}

#: Rows the paper marks as reference-only.
REFERENCE_VARIANTS = frozenset({"gen use", "all, using PDE"})

#: The paper's headline configuration; the default everywhere.
DEFAULT_VARIANT = "new algorithm (all)"

#: Engine used when nothing is specified anywhere in the stack.
DEFAULT_ENGINE = "closure"

#: Every value accepted by ``--engine`` / ``CompileOptions.engine``:
#: the two engines of :mod:`repro.interp.engine`, plus ``"both"``,
#: which runs both and asserts parity.
ENGINE_CHOICES = ("closure", "reference", "both")


@dataclass(frozen=True)
class CompileOptions:
    """Every knob a driver-level entry point accepts, in one object.

    :class:`SignExtConfig` stays the *pipeline* configuration — what
    code gets generated; ``CompileOptions`` is the *invocation*
    configuration — how the compilation is driven.  Its defaults are
    the CLI's too: each ``repro`` flag that sets a field has no default
    of its own (see :mod:`repro.cli`).
    """

    #: variant name from :data:`VARIANTS` (a Table 1/2 row)
    variant: str = DEFAULT_VARIANT
    #: target machine name from :data:`repro.machine.MACHINES`
    machine: str = "ia64"
    #: interpreter step budget for executions the entry point performs
    fuel: int = 100_000_000
    #: collect full telemetry (spans, metrics, decision log)
    telemetry: bool = False
    #: process-pool width for batch compilation (1 = in-process)
    jobs: int = 1
    #: consult/populate the content-addressed compile cache
    cache: bool = False
    #: on-disk cache tier location (``None`` = ``~/.cache/repro``)
    cache_dir: str | None = None
    #: byte budget for the on-disk cache tier; oldest-mtime entries are
    #: evicted beyond it (``None`` = ``$REPRO_CACHE_MAX_BYTES``, else
    #: unbounded)
    cache_max_bytes: int | None = None
    #: seconds before a pool job falls back to in-process compilation
    timeout: float | None = None
    #: clone the input program before compiling (disable only when the
    #: caller owns the program outright and wants it consumed in place)
    clone: bool = True
    #: execution engine for every interpreter run the entry point makes:
    #: ``"closure"`` (translated threaded code), ``"reference"`` (the
    #: per-step oracle loop), or ``"both"`` (run both, assert parity)
    engine: str = DEFAULT_ENGINE
    #: directory for execution-profile artifacts (``None`` = don't
    #: profile; the flag gates *all* per-run profile collection, so the
    #: hot loops stay untouched when it is off — see docs/PROFILING.md)
    profile_dir: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown engine: {self.engine!r}; one of: "
                             + ", ".join(ENGINE_CHOICES))

    def traits(self) -> MachineTraits:
        from ..machine import MACHINES

        return MACHINES[self.machine]

    def config(self) -> SignExtConfig:
        """The :class:`SignExtConfig` these options select."""
        return VARIANTS[self.variant].with_traits(self.traits())
