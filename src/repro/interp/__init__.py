"""Execution substrate: heap, interpreters, closure engine, profiling."""

from .engine import (
    DEFAULT_ENGINE,
    ENGINES,
    ClosureInterpreter,
    EngineParityError,
    create_interpreter,
    execute,
)
from .interpreter import (
    DEFAULT_MAX_CALL_DEPTH,
    ExecResult,
    Interpreter,
)
from .memory import (
    ArrayObject,
    FuelExhausted,
    Heap,
    MemoryFault,
    SimError,
    Trap,
)
from .profiler import collect_branch_profiles
from .translate import (
    TranslationCache,
    Untranslatable,
    default_translation_cache,
    translate_function,
)

__all__ = [
    "ArrayObject",
    "ClosureInterpreter",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_CALL_DEPTH",
    "ENGINES",
    "EngineParityError",
    "ExecResult",
    "FuelExhausted",
    "Heap",
    "Interpreter",
    "MemoryFault",
    "SimError",
    "Trap",
    "TranslationCache",
    "Untranslatable",
    "collect_branch_profiles",
    "create_interpreter",
    "default_translation_cache",
    "execute",
    "translate_function",
]
