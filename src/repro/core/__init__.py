"""The paper's contribution: sign-extension elimination.

Entry point: :func:`compile_ir` with a :class:`SignExtConfig` (pick
one from :data:`VARIANTS` to reproduce a table row), or the
:mod:`repro.api` facade one level up.
"""

from .analyze import Eliminator
from .config import (
    Algorithm,
    CompileOptions,
    DEFAULT_VARIANT,
    Placement,
    REFERENCE_VARIANTS,
    SignExtConfig,
    VARIANTS,
)
from .convert64 import convert_function
from .elimination import FunctionStats, run_sign_extension_elimination
from .first_algorithm import is_removable_extend32, run_first_algorithm
from .insertion import (
    function_has_loop,
    insert_before_requiring_uses,
    insert_dummy_markers,
    remove_dummy_markers,
)
from .ordering import is_candidate_extend, order_candidates
from .pde_insertion import run_pde_insertion
from .pipeline import CompileResult, compile_ir

__all__ = [
    "Algorithm",
    "CompileOptions",
    "CompileResult",
    "Eliminator",
    "FunctionStats",
    "Placement",
    "REFERENCE_VARIANTS",
    "DEFAULT_VARIANT",
    "SignExtConfig",
    "VARIANTS",
    "compile_ir",
    "convert_function",
    "function_has_loop",
    "insert_before_requiring_uses",
    "insert_dummy_markers",
    "is_candidate_extend",
    "is_removable_extend32",
    "order_candidates",
    "remove_dummy_markers",
    "run_first_algorithm",
    "run_pde_insertion",
    "run_sign_extension_elimination",
]
