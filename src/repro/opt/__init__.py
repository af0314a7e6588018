"""General optimizations (Figure 5, step 2): constant folding, copy
propagation, dead code elimination, algebraic simplification, global
CSE, and loop-invariant code motion (the PRE variant)."""

from .bcm import busy_code_motion
from .constant_fold import fold_constants
from .copy_prop import propagate_copies
from .dce import eliminate_dead_code
from .expr import ExprKey, ExprUniverse, PURE_OPS, all_computations, expr_key
from .gcse import eliminate_common_subexpressions
from .inline import inline_small_functions
from .licm import hoist_loop_invariants
from .pass_manager import (
    BUCKET_CHAINS,
    BUCKET_OTHERS,
    BUCKET_SIGN_EXT,
    Pass,
    PassManager,
    Timing,
)
from .simplify import simplify

__all__ = [
    "BUCKET_CHAINS",
    "BUCKET_OTHERS",
    "BUCKET_SIGN_EXT",
    "ExprKey",
    "ExprUniverse",
    "PURE_OPS",
    "Pass",
    "PassManager",
    "Timing",
    "all_computations",
    "busy_code_motion",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "expr_key",
    "fold_constants",
    "hoist_loop_invariants",
    "inline_small_functions",
    "propagate_copies",
    "simplify",
]
