"""Program analyses: CFG orders, dominators, loops, dataflow, UD/DU
chains, value ranges, and execution-frequency estimation."""

from .cfg import (
    depth_first_order,
    postorder,
    reverse_depth_first_order,
    reverse_postorder,
)
from .dataflow import DataflowProblem, Direction, Meet, bit_indices
from .dominators import DominatorTree
from .frequency import BranchProfile, estimate_frequencies
from .liveness import Liveness
from .loops import Loop, LoopForest
from .reaching import Definition, ReachingDefinitions
from .ud_du import Chains, ChainsHolder, Use
from .value_range import Interval, TOP, ValueRanges

__all__ = [
    "BranchProfile",
    "Chains",
    "ChainsHolder",
    "DataflowProblem",
    "Definition",
    "Direction",
    "DominatorTree",
    "Interval",
    "Liveness",
    "Loop",
    "LoopForest",
    "Meet",
    "ReachingDefinitions",
    "TOP",
    "Use",
    "ValueRanges",
    "bit_indices",
    "depth_first_order",
    "estimate_frequencies",
    "postorder",
    "reverse_depth_first_order",
    "reverse_postorder",
]
