"""Branch profiling, as the paper's mixed-mode interpreter does.

"The interpreter gathers statistical data on conditional branches.  When
the interpreter finds that a method is executed frequently, the dynamic
compiler is called.  At that time, the interpreter provides the
statistical data to the dynamic compiler." (Section 2.2)

Here the profiling run interprets the program once (optionally on a
smaller training input) and returns per-function
:class:`~repro.analysis.frequency.BranchProfile` objects for order
determination.
"""

from __future__ import annotations

from ..analysis.frequency import BranchProfile
from ..ir.function import Program
from ..machine.model import IA64, MachineTraits
from ..core.config import DEFAULT_ENGINE
from .engine import create_interpreter


def collect_branch_profiles(
    program: Program,
    *,
    func_name: str = "main",
    args: tuple[int | float, ...] = (),
    traits: MachineTraits = IA64,
    mode: str = "ideal",
    fuel: int = 50_000_000,
    inline: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> dict[str, BranchProfile]:
    """Run the program once and return branch profiles per function.

    Profiling runs in ``ideal`` mode by default so it can execute
    pre-conversion IR (as the paper's bytecode interpreter does).  By
    default the profiled copy is inlined with the same deterministic
    pass the compiler applies, so block labels line up with the code
    order determination will see.
    """
    if inline:
        from ..ir.clone import clone_program
        from ..opt.inline import inline_small_functions

        program = clone_program(program)
        inline_small_functions(program)
    if engine == "both":  # profiling is single-engine; pick the default
        engine = DEFAULT_ENGINE
    interpreter = create_interpreter(
        program, engine=engine, traits=traits, mode=mode, fuel=fuel,
        collect_profile=True,
    )
    result = interpreter.run(func_name, args)
    return {
        name: BranchProfile(dict(edges))
        for name, edges in result.profiles.items()
    }
