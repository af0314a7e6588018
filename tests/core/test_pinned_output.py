"""The compiler's output on the paper's grid is pinned.

Every cell of the 17 workloads x 12 variants x 2 machines grid is
compiled with ``compile_ir`` (no profiles).  Each cell's printed IR is
reduced to a sha256, and each function's phase-3 ``candidates`` and
``eliminated`` counts are kept beside it; all of it must equal
``pinned_output.json``.  A refactoring of the optimizer must leave every
cell as it was; a change that means to alter the output rewrites the
file with

    PYTHONPATH=src python tests/core/test_pinned_output.py

and the diff of the JSON shows which cells moved.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import VARIANTS, compile_ir
from repro.ir.printer import format_program
from repro.machine import MACHINES
from repro.workloads import all_workloads, get_workload

PINNED = pathlib.Path(__file__).with_name("pinned_output.json")

WORKLOADS = [workload.name for workload in all_workloads()]


def compile_grid(name: str) -> dict[str, dict]:
    """``{"workload/machine/variant": cell}`` for one workload."""
    program = get_workload(name).program()
    cells = {}
    for machine, traits in MACHINES.items():
        for variant, config in VARIANTS.items():
            result = compile_ir(program, config.with_traits(traits))
            printed = format_program(result.program).encode()
            cells[f"{name}/{machine}/{variant}"] = {
                "ir_sha256": hashlib.sha256(printed).hexdigest(),
                "functions": {
                    func: [stats.candidates, stats.eliminated]
                    for func, stats in sorted(result.function_stats.items())
                },
            }
    return cells


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_grid_is_complete(pinned):
    assert len(pinned) == len(WORKLOADS) * len(MACHINES) * len(VARIANTS)
    assert {key.split("/")[0] for key in pinned} == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_matches_pinned(name, pinned):
    cells = compile_grid(name)
    moved = sorted(key for key, cell in cells.items()
                   if cell != pinned.get(key))
    assert not moved, f"output changed in {moved}"


if __name__ == "__main__":
    grid = {}
    for name in WORKLOADS:
        grid.update(compile_grid(name))
    # One cell a line, so the diff of a rewrite names the cells that moved.
    rows = [f" {json.dumps(key)}: {json.dumps(grid[key], sort_keys=True)}"
            for key in sorted(grid)]
    PINNED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {PINNED}")
