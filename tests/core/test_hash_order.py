"""Compiled IR does not depend on string hashing or object addresses.

Iterating a ``set`` of strings follows ``PYTHONHASHSEED``, and a set of
keys that hash ``None`` follows memory addresses.  A pass that numbers
temporaries or orders hoisted code by such an iteration prints different
IR from run to run.  Each seed below compiles in a fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: The ``gen use`` cells exercise gcse's temporaries and licm's hoists
#: on programs where both fire.
SCRIPT = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import repro
from repro.ir.printer import format_program
from repro.workloads import get_workload
for name in ("db", "huffman", "mtrt"):
    for machine in ("ia64", "ppc64"):
        options = repro.CompileOptions(variant="gen use", machine=machine)
        result = repro.compile(get_workload(name).source, options)
        print(f"== {{name}} {{machine}}")
        print(format_program(result.program))
"""


def _compile_under(seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": seed}
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_printed_ir_is_identical_under_different_hash_seeds():
    first, *rest = [_compile_under(seed) for seed in ("1", "2", "3")]
    assert "== mtrt ppc64" in first
    for other in rest:
        assert other == first
