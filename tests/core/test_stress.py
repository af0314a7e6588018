"""Stress tests: larger generated programs through the full pipeline."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core import VARIANTS, compile_ir
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.testing import ProgramGenerator


class TestScale:
    def test_large_generated_program(self):
        generator = ProgramGenerator(424242, max_loops=2,
                                     max_statements=40)
        source = generator.generate()
        program = compile_source(source, "stress")
        gold = Interpreter(program, mode="ideal", fuel=5_000_000).run()
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        run = Interpreter(compiled.program, fuel=5_000_000).run()
        assert run.observable() == gold.observable()

    def test_many_blocks(self):
        """A long if-else ladder: hundreds of blocks; no recursion-depth
        or quadratic blowups in the analyses."""
        arms = "\n".join(
            f"    if (x == {k}) {{ t += {k * 3}; }}" for k in range(150)
        )
        source = f"""
        int main() {{
            int x = 42;
            int t = 0;
{arms}
            return t;
        }}
        """
        program = compile_source(source, "ladder")
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        result = Interpreter(compiled.program).run()
        assert result.ret_value == 42 * 3

    def test_two_thousand_sequential_ifs(self):
        """A CFG path deeper than Python's recursion limit: the orders
        the analyses walk must not recurse per block."""
        arms = "\n".join(
            f"    if (x > {k}) {{ t += {k}; }}" for k in range(2000)
        )
        source = f"""
        int main() {{
            int x = 42;
            int t = 0;
{arms}
            return t;
        }}
        """
        program = compile_source(source, "sequence")
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        result = Interpreter(compiled.program).run()
        assert result.ret_value == sum(range(42))

    def test_long_straightline_chain(self):
        """A deep dependency chain stresses the recursive analyses
        (value ranges, canonicality) without hitting Python limits."""
        body = "\n".join(
            f"    t = (t + {k}) & 0xffff;" for k in range(400)
        )
        source = f"""
        int main() {{
            int t = 1;
{body}
            sink(t);
            return t;
        }}
        """
        program = compile_source(source, "chain")
        gold = Interpreter(program, mode="ideal").run()
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        run = Interpreter(compiled.program).run()
        assert run.observable() == gold.observable()
        # Everything is masked: no dynamic extensions remain.
        assert run.extends32 <= 1

    @pytest.mark.parametrize("depth", [4, 8])
    def test_nested_loops(self, depth):
        opening = ""
        closing = ""
        for level in range(depth):
            pad = "    " * (level + 1)
            opening += (f"{pad}for (int i{level} = 0; i{level} < 2; "
                        f"i{level}++) {{\n")
            closing = "    " * (level + 1) + "}\n" + closing
        source = f"""
        int main() {{
            int n = 0;
{opening}{'    ' * (depth + 1)}n++;
{closing}
            return n;
        }}
        """
        program = compile_source(source, f"nest{depth}")
        compiled = compile_ir(program, VARIANTS["new algorithm (all)"])
        result = Interpreter(compiled.program).run()
        assert result.ret_value == 2 ** depth


def _chain(terms: int) -> str:
    """``x + x + ... + x`` over a parameter, so no pass folds it away."""
    return ("int f(int x) { return " + " + ".join(["x"] * terms) + "; }\n"
            "int main() { int r = f(3); sink(r); return r; }")


SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: In a fresh interpreter, whose recursion limit no ``Interpreter`` has
#: raised yet: compile the chain, serve it, then compile it again.
FRESH_PROCESS = f"""
import http.client, json, sys
sys.path.insert(0, {str(SRC)!r})
import repro
from repro.ir.printer import format_program
from repro.serve import ServerConfig, ServerThread

source = {_chain(500)!r}
limit_before = sys.getrecursionlimit()
fresh = format_program(repro.compile(source).program)
statuses = []
with ServerThread(ServerConfig(port=0, workers=1)) as thread:
    for path in ("/v1/compile", "/v1/run"):
        connection = http.client.HTTPConnection("127.0.0.1",
                                                thread.server.port,
                                                timeout=120)
        connection.request("POST", path, json.dumps({{"source": source}}))
        statuses.append(connection.getresponse().status)
        connection.close()
again = format_program(repro.compile(source).program)
print(json.dumps({{"statuses": statuses, "same_ir": fresh == again,
                  "limit_before": limit_before,
                  "limit_after": sys.getrecursionlimit()}}))
"""


class TestLongChains:
    """A chain of dependent operations longer than Python's recursion
    limit: phase 3's walks stop at a fixed depth and keep the extension
    there, instead of overflowing the stack."""

    @pytest.mark.parametrize("machine", ["ia64", "ppc64"])
    @pytest.mark.parametrize("terms", [500, 2000])
    def test_compiles_and_runs_equal_to_gold(self, terms, machine):
        outcome = repro.run(_chain(terms), repro.CompileOptions(
            machine=machine))
        assert outcome.verified
        assert outcome.ret_value == 3 * terms

    def test_answer_does_not_depend_on_the_recursion_limit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", FRESH_PROCESS],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["statuses"] == [200, 200]
        assert report["same_ir"]
        # The served run raised the limit between the two compiles.
        assert report["limit_before"] < report["limit_after"]
