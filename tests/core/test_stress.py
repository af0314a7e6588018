"""Stress tests: larger generated programs through the full pipeline."""

import pytest

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
