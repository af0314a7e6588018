"""Random J32 program generation for the serve-mixed workload.

A frozen copy of ``repro.testing.genprog``: the benchmark keeps its own
generator so that changes to the fuzzing generator cannot change the
programs this workload sends.  It emits structurally valid, trap-free,
deterministic programs that stress the sign-extension machinery:
values that overflow 32 bits, count-down and count-up array loops,
narrowing casts, mixed int/long/double arithmetic.
"""

from __future__ import annotations

import random

_INT_VARS = ["a", "b", "c", "d"]
_SEED_CONSTANTS = [
    0, 1, -1, 7, 255, -128, 65535, 0x7fffffff, -2147483648, 123456789,
    -99999, 0x0fffffff,
]


class ProgramGenerator:
    """Emits one random J32 program per seed."""

    def __init__(self, seed: int, *, max_loops: int = 2,
                 max_statements: int = 8) -> None:
        self.rng = random.Random(seed)
        self.max_loops = max_loops
        self.max_statements = max_statements
        self.array_len = self.rng.choice([8, 16, 32])
        self._loop_depth = 0
        self.has_helper = False
        self.has_global = False

    # -- expressions -------------------------------------------------------

    def int_expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.35:
            if rng.random() < 0.5:
                return rng.choice(_INT_VARS)
            return str(rng.choice(_SEED_CONSTANTS))
        kind = rng.randrange(9)
        lhs = self.int_expr(depth + 1)
        rhs = self.int_expr(depth + 1)
        if kind == 0:
            return f"({lhs} + {rhs})"
        if kind == 1:
            return f"({lhs} - {rhs})"
        if kind == 2:
            return f"({lhs} * {rhs})"
        if kind == 3:
            return f"({lhs} & {rhs})"
        if kind == 4:
            return f"({lhs} | {rhs})"
        if kind == 5:
            return f"({lhs} ^ {rhs})"
        if kind == 6:
            amount = rng.randrange(32)
            op = rng.choice(["<<", ">>", ">>>"])
            return f"({lhs} {op} {amount})"
        if kind == 7:
            # Trap-free division: non-zero divisor via | 1.
            op = rng.choice(["/", "%"])
            return f"({lhs} {op} ({rhs} | 1))"
        narrow = rng.choice(["byte", "short", "char"])
        return f"(int)(({narrow}) {lhs})" if narrow == "char" \
            else f"(({narrow}) {lhs})"

    def index_expr(self) -> str:
        """An in-bounds array index (masked to the power-of-two length)."""
        rng = self.rng
        if rng.random() < 0.25:
            # >>> on a guaranteed-negative value: the unsigned shift
            # zero-fills from bit 31, so the subscript is only correct
            # if the shift really consumed a canonical register.
            var = rng.choice(_INT_VARS)
            amount = rng.randrange(1, 31)
            return (f"((({var} | -2147483648) >>> {amount}) "
                    f"& {self.array_len - 1})")
        return f"(({self.int_expr(2)}) & {self.array_len - 1})"

    def condition(self) -> str:
        rng = self.rng
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{rng.choice(_INT_VARS)} {op} {self.int_expr(2)}"

    # -- statements --------------------------------------------------------

    def statement(self, depth: int = 0) -> list[str]:
        rng = self.rng
        kind = rng.randrange(10)
        pad = "    " * (depth + 1)
        if kind < 4:
            var = rng.choice(_INT_VARS)
            op = rng.choice(["=", "+=", "-=", "^=", "&=", "|="])
            return [f"{pad}{var} {op} {self.int_expr()};"]
        if kind == 4:
            return [f"{pad}arr[{self.index_expr()}] = {self.int_expr(1)};"]
        if kind == 5:
            var = rng.choice(_INT_VARS)
            return [f"{pad}{var} += arr[{self.index_expr()}];"]
        if kind == 6 and depth < 2:
            body = self.statement(depth + 1)
            other = self.statement(depth + 1)
            return ([f"{pad}if ({self.condition()}) {{"] + body
                    + [f"{pad}}} else {{"] + other + [f"{pad}}}"])
        if kind == 7 and self._loop_depth < self.max_loops and depth < 2:
            self._loop_depth += 1
            shape = rng.randrange(5)
            mask = self.array_len - 1
            # Shape 4 counts down over a *long* induction variable that
            # is narrowed to an int subscript; the others use int.
            loop_var = (f"j{self._loop_depth}" if shape == 4
                        else f"i{self._loop_depth}")
            trips = rng.randrange(2, 9)
            body = []
            for _ in range(rng.randrange(1, 3)):
                body.extend(self.statement(depth + 1))
            use = rng.choice(_INT_VARS)
            inner = "    " * (depth + 2)
            narrowed = f"(int) {loop_var}" if shape == 4 else loop_var
            body.append(f"{inner}{use} += "
                        f"arr[({narrowed} + {rng.randrange(8)}) & {mask}];")
            if shape in (1, 3, 4):
                # Array store inside a count-down loop, indexed by the
                # downward induction variable (AnalyzeARRAY Theorem 3/4).
                body.append(f"{inner}arr[({narrowed} + {rng.randrange(4)}) "
                            f"& {mask}] = {self.int_expr(2)};")
            self._loop_depth -= 1
            if shape == 0:  # count-up for
                head = (f"{pad}for (int {loop_var} = 0; {loop_var} < {trips}; "
                        f"{loop_var}++) {{")
                return [head] + body + [f"{pad}}}"]
            if shape == 1:  # count-down for
                head = (f"{pad}for (int {loop_var} = {trips}; {loop_var} > 0; "
                        f"{loop_var}--) {{")
                return [head] + body + [f"{pad}}}"]
            if shape == 4:  # count-down for over a long induction variable
                head = (f"{pad}for (long {loop_var} = {trips}L; "
                        f"{loop_var} > 0L; {loop_var}--) {{")
                return [head] + body + [f"{pad}}}"]
            if shape == 2:  # while
                return ([f"{pad}{{", f"{pad}int {loop_var} = 0;",
                         f"{pad}while ({loop_var} < {trips}) {{"]
                        + body
                        + [f"{inner}{loop_var}++;", f"{pad}}}", f"{pad}}}"])
            # do-while (always runs at least once)
            return ([f"{pad}{{", f"{pad}int {loop_var} = {trips};",
                     f"{pad}do {{"]
                    + body
                    + [f"{inner}{loop_var}--;",
                       f"{pad}}} while ({loop_var} > 0);", f"{pad}}}"])
        if kind == 8:
            var = rng.choice(_INT_VARS)
            if self.has_helper and rng.random() < 0.5:
                other = rng.choice(_INT_VARS)
                return [f"{pad}{var} ^= helper({other}, {self.int_expr(2)});"]
            return [f"{pad}acc += (long) {var};",
                    f"{pad}facc += (double) {var};"]
        if self.has_global and rng.random() < 0.4:
            var = rng.choice(_INT_VARS)
            return [f"{pad}gstate ^= {var};",
                    f"{pad}{var} += gstate;"]
        var = rng.choice(_INT_VARS)
        cast = rng.choice(["byte", "short"])
        return [f"{pad}{var} = ({cast}) ({var} + {self.int_expr(2)});"]

    # -- whole program --------------------------------------------------------

    def _helper(self) -> list[str]:
        """A small straight-line helper; calls exercise inlining and
        the ABI canonicality rules."""
        body = self.int_expr(1)
        return [
            "int helper(int x, int y) {",
            f"    int r = {body};",
            "    return r + x - y;",
            "}",
        ]

    def generate(self) -> str:
        rng = self.rng
        lines: list[str] = []
        self.has_helper = rng.random() < 0.6
        if self.has_helper:
            # Helper expressions may only use parameters.
            saved = list(_INT_VARS)
            _INT_VARS[:] = ["x", "y"]
            lines.extend(self._helper())
            _INT_VARS[:] = saved
        self.has_global = rng.random() < 0.4
        if self.has_global:
            lines.append(f"int gstate = {rng.choice(_SEED_CONSTANTS)};")
        lines.append("void main() {")
        for name in _INT_VARS:
            lines.append(f"    int {name} = {rng.choice(_SEED_CONSTANTS)};")
        lines.append(f"    int[] arr = new int[{self.array_len}];")
        lines.append(f"    for (int k = 0; k < {self.array_len}; k++) "
                     "{ arr[k] = k * 2654435761; }")
        lines.append("    long acc = 0L;")
        lines.append("    double facc = 0.0;")
        for _ in range(rng.randrange(3, self.max_statements + 1)):
            lines.extend(self.statement())
        for name in _INT_VARS:
            lines.append(f"    sink({name});")
        if self.has_global:
            lines.append("    sink(gstate);")
        lines.append("    sink(acc);")
        lines.append("    sinkd(facc);")
        lines.append(f"    for (int k = 0; k < {self.array_len}; k++) "
                     "{ sink(arr[k]); }")
        lines.append("}")
        return "\n".join(lines)


def generate_program(seed: int) -> str:
    """One deterministic random J32 source per seed."""
    return ProgramGenerator(seed).generate()
