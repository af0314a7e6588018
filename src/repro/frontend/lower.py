"""Lowering of the J32 AST to the repro IR (32-bit form).

The emitted IR is *pre-conversion*: every ``int`` register conceptually
holds a true 32-bit value; no canonicalizing extensions are present yet
(step 1 of the pipeline adds them).  The only extensions emitted here
are *semantic* ones demanded by the language: narrowing casts
(``(byte) x`` → ``extend8``), ``char`` casts (``zext16``), and the
``int``→``long`` widening.

Java typing rules reproduced: binary numeric promotion (byte/short/char
→ int; + long/double widening), compound assignments with implicit
narrowing casts, truncating array stores, short-circuit booleans.
"""

from __future__ import annotations

from . import ast
from ..ir.builder import FunctionBuilder
from ..ir.function import Program
from ..ir.instruction import FuncSig, Instr, VReg
from ..ir.opcodes import EXTEND_BITS, Cond, Opcode
from ..ir.types import ScalarType
from .ast import JType, Prim
from .errors import SourceError, TypeError_
from .parser import parse

_REG_TYPE = {
    Prim.INT: ScalarType.I32,
    Prim.SHORT: ScalarType.I32,
    Prim.BYTE: ScalarType.I32,
    Prim.CHAR: ScalarType.I32,
    Prim.BOOLEAN: ScalarType.I32,
    Prim.LONG: ScalarType.I64,
    Prim.DOUBLE: ScalarType.F64,
}

_ELEM_TYPE = {
    Prim.INT: ScalarType.I32,
    Prim.SHORT: ScalarType.I16,
    Prim.BYTE: ScalarType.I8,
    Prim.CHAR: ScalarType.U16,
    Prim.BOOLEAN: ScalarType.I8,
    Prim.LONG: ScalarType.I64,
    Prim.DOUBLE: ScalarType.F64,
}

_INT_BINOPS = {
    "+": Opcode.ADD32, "-": Opcode.SUB32, "*": Opcode.MUL32,
    "/": Opcode.DIV32, "%": Opcode.REM32, "&": Opcode.AND32,
    "|": Opcode.OR32, "^": Opcode.XOR32, "<<": Opcode.SHL32,
    ">>": Opcode.SHR32, ">>>": Opcode.USHR32,
}
_LONG_BINOPS = {
    "+": Opcode.ADD64, "-": Opcode.SUB64, "*": Opcode.MUL64,
    "/": Opcode.DIV64, "%": Opcode.REM64, "&": Opcode.AND64,
    "|": Opcode.OR64, "^": Opcode.XOR64, "<<": Opcode.SHL64,
    ">>": Opcode.SHR64, ">>>": Opcode.USHR64,
}
_DOUBLE_BINOPS = {
    "+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL,
    "/": Opcode.FDIV, "%": Opcode.FREM,
}
_BINOPS = {Prim.INT: _INT_BINOPS, Prim.LONG: _LONG_BINOPS,
           Prim.DOUBLE: _DOUBLE_BINOPS}
_CONDS = {"==": Cond.EQ, "!=": Cond.NE, "<": Cond.LT, "<=": Cond.LE,
          ">": Cond.GT, ">=": Cond.GE}
_CMP_OPCODES = {Prim.INT: Opcode.CMP32, Prim.LONG: Opcode.CMP64,
                Prim.DOUBLE: Opcode.CMPF}

_MATH_UNOPS = {
    "sqrt": Opcode.FSQRT, "sin": Opcode.FSIN, "cos": Opcode.FCOS,
    "exp": Opcode.FEXP, "log": Opcode.FLOG, "abs": Opcode.FABS,
    "floor": Opcode.FFLOOR,
}

#: Opcodes whose destination must not be renamed by store coalescing:
#: same-register extensions would lose their paired register.
_NO_COALESCE = frozenset({*EXTEND_BITS, Opcode.JUST_EXTENDED})


def reg_type_of(jtype: JType) -> ScalarType:
    if jtype.is_array:
        return ScalarType.REF
    return _REG_TYPE[jtype.prim]


def elem_type_of(jtype: JType) -> ScalarType:
    """Array element storage type for an array of ``jtype`` elements."""
    if jtype.is_array:
        return ScalarType.REF
    return _ELEM_TYPE[jtype.prim]


class Lowerer:
    def __init__(self) -> None:
        self.program = Program()
        self.global_types: dict[str, JType] = {}
        self.func_decls: dict[str, ast.FuncDecl] = {}

    # -- top level ----------------------------------------------------------

    def lower_unit(self, unit: ast.CompilationUnit) -> Program:
        for glob in unit.globals:
            self._declare_global(glob)
        for func in unit.functions:
            if func.name in self.func_decls:
                raise TypeError_(f"duplicate function {func.name}", func.line)
            self.func_decls[func.name] = func
        for func in unit.functions:
            _FunctionLowerer(self, func).lower()
        return self.program

    def _declare_global(self, glob: ast.GlobalDecl) -> None:
        initial: int | float = 0
        if glob.init is not None:
            initial = _const_value(glob.init)
        if glob.type.is_array:
            scalar = ScalarType.REF
        else:
            scalar = _ELEM_TYPE[glob.type.prim]
        self.program.add_global(glob.name, scalar, initial)
        self.global_types[glob.name] = glob.type


def _const_value(expr: ast.Expr) -> int | float:
    if isinstance(expr, (ast.IntLit, ast.LongLit, ast.DoubleLit, ast.CharLit)):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_const_value(expr.operand)
    raise TypeError_("global initializer must be a constant", expr.line)


class _LoopContext:
    def __init__(self, continue_block, break_block) -> None:
        self.continue_block = continue_block
        self.break_block = break_block


class _FunctionLowerer:
    def __init__(self, parent: Lowerer, decl: ast.FuncDecl) -> None:
        self.parent = parent
        self.decl = decl
        sig = FuncSig(
            tuple(reg_type_of(p.type) for p in decl.params),
            None if decl.ret.prim is Prim.VOID and not decl.ret.is_array
            else reg_type_of(decl.ret),
        )
        self.b = FunctionBuilder(parent.program, decl.name, sig)
        self.scopes: list[dict[str, tuple[VReg, JType]]] = [{}]
        self.loops: list[_LoopContext] = []
        #: registers bound to source variables (never coalesce over them)
        self._var_reg_names: set[str] = set()
        for param in decl.params:
            reg = self.b.param(f"p_{param.name}", reg_type_of(param.type))
            self.scopes[0][param.name] = (reg, param.type)
            self._var_reg_names.add(reg.name)

    # -- scope helpers --------------------------------------------------------

    def _declare(self, name: str, jtype: JType, line: int) -> VReg:
        scope = self.scopes[-1]
        if name in scope:
            raise TypeError_(f"duplicate variable {name}", line)
        reg = self.b.func.new_reg(reg_type_of(jtype), f"v_{name}_")
        scope[name] = (reg, jtype)
        self._var_reg_names.add(reg.name)
        return reg

    def _lookup(self, name: str, line: int) -> tuple[VReg, JType] | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- entry -----------------------------------------------------------------

    def lower(self) -> None:
        for stmt in self.decl.body.body:
            try:
                self._lower_stmt(stmt)
            except RecursionError:
                raise SourceError("statement nests too deeply to compile",
                                  stmt.line) from None
        # Implicit return for void functions (or a guard for non-void).
        current = self.b.current
        if not current.instrs or not current.instrs[-1].is_terminator:
            if self.decl.ret.prim is Prim.VOID and not self.decl.ret.is_array:
                self.b.ret()
            else:
                zero = self._zero_of(self.decl.ret)
                self.b.ret(zero)

    def _zero_of(self, jtype: JType) -> VReg:
        scalar = reg_type_of(jtype)
        if scalar is ScalarType.F64:
            return self.b.const(0.0, ScalarType.F64)
        if scalar is ScalarType.I64:
            return self.b.const(0, ScalarType.I64)
        if scalar is ScalarType.REF:
            return self.b.const(0, ScalarType.REF)
        return self.b.const(0, ScalarType.I32)

    # -- statements ---------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self.scopes.append({})
            try:
                self._lower_block(stmt)
            finally:
                self.scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.loops:
                raise TypeError_("break outside loop", stmt.line)
            self.b.jmp(self.loops[-1].break_block)
            self.b.switch(self.b.block("dead"))
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.loops:
                raise TypeError_("continue outside loop", stmt.line)
            self.b.jmp(self.loops[-1].continue_block)
            self.b.switch(self.b.block("dead"))
        else:  # pragma: no cover - parser produces no other statements
            raise TypeError_(f"unsupported statement {type(stmt).__name__}",
                             stmt.line)

    def _lower_block(self, block: ast.BlockStmt) -> None:
        for stmt in block.body:
            self._lower_stmt(stmt)

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        reg = self._declare(stmt.name, stmt.type, stmt.line)
        if stmt.init is not None:
            value, vtype = self._lower_expr(stmt.init)
            value = self._coerce(value, vtype, stmt.type, stmt.line)
        else:
            value = self._zero_of(stmt.type)
        self._store(value, reg)

    def _store(self, value: VReg, dest: VReg) -> None:
        """Store ``value`` into variable register ``dest``.

        When ``value`` is a just-computed expression temporary, rewrite
        the defining instruction's destination instead of emitting a
        copy.  This keeps computations directly on variable registers
        (``v = add32 v, c``), matching the IR shape the paper operates
        on, and makes the conversion-inserted extensions land on the
        variables themselves.
        """
        block = self.b.current
        if block.instrs:
            last = block.instrs[-1]
            if (last.dest is not None
                    and last.dest.name == value.name
                    and last.dest.type is dest.type
                    and value.name not in self._var_reg_names
                    and last.opcode not in _NO_COALESCE):
                last.dest = dest
                return
        self.b.mov(value, dest)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        then_block = self.b.block("then")
        join = self.b.block("join")
        else_block = self.b.block("else") if stmt.otherwise else join
        self._lower_condition(stmt.cond, then_block, else_block)
        self.b.switch(then_block)
        self._lower_stmt(stmt.then)
        self._finish_with_jump(join)
        if stmt.otherwise is not None:
            self.b.switch(else_block)
            self._lower_stmt(stmt.otherwise)
            self._finish_with_jump(join)
        self.b.switch(join)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.b.block("while_head")
        body = self.b.block("while_body")
        exit_block = self.b.block("while_exit")
        self.b.jmp(header)
        self.b.switch(header)
        self._lower_condition(stmt.cond, body, exit_block)
        self.b.switch(body)
        self.loops.append(_LoopContext(header, exit_block))
        try:
            self._lower_stmt(stmt.body)
        finally:
            self.loops.pop()
        self._finish_with_jump(header)
        self.b.switch(exit_block)

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        body = self.b.block("do_body")
        cond_block = self.b.block("do_cond")
        exit_block = self.b.block("do_exit")
        self.b.jmp(body)
        self.b.switch(body)
        self.loops.append(_LoopContext(cond_block, exit_block))
        try:
            self._lower_stmt(stmt.body)
        finally:
            self.loops.pop()
        self._finish_with_jump(cond_block)
        self.b.switch(cond_block)
        self._lower_condition(stmt.cond, body, exit_block)
        self.b.switch(exit_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        self.scopes.append({})
        try:
            if stmt.init is not None:
                self._lower_stmt(stmt.init)
            header = self.b.block("for_head")
            body = self.b.block("for_body")
            update = self.b.block("for_update")
            exit_block = self.b.block("for_exit")
            self.b.jmp(header)
            self.b.switch(header)
            if stmt.cond is not None:
                self._lower_condition(stmt.cond, body, exit_block)
            else:
                self.b.jmp(body)
            self.b.switch(body)
            self.loops.append(_LoopContext(update, exit_block))
            try:
                self._lower_stmt(stmt.body)
            finally:
                self.loops.pop()
            self._finish_with_jump(update)
            self.b.switch(update)
            if stmt.update is not None:
                self._lower_expr(stmt.update)
            self.b.jmp(header)
            self.b.switch(exit_block)
        finally:
            self.scopes.pop()

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        ret = self.decl.ret
        is_void = ret.prim is Prim.VOID and not ret.is_array
        if stmt.value is None:
            if not is_void:
                raise TypeError_("missing return value", stmt.line)
            self.b.ret()
        else:
            if is_void:
                raise TypeError_("void function returns a value", stmt.line)
            value, vtype = self._lower_expr(stmt.value)
            value = self._coerce(value, vtype, ret, stmt.line)
            self.b.ret(value)
        self.b.switch(self.b.block("dead"))

    def _finish_with_jump(self, target) -> None:
        current = self.b.current
        if not current.instrs or not current.instrs[-1].is_terminator:
            self.b.jmp(target)

    # -- conditions ------------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr, then_block, else_block) -> None:
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            middle = self.b.block("and_rhs")
            self._lower_condition(expr.lhs, middle, else_block)
            self.b.switch(middle)
            self._lower_condition(expr.rhs, then_block, else_block)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            middle = self.b.block("or_rhs")
            self._lower_condition(expr.lhs, then_block, middle)
            self.b.switch(middle)
            self._lower_condition(expr.rhs, then_block, else_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._lower_condition(expr.operand, else_block, then_block)
            return
        value, vtype = self._lower_expr(expr)
        if vtype != ast.BOOLEAN:
            raise TypeError_(f"condition must be boolean, got {vtype}",
                             expr.line)
        self.b.br(value, then_block, else_block)

    # -- expressions -------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> tuple[VReg, JType]:
        lower = _EXPR_LOWERING.get(expr.__class__)
        if lower is None:  # pragma: no cover - parser is exhaustive
            raise TypeError_(f"unsupported expression {type(expr).__name__}",
                             expr.line)
        return lower(self, expr)

    def _lower_IntLit(self, expr: ast.IntLit) -> tuple[VReg, JType]:
        value = expr.value
        if value > 0xFFFF_FFFF:
            raise TypeError_("int literal out of range", expr.line)
        if value > 0x7FFF_FFFF:  # e.g. 0x80000000 written in hex
            value -= 1 << 32
        return self.b.const(value, ScalarType.I32), ast.INT

    def _lower_LongLit(self, expr: ast.LongLit) -> tuple[VReg, JType]:
        value = expr.value
        if value > 0xFFFF_FFFF_FFFF_FFFF:
            raise TypeError_("long literal out of range", expr.line)
        if value > 0x7FFF_FFFF_FFFF_FFFF:
            value -= 1 << 64
        return self.b.const(value, ScalarType.I64), ast.LONG

    def _lower_DoubleLit(self, expr: ast.DoubleLit) -> tuple[VReg, JType]:
        return self.b.const(expr.value, ScalarType.F64), ast.DOUBLE

    def _lower_BoolLit(self, expr: ast.BoolLit) -> tuple[VReg, JType]:
        return self.b.const(int(expr.value), ScalarType.I32), ast.BOOLEAN

    def _lower_CharLit(self, expr: ast.CharLit) -> tuple[VReg, JType]:
        return self.b.const(expr.value, ScalarType.I32), ast.CHAR

    def _lower_VarRef(self, expr: ast.VarRef) -> tuple[VReg, JType]:
        local = self._lookup(expr.name, expr.line)
        if local is not None:
            return local
        gtype = self.parent.global_types.get(expr.name)
        if gtype is None:
            raise TypeError_(f"undefined variable {expr.name}", expr.line)
        storage = (ScalarType.REF if gtype.is_array
                   else _ELEM_TYPE[gtype.prim])
        dest = self.b.func.new_reg(reg_type_of(gtype), "g")
        self.b.emit(Instr(Opcode.GLOAD, dest, (), gname=expr.name,
                          elem=storage))
        return dest, gtype

    def _lower_Binary(self, expr: ast.Binary) -> tuple[VReg, JType]:
        if expr.op in ("&&", "||"):
            return self._lower_bool_value(expr)
        if expr.op in _CONDS:
            return self._lower_comparison(expr)
        # ``a + b + c`` nests down its left operands: lower that spine of
        # arithmetic, bitwise and shift operators (the keys of
        # ``_INT_BINOPS``) in a loop, innermost first, so a long chain
        # needs no deep recursion.
        spine = [expr]
        lhs = expr.lhs
        while lhs.__class__ is ast.Binary and lhs.op in _INT_BINOPS:
            spine.append(lhs)
            lhs = lhs.lhs
        value, vtype = self._lower_expr(lhs)
        for node in reversed(spine):
            value, vtype = self._lower_arithmetic(node, value, vtype)
        return value, vtype

    def _lower_arithmetic(self, expr: ast.Binary, lhs: VReg,
                          ltype: JType) -> tuple[VReg, JType]:
        """``lhs op rhs`` for an arithmetic, bitwise or shift ``op``, with
        ``lhs`` already lowered."""
        rhs, rtype = self._lower_expr(expr.rhs)
        if expr.op in ("&", "|", "^") and ltype == ast.BOOLEAN \
                and rtype == ast.BOOLEAN:
            opcode = _INT_BINOPS[expr.op]
            return self.b.binop(opcode, lhs, rhs), ast.BOOLEAN
        if expr.op in ("<<", ">>", ">>>"):
            return self._lower_shift(expr, lhs, ltype, rhs, rtype)
        result_type = self._promote2(ltype, rtype, expr.line)
        lhs = self._coerce(lhs, ltype, result_type, expr.line)
        rhs = self._coerce(rhs, rtype, result_type, expr.line)
        table = _BINOPS[result_type.prim]
        if expr.op not in table:
            raise TypeError_(f"operator {expr.op} not valid for {result_type}",
                             expr.line)
        return self.b.binop(table[expr.op], lhs, rhs), result_type

    def _lower_shift(self, expr: ast.Binary, lhs, ltype, rhs, rtype):
        if not ltype.is_integral or not rtype.is_integral:
            raise TypeError_("shift needs integral operands", expr.line)
        value_type = ast.LONG if ltype == ast.LONG else ast.INT
        lhs = self._coerce(lhs, ltype, value_type, expr.line)
        rhs = self._coerce(rhs, rtype, ast.INT, expr.line)
        table = _LONG_BINOPS if value_type == ast.LONG else _INT_BINOPS
        return self.b.binop(table[expr.op], lhs, rhs), value_type

    def _lower_comparison(self, expr: ast.Binary) -> tuple[VReg, JType]:
        lhs, ltype = self._lower_expr(expr.lhs)
        rhs, rtype = self._lower_expr(expr.rhs)
        cond = _CONDS[expr.op]
        if ltype == ast.BOOLEAN and rtype == ast.BOOLEAN:
            if expr.op not in ("==", "!="):
                raise TypeError_("ordering on booleans", expr.line)
            return self.b.cmp(Opcode.CMP32, cond, lhs, rhs), ast.BOOLEAN
        if ltype.is_array or rtype.is_array:
            raise TypeError_("cannot compare arrays", expr.line)
        common = self._promote2(ltype, rtype, expr.line)
        lhs = self._coerce(lhs, ltype, common, expr.line)
        rhs = self._coerce(rhs, rtype, common, expr.line)
        opcode = _CMP_OPCODES[common.prim]
        return self.b.cmp(opcode, cond, lhs, rhs), ast.BOOLEAN

    def _lower_bool_value(self, expr: ast.Expr) -> tuple[VReg, JType]:
        """A short-circuit expression in value position."""
        result = self.b.func.new_reg(ScalarType.I32, "bool")
        then_block = self.b.block("btrue")
        else_block = self.b.block("bfalse")
        join = self.b.block("bjoin")
        self._lower_condition(expr, then_block, else_block)
        self.b.switch(then_block)
        one = self.b.const(1, ScalarType.I32)
        self.b.mov(one, result)
        self.b.jmp(join)
        self.b.switch(else_block)
        zero = self.b.const(0, ScalarType.I32)
        self.b.mov(zero, result)
        self.b.jmp(join)
        self.b.switch(join)
        return result, ast.BOOLEAN

    def _lower_Unary(self, expr: ast.Unary) -> tuple[VReg, JType]:
        if expr.op == "!":
            return self._lower_bool_value(expr)
        value, vtype = self._lower_expr(expr.operand)
        if expr.op == "-":
            if vtype == ast.DOUBLE:
                return self.b.unop(Opcode.FNEG, value), ast.DOUBLE
            if vtype == ast.LONG:
                return self.b.unop(Opcode.NEG64, value), ast.LONG
            if vtype.is_integral:
                value = self._coerce(value, vtype, ast.INT, expr.line)
                return self.b.unop(Opcode.NEG32, value), ast.INT
        if expr.op == "~":
            if vtype == ast.LONG:
                return self.b.unop(Opcode.NOT64, value), ast.LONG
            if vtype.is_integral:
                value = self._coerce(value, vtype, ast.INT, expr.line)
                return self.b.unop(Opcode.NOT32, value), ast.INT
        raise TypeError_(f"operator {expr.op} not valid for {vtype}",
                         expr.line)

    def _lower_Ternary(self, expr: ast.Ternary) -> tuple[VReg, JType]:
        then_block = self.b.block("ttrue")
        else_block = self.b.block("tfalse")
        join = self.b.block("tjoin")
        self._lower_condition(expr.cond, then_block, else_block)
        self.b.switch(then_block)
        then_value, then_type = self._lower_expr(expr.then)
        then_exit = self.b.current
        self.b.switch(else_block)
        else_value, else_type = self._lower_expr(expr.otherwise)
        else_exit = self.b.current
        if then_type == else_type:
            common = then_type
        else:
            common = self._promote2(then_type, else_type, expr.line)
        result = self.b.func.new_reg(reg_type_of(common), "sel")
        self.b.switch(then_exit)
        coerced = self._coerce(then_value, then_type, common, expr.line)
        self.b.mov(coerced, result)
        self.b.jmp(join)
        self.b.switch(else_exit)
        coerced = self._coerce(else_value, else_type, common, expr.line)
        self.b.mov(coerced, result)
        self.b.jmp(join)
        self.b.switch(join)
        return result, common

    def _lower_Index(self, expr: ast.Index) -> tuple[VReg, JType]:
        array, atype = self._lower_expr(expr.array)
        if not atype.is_array:
            raise TypeError_(f"indexing non-array {atype}", expr.line)
        index, itype = self._lower_expr(expr.index)
        index = self._coerce(index, itype, ast.INT, expr.line)
        elem = atype.element
        value = self.b.aload(array, index, elem_type_of(elem))
        return value, elem

    def _lower_Length(self, expr: ast.Length) -> tuple[VReg, JType]:
        array, atype = self._lower_expr(expr.array)
        if not atype.is_array:
            raise TypeError_(".length on non-array", expr.line)
        return self.b.arraylen(array), ast.INT

    def _lower_NewArray(self, expr: ast.NewArray) -> tuple[VReg, JType]:
        dims: list[VReg] = []
        for dim in expr.dims:
            value, vtype = self._lower_expr(dim)
            dims.append(self._coerce(value, vtype, ast.INT, expr.line))
        return self._alloc(expr.type, dims, 0, expr.line), expr.type

    def _alloc(self, jtype: JType, dims: list[VReg], depth: int,
               line: int) -> VReg:
        elem = jtype.element
        array = self.b.newarray(elem_type_of(elem), dims[depth])
        if depth + 1 < len(dims):
            counter = self.b.func.new_reg(ScalarType.I32, "allocidx")
            zero = self.b.const(0, ScalarType.I32)
            one = self.b.const(1, ScalarType.I32)
            self.b.mov(zero, counter)
            header = self.b.block("alloc_head")
            body = self.b.block("alloc_body")
            done = self.b.block("alloc_done")
            self.b.jmp(header)
            self.b.switch(header)
            in_range = self.b.cmp(Opcode.CMP32, Cond.LT, counter, dims[depth])
            self.b.br(in_range, body, done)
            self.b.switch(body)
            inner = self._alloc(elem, dims, depth + 1, line)
            self.b.astore(array, counter, inner, ScalarType.REF)
            self.b.binop(Opcode.ADD32, counter, one, counter)
            self.b.jmp(header)
            self.b.switch(done)
        return array

    def _lower_Cast(self, expr: ast.Cast) -> tuple[VReg, JType]:
        value, vtype = self._lower_expr(expr.operand)
        target = expr.type
        if target == vtype:
            return value, vtype
        if target.is_array or vtype.is_array:
            raise TypeError_("cannot cast array types", expr.line)
        return self._convert(value, vtype, target, expr.line), target

    def _lower_Call(self, expr: ast.Call) -> tuple[VReg, JType]:
        if expr.name == "sink":
            return self._lower_sink(expr, False)
        if expr.name == "sinkd":
            return self._lower_sink(expr, True)
        decl = self.parent.func_decls.get(expr.name)
        if decl is None:
            raise TypeError_(f"undefined function {expr.name}", expr.line)
        if len(expr.args) != len(decl.params):
            raise TypeError_(
                f"{expr.name} expects {len(decl.params)} args", expr.line
            )
        args: list[VReg] = []
        for arg, param in zip(expr.args, decl.params):
            value, vtype = self._lower_expr(arg)
            args.append(self._coerce(value, vtype, param.type, expr.line))
        is_void = decl.ret.prim is Prim.VOID and not decl.ret.is_array
        ret_type = None if is_void else reg_type_of(decl.ret)
        result = self.b.call(expr.name, args, ret_type)
        if result is None:
            # Void value: usable only as a statement; give a dummy.
            return self.b.const(0, ScalarType.I32), ast.VOID
        return result, decl.ret

    def _lower_sink(self, expr: ast.Call, is_double: bool) -> tuple[VReg, JType]:
        if len(expr.args) != 1:
            raise TypeError_("sink takes one argument", expr.line)
        value, vtype = self._lower_expr(expr.args[0])
        if is_double:
            value = self._coerce(value, vtype, ast.DOUBLE, expr.line)
        elif vtype == ast.LONG:
            pass
        elif vtype.is_integral or vtype == ast.BOOLEAN:
            value = self._coerce(value, vtype, ast.INT, expr.line)
        else:
            raise TypeError_(f"cannot sink {vtype}", expr.line)
        self.b.sink(value)
        return self.b.const(0, ScalarType.I32), ast.VOID

    def _lower_MathCall(self, expr: ast.MathCall) -> tuple[VReg, JType]:
        if expr.fn == "pow":
            if len(expr.args) != 2:
                raise TypeError_("Math.pow takes two arguments", expr.line)
            a, at = self._lower_expr(expr.args[0])
            b, bt = self._lower_expr(expr.args[1])
            a = self._coerce(a, at, ast.DOUBLE, expr.line)
            b = self._coerce(b, bt, ast.DOUBLE, expr.line)
            return self.b.binop(Opcode.FPOW, a, b), ast.DOUBLE
        opcode = _MATH_UNOPS.get(expr.fn)
        if opcode is None:
            raise TypeError_(f"unknown Math.{expr.fn}", expr.line)
        if len(expr.args) != 1:
            raise TypeError_(f"Math.{expr.fn} takes one argument", expr.line)
        value, vtype = self._lower_expr(expr.args[0])
        value = self._coerce(value, vtype, ast.DOUBLE, expr.line)
        return self.b.unop(opcode, value), ast.DOUBLE

    def _lower_Assign(self, expr: ast.Assign) -> tuple[VReg, JType]:
        target = expr.target
        if isinstance(target, ast.VarRef):
            return self._assign_var(expr, target)
        if isinstance(target, ast.Index):
            return self._assign_index(expr, target)
        raise TypeError_("invalid assignment target", expr.line)

    def _assign_var(self, expr: ast.Assign, target: ast.VarRef):
        local = self._lookup(target.name, target.line)
        if local is None:
            return self._assign_global(expr, target)
        reg, jtype = local
        value = self._rhs_value(expr, reg, jtype)
        self._store(value, reg)
        return reg, jtype

    def _assign_global(self, expr: ast.Assign, target: ast.VarRef):
        gtype = self.parent.global_types.get(target.name)
        if gtype is None:
            raise TypeError_(f"undefined variable {target.name}", target.line)
        if expr.op != "=":
            current, _ = self._lower_VarRef(target)
            value = self._compound(expr, current, gtype)
        else:
            raw, vtype = self._lower_expr(expr.value)
            value = self._coerce(raw, vtype, gtype, expr.line)
        scalar = ScalarType.REF if gtype.is_array else _ELEM_TYPE[gtype.prim]
        self.b.gstore(target.name, value, scalar)
        return value, gtype

    def _assign_index(self, expr: ast.Assign, target: ast.Index):
        array, atype = self._lower_expr(target.array)
        if not atype.is_array:
            raise TypeError_("indexing non-array", expr.line)
        index, itype = self._lower_expr(target.index)
        index = self._coerce(index, itype, ast.INT, expr.line)
        elem = atype.element
        if expr.op != "=":
            current = self.b.aload(array, index, elem_type_of(elem))
            value = self._compound(expr, current, elem)
        else:
            raw, vtype = self._lower_expr(expr.value)
            value = self._coerce_store(raw, vtype, elem, expr.line)
        self.b.astore(array, index, value, elem_type_of(elem))
        return value, elem

    def _rhs_value(self, expr: ast.Assign, current: VReg, jtype: JType) -> VReg:
        if expr.op == "=":
            raw, vtype = self._lower_expr(expr.value)
            return self._coerce(raw, vtype, jtype, expr.line)
        return self._compound(expr, current, jtype)

    def _compound(self, expr: ast.Assign, current: VReg, jtype: JType) -> VReg:
        """``x op= v``: Java's implicit ``x = (T)(x op v)``."""
        op = expr.op[:-1]
        synthetic = ast.Binary(op=op, lhs=_Materialized(current, jtype),
                               rhs=expr.value, line=expr.line)
        value, vtype = self._lower_Binary(synthetic)
        return self._convert(value, vtype, jtype, expr.line) \
            if vtype != jtype else value

    def _lower__Materialized(self, expr: "_Materialized"):
        return expr.reg, expr.jtype

    def _lower_IncDec(self, expr: ast.IncDec) -> tuple[VReg, JType]:
        op = "+=" if expr.op == "++" else "-="
        assign = ast.Assign(target=expr.target, op=op,
                            value=ast.IntLit(value=1, line=expr.line),
                            line=expr.line)
        return self._lower_Assign(assign)

    # -- coercions -----------------------------------------------------------------------

    def _promote2(self, a: JType, b: JType, line: int) -> JType:
        if not a.is_numeric or not b.is_numeric:
            raise TypeError_(f"numeric operands required, got {a} and {b}",
                             line)
        if ast.DOUBLE in (a, b):
            return ast.DOUBLE
        if ast.LONG in (a, b):
            return ast.LONG
        return ast.INT

    def _coerce(self, reg: VReg, from_: JType, to: JType, line: int) -> VReg:
        """Implicit (widening) coercion."""
        if from_ == to:
            return reg
        if to.is_array or from_.is_array:
            raise TypeError_(f"cannot convert {from_} to {to}", line)
        if from_ == ast.BOOLEAN or to == ast.BOOLEAN:
            raise TypeError_(f"cannot convert {from_} to {to}", line)
        if not _widens(from_, to):
            raise TypeError_(f"needs explicit cast: {from_} to {to}", line)
        return self._convert(reg, from_, to, line)

    def _coerce_store(self, reg: VReg, from_: JType, elem: JType,
                      line: int) -> VReg:
        """Array stores truncate like the JVM's ``bastore``/``castore``:
        an int may be stored into a narrower element directly."""
        if from_ == elem:
            return reg
        if elem in (ast.BYTE, ast.SHORT, ast.CHAR) and from_ == ast.INT:
            return reg  # the store itself truncates
        return self._coerce(reg, from_, elem, line)

    def _convert(self, reg: VReg, from_: JType, to: JType, line: int) -> VReg:
        """Explicit conversion (casts + widenings)."""
        if from_ == to:
            return reg
        fp, tp = from_.prim, to.prim
        if from_.is_array or to.is_array or fp is Prim.BOOLEAN \
                or tp is Prim.BOOLEAN:
            raise TypeError_(f"cannot cast {from_} to {to}", line)

        # Normalize the source to int/long/double first.
        if fp in (Prim.BYTE, Prim.SHORT, Prim.CHAR):
            return self._convert(reg, ast.INT, to, line)
        if fp is Prim.INT:
            if tp is Prim.LONG:
                dest = self.b.func.new_reg(ScalarType.I64, "wide")
                self.b.emit(Instr(Opcode.EXTEND32, dest, (reg,)))
                return dest
            if tp is Prim.DOUBLE:
                return self.b.unop(Opcode.I2D, reg)
            return self._narrow_int(reg, tp, line)
        if fp is Prim.LONG:
            if tp is Prim.DOUBLE:
                return self.b.unop(Opcode.L2D, reg)
            narrowed = self.b.unop(Opcode.TRUNC32, reg)
            if tp is Prim.INT:
                return narrowed
            return self._narrow_int(narrowed, tp, line)
        if fp is Prim.DOUBLE:
            if tp is Prim.LONG:
                return self.b.unop(Opcode.D2L, reg)
            as_int = self.b.unop(Opcode.D2I, reg)
            if tp is Prim.INT:
                return as_int
            return self._narrow_int(as_int, tp, line)
        raise TypeError_(f"cannot cast {from_} to {to}", line)

    def _narrow_int(self, reg: VReg, tp: Prim, line: int) -> VReg:
        """(byte)/(short)/(char) of an int value.  Emitted as a copy
        followed by a same-register extension so the extension is an
        elimination candidate."""
        dest = self.b.func.new_reg(ScalarType.I32, "cast")
        self.b.mov(reg, dest)
        if tp is Prim.BYTE:
            self.b.emit(Instr(Opcode.EXTEND8, dest, (dest,)))
        elif tp is Prim.SHORT:
            self.b.emit(Instr(Opcode.EXTEND16, dest, (dest,)))
        elif tp is Prim.CHAR:
            self.b.emit(Instr(Opcode.ZEXT16, dest, (dest,)))
        else:  # pragma: no cover - caller filters
            raise TypeError_(f"bad narrowing target {tp}", line)
        return dest


class _Materialized(ast.Expr):
    """An already-lowered value wrapped as an expression node."""

    def __init__(self, reg: VReg, jtype: JType) -> None:
        super().__init__(line=0)
        self.reg = reg
        self.jtype = jtype


#: :func:`_widens` order of the numeric primitives
_WIDTH_ORDER = {Prim.BYTE: 0, Prim.SHORT: 1, Prim.CHAR: 1, Prim.INT: 2,
                Prim.LONG: 3, Prim.DOUBLE: 4}


def _widens(from_: JType, to: JType) -> bool:
    order = _WIDTH_ORDER
    if from_.prim not in order or to.prim not in order:
        return False
    if from_.prim is Prim.CHAR and to.prim is Prim.SHORT:
        return False
    if from_.prim is Prim.SHORT and to.prim is Prim.CHAR:
        return False
    return order[from_.prim] <= order[to.prim]


#: ``_FunctionLowerer._lower_<class name>`` by expression class
_EXPR_LOWERING = {
    cls: getattr(_FunctionLowerer, f"_lower_{cls.__name__}")
    for cls in (ast.IntLit, ast.LongLit, ast.DoubleLit, ast.BoolLit,
                ast.CharLit, ast.VarRef, ast.Binary, ast.Unary, ast.Ternary,
                ast.Index, ast.Length, ast.NewArray, ast.Cast, ast.Call,
                ast.MathCall, ast.Assign, ast.IncDec, _Materialized)
}


def compile_source(source: str, name: str = "program") -> Program:
    """Parse and lower J32 source text to a 32-bit-form IR program."""
    unit = parse(source)
    lowerer = Lowerer()
    program = lowerer.lower_unit(unit)
    program.name = name
    from ..ir.verifier import verify_program

    verify_program(program)
    return program
