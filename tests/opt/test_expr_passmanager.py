"""Tests for expression keys and the pass manager."""

import time

import pytest

from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    VReg,
    build_function,
)
from repro.opt import (
    BUCKET_CHAINS,
    BUCKET_OTHERS,
    BUCKET_SIGN_EXT,
    ExprUniverse,
    Pass,
    PassManager,
    Timing,
    all_computations,
    expr_key,
)
from repro.telemetry import Tracer


def _r(name, t=ScalarType.I32):
    return VReg(name, t)


class TestExprKey:
    def test_commutative_normalization(self):
        a = Instr(Opcode.ADD32, _r("d"), (_r("x"), _r("y")))
        b = Instr(Opcode.ADD32, _r("e"), (_r("y"), _r("x")))
        assert expr_key(a) == expr_key(b)

    def test_non_commutative_kept_ordered(self):
        a = Instr(Opcode.SUB32, _r("d"), (_r("x"), _r("y")))
        b = Instr(Opcode.SUB32, _r("e"), (_r("y"), _r("x")))
        assert expr_key(a) != expr_key(b)

    def test_cond_distinguishes(self):
        a = Instr(Opcode.CMP32, _r("p"), (_r("x"), _r("y")), cond=Cond.LT)
        b = Instr(Opcode.CMP32, _r("q"), (_r("x"), _r("y")), cond=Cond.GT)
        assert expr_key(a) != expr_key(b)

    def test_impure_ops_excluded(self):
        load = Instr(Opcode.ALOAD, _r("d"), (_r("a", ScalarType.REF), _r("i")),
                     elem=ScalarType.I32)
        assert expr_key(load) is None
        div = Instr(Opcode.DIV32, _r("d"), (_r("x"), _r("y")))
        assert expr_key(div) is None  # can trap

    def test_self_extend_detection(self):
        same = Instr(Opcode.EXTEND32, _r("x"), (_r("x"),))
        different = Instr(Opcode.EXTEND32, _r("y"), (_r("x"),))
        assert same.is_self_extend
        assert not different.is_self_extend

    def test_kills_expr(self):
        b = build_function(Program(), "main",
                           [("x", ScalarType.I32), ("y", ScalarType.I32)],
                           ScalarType.I32)
        x, y = b.func.params
        add = Instr(Opcode.ADD32, _r("d"), (x, y))
        ext = Instr(Opcode.EXTEND32, x, (x,))
        b.emit(add)
        b.emit(ext)
        b.ret(x)
        universe = ExprUniverse(all_computations(b.func))
        add_bit = 1 << universe.bits[expr_key(add)]
        ext_bit = 1 << universe.bits[expr_key(ext)]
        killer = Instr(Opcode.MOV, x, (_r("z"),))
        unrelated = Instr(Opcode.MOV, _r("w"), (_r("z"),))
        assert universe.kill_mask(killer, None) == add_bit | ext_bit
        assert universe.kill_mask(unrelated, None) == 0
        # The idempotent self-extend does not kill its own expression,
        # but it does kill other expressions reading x.
        assert universe.kill_mask(ext, expr_key(ext)) == add_bit
        # Both stay available after computing them; x = add x, y does not.
        assert universe.gen_mask(add, expr_key(add)) == add_bit
        assert universe.gen_mask(ext, expr_key(ext)) == ext_bit
        overwrite = Instr(Opcode.ADD32, x, (x, y))
        assert universe.gen_mask(overwrite, expr_key(overwrite)) == 0


class TestTiming:
    def test_accumulates(self):
        timing = Timing()
        timing.add(BUCKET_SIGN_EXT, 0.25)
        timing.add(BUCKET_SIGN_EXT, 0.25)
        timing.add(BUCKET_CHAINS, 0.5)
        assert timing.seconds[BUCKET_SIGN_EXT] == 0.5
        assert timing.total() == 1.0
        assert timing.fraction(BUCKET_CHAINS) == 0.5
        exported = timing.as_dict()
        assert exported["sign_ext"] == 0.5
        assert exported["chains"] == 0.5
        assert exported["others"] == 0.0
        assert exported["total"] == 1.0

    def test_empty_fraction(self):
        assert Timing().fraction(BUCKET_OTHERS) == 0.0

    def test_span_adds_to_its_bucket_untraced(self):
        timing = Timing()
        with timing.span("region", BUCKET_CHAINS) as span:
            span.annotate(changed=True)  # a no-op without a tracer
            time.sleep(0.001)
        assert timing.seconds[BUCKET_CHAINS] >= 0.001

    def test_span_adds_to_its_bucket_traced(self):
        tracer = Tracer()
        timing = Timing(tracer=tracer)
        with timing.span("group", function="f"):
            with timing.span("region", BUCKET_SIGN_EXT,
                             category="sign-ext") as span:
                span.annotate(changed=True)
                time.sleep(0.001)
        assert set(timing.seconds) == {BUCKET_SIGN_EXT}
        assert timing.seconds[BUCKET_SIGN_EXT] >= 0.001
        [group] = tracer.roots
        assert (group.name, group.category, group.args) == (
            "group", "pipeline", {"function": "f"})
        [region] = group.children
        assert (region.name, region.category, region.args) == (
            "region", "sign-ext", {"changed": True})
        assert region.duration_us >= 1000

    @pytest.mark.parametrize("traced", [False, True])
    def test_bucketless_span_adds_nothing(self, traced):
        timing = Timing(tracer=Tracer() if traced else None)
        with timing.span("group"):
            time.sleep(0.001)
        assert timing.seconds == {}

    @pytest.mark.parametrize("traced", [False, True])
    def test_raising_region_still_adds_and_closes(self, traced):
        tracer = Tracer() if traced else None
        timing = Timing(tracer=tracer)
        with pytest.raises(RuntimeError):
            with timing.span("region", BUCKET_OTHERS):
                time.sleep(0.001)
                raise RuntimeError("boom")
        assert timing.seconds[BUCKET_OTHERS] >= 0.001
        if traced:
            with timing.span("next"):
                pass
            # The failed region was closed: the next span is a sibling.
            assert [root.name for root in tracer.roots] == ["region", "next"]
            assert tracer.roots[0].duration_us >= 1000

    def test_tracer_is_not_part_of_the_value(self):
        traced = Timing({BUCKET_OTHERS: 1.0}, tracer=Tracer())
        assert traced == Timing({BUCKET_OTHERS: 1.0})
        assert "tracer" not in repr(traced)


class TestPassManager:
    def test_runs_passes_and_times_them(self):
        calls = []

        def slow_pass(func, _holder):
            calls.append(func)
            time.sleep(0.001)
            return False

        manager = PassManager([Pass("p", slow_pass)])
        from tests.conftest import make_fig7_program

        func = make_fig7_program(3).main
        manager.run(func)
        assert calls == [func]
        assert manager.timing.seconds[BUCKET_OTHERS] > 0

    def test_fixpoint_stops_when_stable(self):
        countdown = [3]

        def changing_pass(_func, _holder):
            countdown[0] -= 1
            return countdown[0] > 0

        manager = PassManager([Pass("p", changing_pass)])
        from tests.conftest import make_fig7_program

        manager.run_to_fixpoint(make_fig7_program(3).main, max_rounds=10)
        assert countdown[0] == 0
