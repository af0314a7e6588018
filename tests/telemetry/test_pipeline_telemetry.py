"""Telemetry plumbing through the compile pipeline and interpreter."""

import dataclasses
import json

import pytest

from repro.core import VARIANTS, compile_ir
from repro.interp import Interpreter
from repro.machine import MACHINES
from repro.opt import BUCKET_CHAINS, BUCKET_OTHERS, BUCKET_SIGN_EXT
from repro.telemetry import Telemetry, validate_telemetry_document
from repro.telemetry import tracer as tracer_module
from repro.workloads import all_workloads
from tests.conftest import make_fig7_program

FULL_CFG = VARIANTS["new algorithm (all)"]

_PASSES = ("constant-fold", "simplify", "copy-prop", "gcse", "licm",
           "copy-prop-cleanup", "dce")
#: (depth, name, category, sorted arg keys) of every span, depth first,
#: for make_fig7_program(8); the general opts run both rounds there.
_TREE_HEAD = [
    (0, "compile", "pipeline", ["program"]),
    (1, "inline", "pass", []),
    (1, "function:main", "pipeline", []),
    (2, "convert64", "pipeline", []),
    (2, "general-opts", "pipeline", ["function"]),
] + [(3, name, "pass", ["changed", "function"]) for name in _PASSES] * 2
_PHASE3_TREE = [
    (2, "sign-ext", "pipeline", ["function"]),
    (3, "insertion", "sign-ext", []),
    (3, "ordering", "sign-ext", []),
    (3, "chains", "sign-ext", []),
    (3, "elimination", "sign-ext", []),
]
PINNED_TREES = {
    "new algorithm (all)": _TREE_HEAD + _PHASE3_TREE,
    "first algorithm (bwd flow)": _TREE_HEAD + [
        (2, "first-algorithm", "pipeline", [])],
    "all, using PDE": _TREE_HEAD + _PHASE3_TREE,
}


def _span_names(telemetry):
    return [span.name for span in telemetry.tracer.walk()]


def _span_tree(telemetry):
    rows = []

    def visit(span, depth):
        rows.append((depth, span.name, span.category, sorted(span.args)))
        for child in span.children:
            visit(child, depth + 1)

    for root in telemetry.tracer.roots:
        visit(root, 0)
    return rows


class TestSpans:
    def test_every_pipeline_phase_has_a_span(self):
        telemetry = Telemetry()
        compile_ir(make_fig7_program(8), FULL_CFG, telemetry=telemetry)
        names = _span_names(telemetry)
        for expected in ("compile", "inline", "function:main", "convert64",
                         "general-opts", "sign-ext", "insertion",
                         "ordering", "chains", "elimination"):
            assert expected in names, f"missing span {expected!r}"

    def test_every_opt_pass_has_a_span(self):
        telemetry = Telemetry()
        compile_ir(make_fig7_program(8), FULL_CFG, telemetry=telemetry)
        names = set(_span_names(telemetry))
        for pass_name in ("constant-fold", "simplify", "copy-prop", "gcse",
                          "licm", "copy-prop-cleanup", "dce"):
            assert pass_name in names, f"missing pass span {pass_name!r}"

    @pytest.mark.parametrize("variant", sorted(PINNED_TREES))
    def test_span_tree_is_pinned(self, variant):
        telemetry = Telemetry()
        compile_ir(make_fig7_program(8), VARIANTS[variant],
                   telemetry=telemetry)
        assert _span_tree(telemetry) == PINNED_TREES[variant]

    def test_tracer_is_detached_from_the_result(self):
        compiled = compile_ir(make_fig7_program(8), FULL_CFG,
                              telemetry=Telemetry())
        assert compiled.timing.tracer is None

    def test_spans_nest_under_compile(self):
        telemetry = Telemetry()
        compile_ir(make_fig7_program(8), FULL_CFG, telemetry=telemetry)
        assert [root.name for root in telemetry.tracer.roots] == ["compile"]
        function_spans = [c for c in telemetry.tracer.roots[0].children
                          if c.name.startswith("function:")]
        assert function_spans, "function span missing under compile"


class TestMetrics:
    def test_static_before_after(self):
        telemetry = Telemetry()
        compiled = compile_ir(make_fig7_program(8), FULL_CFG,
                                   telemetry=telemetry)
        before = telemetry.metrics.counter_value(
            "compile.static_extends.before")
        after = telemetry.metrics.counter_value(
            "compile.static_extends.after")
        assert before > after
        assert after == compiled.static_extend_count

    def test_candidate_and_elimination_counters(self):
        telemetry = Telemetry()
        compiled = compile_ir(make_fig7_program(8), FULL_CFG,
                                   telemetry=telemetry)
        stats = compiled.function_stats["main"]
        assert telemetry.metrics.counter_value(
            "signext.candidates") == stats.candidates
        eliminated = sum(
            telemetry.metrics.counter_family("signext.eliminated").values()
        )
        assert eliminated == stats.eliminated

    def test_interpreter_metrics_sink(self):
        telemetry = Telemetry()
        compiled = compile_ir(make_fig7_program(8), FULL_CFG,
                                   telemetry=telemetry)
        run = Interpreter(compiled.program,
                          metrics=telemetry.metrics).run()
        metrics = telemetry.metrics
        assert metrics.counter_value("runtime.steps") == run.steps
        dynamic = sum(
            metrics.counter_family("runtime.extends").values()
        )
        assert dynamic == run.total_extends
        opcodes = metrics.counter_family("runtime.opcodes")
        assert sum(opcodes.values()) == run.steps
        assert metrics.gauge("runtime.fuel_remaining").value >= 0
        assert metrics.histogram("runtime.site_exec_counts").count > 0

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_pde_row_counts_placed_extensions(self, machine):
        """PDE removes the extensions it sinks, so its net insertion
        count is often negative; the counter counts those it placed."""
        config = VARIANTS["all, using PDE"].with_traits(MACHINES[machine])
        net_negative = 0
        for workload in all_workloads():
            telemetry = Telemetry()
            compiled = compile_ir(workload.program(), config,
                                  telemetry=telemetry)
            net = sum(s.inserted for s in compiled.function_stats.values())
            net_negative += net < 0
            placed = telemetry.metrics.counter_value("signext.inserted",
                                                     mode="pde")
            assert placed >= max(net, 0), workload.name
        assert net_negative  # the rows whose net count is negative ran


class TestDisabledTelemetry:
    def test_stats_identical_with_and_without(self):
        """The acceptance bar: telemetry off must change nothing the
        harness counts."""
        for name in ("baseline", "first algorithm (bwd flow)",
                     "basic ud/du", "new algorithm (all)"):
            config = VARIANTS[name]
            plain = compile_ir(make_fig7_program(12), config)
            telemetry = Telemetry()
            traced = compile_ir(make_fig7_program(12), config,
                                     telemetry=telemetry)
            assert plain.static_extend_count == traced.static_extend_count
            for func_name, stats in plain.function_stats.items():
                assert dataclasses.asdict(stats) == dataclasses.asdict(
                    traced.function_stats[func_name]
                ), f"{name}/{func_name} stats diverged"

    def test_no_span_constructed_when_off(self, monkeypatch):
        """Zero overhead when off: no Span object exists, yet every
        Table-3 bucket is still timed."""
        created = []

        class CountingSpan(tracer_module.Span):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                created.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tracer_module, "Span", CountingSpan)
        compiled = compile_ir(make_fig7_program(8), FULL_CFG)
        assert created == []
        for bucket in (BUCKET_SIGN_EXT, BUCKET_CHAINS, BUCKET_OTHERS):
            assert compiled.timing.seconds.get(bucket, 0.0) > 0, bucket
        # The counter does see the spans of a traced compile.
        compile_ir(make_fig7_program(8), FULL_CFG, telemetry=Telemetry())
        assert len(created) == len(PINNED_TREES["new algorithm (all)"])

    def test_compile_result_telemetry_is_none_by_default(self):
        compiled = compile_ir(make_fig7_program(8), FULL_CFG)
        assert compiled.telemetry is None


class TestDocument:
    def test_full_document_validates(self):
        telemetry = Telemetry("doc-test")
        compiled = compile_ir(make_fig7_program(8), FULL_CFG,
                                   telemetry=telemetry)
        Interpreter(compiled.program, metrics=telemetry.metrics).run()
        doc = json.loads(json.dumps(telemetry.to_dict()))
        assert validate_telemetry_document(doc) == []

    def test_validator_flags_problems(self):
        assert validate_telemetry_document({}) != []
        bad = {"schema_version": 1, "trace": {"traceEvents": [{"ph": "?"}]},
               "spans": [], "metrics": {"counters": {}, "gauges": {},
                                        "histograms": {}},
               "decisions": []}
        assert any("phase" in p for p in validate_telemetry_document(bad))

    def test_write_json(self, tmp_path):
        telemetry = Telemetry()
        compile_ir(make_fig7_program(8), FULL_CFG, telemetry=telemetry)
        path = tmp_path / "telemetry.json"
        telemetry.write_json(str(path))
        doc = json.loads(path.read_text())
        assert validate_telemetry_document(doc) == []
