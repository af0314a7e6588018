"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import main
from repro.core import VARIANTS
from repro.machine import MACHINES
from repro.telemetry import validate_telemetry_document
from repro.workloads import JBYTEMARK, SPECJVM98

SOURCE = """
double main() {
    int[] a = new int[32];
    int t = 0;
    for (int i = 0; i < 32; i++) { a[i] = i * 5; }
    for (int i = 31; i > 0; i--) { t += a[i]; }
    double d = (double) t;
    sinkd(d);
    return d;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.j32"
    path.write_text(SOURCE)
    return str(path)


class TestRun:
    def test_run_prints_result(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "result" in out
        assert "verified against gold" in out

    def test_run_baseline_variant(self, source_file, capsys):
        assert main(["run", source_file, "--variant", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "32-bit" in out

    def test_run_ppc64(self, source_file, capsys):
        assert main(["run", source_file, "--machine", "ppc64"]) == 0


class TestIR:
    def test_ir_dump(self, source_file, capsys):
        assert main(["ir", source_file]) == 0
        out = capsys.readouterr().out
        assert "func @main" in out
        assert "aload" in out


class TestAsm:
    def test_ia64_asm(self, source_file, capsys):
        assert main(["asm", source_file, "--variant", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "shladd" in out

    def test_ppc64_asm(self, source_file, capsys):
        assert main(["asm", source_file, "--machine", "ppc64",
                     "--variant", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "rldic" in out


class TestVariants:
    def test_variant_table(self, source_file, capsys):
        assert main(["variants", source_file]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "new algorithm (all)" in out
        assert "100.00%" in out


class TestBench:
    def test_unknown_workload(self, capsys):
        assert main(["bench", "doom"]) == 1
        err = capsys.readouterr().err
        assert "unknown workload" in err


class TestCompile:
    def test_single_file(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "extends" in out
        assert "eliminated" in out

    def test_many_files_one_line_each(self, source_file, tmp_path, capsys):
        other = tmp_path / "other.j32"
        other.write_text(SOURCE.replace("* 5", "* 7"))
        assert main(["compile", source_file, str(other)]) == 0
        out = capsys.readouterr().out
        assert out.count("eliminated") == 2

    def test_cache_cold_then_warm(self, source_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["compile", source_file, "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert "[cache: 0 hits, 1 misses]" in capsys.readouterr().out
        assert main(argv) == 0
        assert "[cache: 1 hits, 0 misses]" in capsys.readouterr().out

    def test_stats_output(self, source_file, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main(["compile", source_file, "--jobs", "1",
                     "--stats", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["driver.pool.jobs"] == 1
        assert stats["driver.pool.compiled{mode=inline}"] == 1


class TestBenchDriver:
    def test_bench_cache_warm_rerun_identical(self, tmp_path, capsys):
        from repro.harness import strip_volatile

        cache_dir = str(tmp_path / "cache")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        base = ["bench", "fourier", "--cache", "--cache-dir", cache_dir]

        assert main(base + ["--json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        assert "[cache: 0 hits, 12 misses]" in cold_out

        assert main(base + ["--json", str(warm_json)]) == 0
        warm_out = capsys.readouterr().out
        assert "[cache: 12 hits, 0 misses]" in warm_out

        cold = strip_volatile(json.loads(cold_json.read_text()))
        warm = strip_volatile(json.loads(warm_json.read_text()))
        assert cold == warm

    def test_bench_stats_file(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main(["bench", "fourier", "--stats", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["driver.pool.jobs"] == 12


class TestTelemetryFlag:
    def test_run_writes_telemetry_document(self, source_file, tmp_path,
                                           capsys):
        out = tmp_path / "telemetry.json"
        assert main(["run", source_file, "--telemetry", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_telemetry_document(doc) == []
        assert doc["label"] == "kernel"
        # Both compile-time and run-time metrics are present.
        counters = doc["metrics"]["counters"]
        assert any(k.startswith("compile.") for k in counters)
        assert any(k.startswith("runtime.") for k in counters)

    def test_ir_writes_compile_only_telemetry(self, source_file, tmp_path,
                                              capsys):
        out = tmp_path / "telemetry.json"
        assert main(["ir", source_file, "--telemetry", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_telemetry_document(doc) == []
        counters = doc["metrics"]["counters"]
        assert not any(k.startswith("runtime.") for k in counters)


class TestTrace:
    def test_trace_writes_chrome_json(self, source_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", source_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"compile", "sign-ext", "elimination"} <= names
        for event in complete:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
        text = capsys.readouterr().out
        assert "decisions" in text

    def test_trace_full_document(self, source_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        full = tmp_path / "full.json"
        assert main(["trace", source_file, "--out", str(trace),
                     "--full", str(full)]) == 0
        doc = json.loads(full.read_text())
        assert validate_telemetry_document(doc) == []
        assert doc["decisions"], "decision log should not be empty"


class TestPerf:
    def _record(self, history, capsys):
        code = main(["perf", "record", "--workloads", "fourier",
                     "--engines", "closure", "--repeat", "1",
                     "--fuel", "2000000", "--history", str(history)])
        assert code == 0
        return capsys.readouterr().out

    def test_record_appends_history(self, tmp_path, capsys):
        history = tmp_path / "ph"
        out = self._record(history, capsys)
        assert "recorded" in out
        lines = (history / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2  # two default variants x one repeat
        for line in lines:
            record = json.loads(line)
            assert record["workload"] == "fourier"
            assert record["phases"]["execute"] > 0

    def test_compare_against_previous_run(self, tmp_path, capsys):
        history = tmp_path / "ph"
        self._record(history, capsys)
        self._record(history, capsys)
        verdict = tmp_path / "verdict.json"
        # Wide threshold: this tests the pairing/JSON/exit plumbing;
        # the noise model itself is unit-tested in tests/perf/ (one
        # repeat has no MAD cushion, so a loaded machine could trip a
        # tight gate here and make the test flaky).
        assert main(["perf", "compare", "--history", str(history),
                     "--threshold", "500%",
                     "--json", str(verdict)]) == 0
        out = capsys.readouterr().out
        assert "previous recorded run" in out
        doc = json.loads(verdict.read_text())
        assert doc["ok"] is True
        assert len(doc["cells"]) == 2

    def test_compare_single_run_needs_baseline(self, tmp_path, capsys):
        history = tmp_path / "ph"
        self._record(history, capsys)
        assert main(["perf", "compare", "--history",
                     str(history)]) == 2

    def test_fail_on_regression_gates(self, tmp_path, capsys):
        """A baseline whose deterministic counts are better than the
        current run trips the gate (exit 1) — no timing flakiness."""
        history = tmp_path / "ph"
        self._record(history, capsys)
        baseline = tmp_path / "baseline.jsonl"
        with open(baseline, "w") as handle:
            for line in (history / "history.jsonl").read_text() \
                    .splitlines():
                record = json.loads(line)
                record["measures"]["dyn_extend32"] -= 1
                handle.write(json.dumps(record) + "\n")
        assert main(["perf", "compare", "--history", str(history),
                     "--against", str(baseline),
                     "--fail-on-regression", "10%"]) == 1

    def test_report_writes_self_contained_html(self, tmp_path, capsys):
        history = tmp_path / "ph"
        self._record(history, capsys)
        out_file = tmp_path / "dash.html"
        assert main(["perf", "report", "--history", str(history),
                     "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert "<svg" in html
        assert "<script src" not in html and "<link" not in html


class TestProfile:
    def test_profile_source_file_summary(self, source_file, capsys):
        assert main(["profile", source_file]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "main" in out

    def test_profile_registry_workload(self, capsys):
        assert main(["profile", "huffman", "--fuel", "2000000"]) == 0
        out = capsys.readouterr().out
        assert "huffman" in out

    def test_unknown_target(self, capsys):
        assert main(["profile", "no-such-workload"]) == 1
        assert "no-such-workload" in capsys.readouterr().err

    def test_profile_writes_artifact(self, source_file, tmp_path, capsys):
        from repro.profile import load_profiles, validate_artifact_file

        out_dir = tmp_path / "profiles"
        assert main(["profile", source_file,
                     "--dir", str(out_dir)]) == 0
        artifacts = list(out_dir.iterdir())
        assert len(artifacts) == 1
        validate_artifact_file(artifacts[0])
        assert len(load_profiles(out_dir)) == 1

    def test_profile_renderer_outputs(self, source_file, tmp_path,
                                      capsys):
        flame = tmp_path / "flame.txt"
        heat = tmp_path / "heat.html"
        assert main(["profile", source_file, "--ir",
                     "--flame", str(flame),
                     "--heatmap", str(heat)]) == 0
        out = capsys.readouterr().out
        assert "func @main" in out  # annotated IR dump
        stacks = flame.read_text()
        assert stacks.startswith("main")
        html = heat.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert 'class="cell' in html
        assert "<script" not in html

    def test_profile_engine_both(self, source_file, capsys):
        assert main(["profile", source_file, "--engine", "both"]) == 0

    def test_bench_profile_dir(self, tmp_path, capsys):
        from repro.core import VARIANTS
        from repro.profile import load_profiles

        out_dir = tmp_path / "profiles"
        assert main(["bench", "bitfield",
                     "--profile-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "profile artifacts written" in out
        loaded = load_profiles(out_dir)
        assert len(loaded) == len(VARIANTS)  # one artifact per cell
        assert all(p.workload == "bitfield" for p in loaded)

    def test_perf_report_embeds_profiles(self, source_file, tmp_path,
                                         capsys):
        profiles = tmp_path / "profiles"
        assert main(["profile", source_file,
                     "--dir", str(profiles)]) == 0
        history = tmp_path / "ph"
        assert main(["perf", "record", "--workloads", "fourier",
                     "--engines", "closure", "--repeat", "1",
                     "--fuel", "2000000",
                     "--history", str(history)]) == 0
        out_file = tmp_path / "dash.html"
        assert main(["perf", "report", "--history", str(history),
                     "--profiles", str(profiles),
                     "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert "hot blocks (profile artifacts)" in html
        assert 'class="cell' in html
        assert "<script src" not in html and "<link" not in html


class TestErrorPaths:
    """Bad input exits non-zero with a one-line diagnostic, never a
    traceback (stderr must not contain 'Traceback')."""

    def test_malformed_source_is_a_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.j32"
        bad.write_text("void main() { nope")
        assert main(["run", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_malformed_source_on_compile(self, tmp_path, capsys):
        bad = tmp_path / "bad.j32"
        bad.write_text("int main() { return }")
        assert main(["compile", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.j32"
        assert main(["run", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "no such file" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_workload_on_bench(self, capsys):
        assert main(["bench", "nope"]) == 1
        captured = capsys.readouterr()
        assert "unknown workload 'nope'" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_variant_is_usage_error(self, source_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", source_file, "--variant", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_engine_is_usage_error(self, source_file, capsys):
        for engine in ("jit", "codegen"):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", source_file, "--engine", engine])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--layout-profile", "hot.profile.json"],
        ["ir", "--emit-python"],
        ["variants", "--variant", "baseline"],
    ], ids=["layout-profile", "emit-python", "variants-variant"])
    def test_removed_flag_is_usage_error(self, source_file, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], source_file, *argv[1:]])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"repro: error: unrecognized arguments: {' '.join(argv[1:])}"]

    @pytest.mark.parametrize("argv", [
        ["compile", "FILE", "--jobs", "0"],
        ["bench", "huffman", "--jobs", "0"],
        ["report", "--jobs", "0"],
        ["fuzz", "--jobs", "0"],
        ["perf", "record", "--jobs", "0"],
        ["serve", "--workers", "0"],
        ["loadtest", "--spawn", "--workers", "0"],
        ["serve", "--port", "99999"],
        ["perf", "record", "--workloads", "nope"],
    ], ids=["compile-jobs", "bench-jobs", "report-jobs", "fuzz-jobs",
            "perf-record-jobs", "serve-workers", "loadtest-workers",
            "serve-port", "perf-record-workloads"])
    def test_out_of_range_value_is_usage_error(self, source_file, argv,
                                               capsys):
        argv = [source_file if arg == "FILE" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert f"argument {argv[-2]}: " in errors[0]


class TestCacheCommand:
    def test_stats_prune_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        source = tmp_path / "k.j32"
        source.write_text("void main() { int x = 1; sink(x); }")
        # Populate via a cached compile, then inspect.
        assert main(["compile", str(source), "--cache",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out
        assert "unbounded" in out

        # prune without a budget is a usage error...
        assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 2
        assert "no byte budget" in capsys.readouterr().err
        # ...with a huge budget nothing is evicted...
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--cache-max-bytes", "100000000"]) == 0
        assert "evicted   : 0" in capsys.readouterr().out
        # ...with a tiny one everything goes.
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--cache-max-bytes", "1"]) == 0
        assert "evicted   : 1" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert list(cache_dir.glob("*.pkl")) == []


class TestServeCommands:
    def test_loadtest_spawn_round_trip(self, tmp_path, capsys):
        report_path = tmp_path / "loadtest.json"
        history = tmp_path / "history"
        assert main(["loadtest", "--spawn", "--requests", "8",
                     "--concurrency", "4", "--fuel", "1000000",
                     "--json", str(report_path),
                     "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "8 offered, 8 completed" in out
        assert "bit-identical" in out
        document = json.loads(report_path.read_text())
        assert document["errors"] == 0
        assert document["completed"] == 8
        assert document["latency_ms"]["p50"] > 0
        # The campaign landed in perf history as engine="serve" rows.
        from repro.perf import HistoryStore

        records = HistoryStore(history).records()
        assert len(records) == 1
        assert records[0].engine == "serve"
        assert records[0].source == "loadtest"


class _Captured(Exception):
    """Raised by a hook to stop a handler once its config is built."""


def _parser():
    """The root parser ``main`` builds, captured before it parses."""
    captured = []

    def capture(self, *args, **kwargs):
        captured.append(self)
        raise _Captured

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = capture
    try:
        with pytest.raises(_Captured):
            main(["run"])
    finally:
        argparse.ArgumentParser.parse_args = original
    return captured[0]


def _subcommands(parser, path=()):
    """``(path, parser)`` for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, path + (name,))
            return
    yield path, parser


def _flag_key(action) -> str:
    return " ".join(action.option_strings) or action.dest


_VARIANT_NAMES = tuple(sorted(VARIANTS))
_MACHINE_NAMES = tuple(sorted(MACHINES))
_WORKLOAD_NAMES = tuple(JBYTEMARK + SPECJVM98)
_ENGINE_NAMES = ("closure", "reference", "both")
_VALUE = (None, None)
_SWITCH = (None, 0)
_COMPILE = {"--variant": (_VARIANT_NAMES, None),
            "--machine": (_MACHINE_NAMES, None),
            "--fuel": _VALUE}
_DRIVER = {"--jobs": _VALUE, "--cache": _SWITCH, "--cache-dir": _VALUE,
           "--cache-max-bytes": _VALUE, "--timeout": _VALUE,
           "--stats": _VALUE}
_ENGINE = {"--engine": (_ENGINE_NAMES, None)}


class TestSurface:
    """What a user can type: every subcommand's flags with their choices
    and arity, and the config each command builds when no optional flag
    is given."""

    #: subcommand path -> {flag (or positional dest): (choices, nargs)}
    SURFACE = {
        ("run",): {"file": _VALUE, **_COMPILE, "--telemetry": _VALUE,
                   **_ENGINE},
        ("ir",): {"file": _VALUE, **_COMPILE, "--telemetry": _VALUE},
        ("compile",): {"files": (None, "+"), **_COMPILE, **_DRIVER},
        ("trace",): {"file": _VALUE, "--out": _VALUE, "--full": _VALUE,
                     **_COMPILE},
        ("asm",): {"file": _VALUE, **_COMPILE},
        ("variants",): {"file": _VALUE,
                        "--machine": (_MACHINE_NAMES, None),
                        "--fuel": _VALUE},
        ("bench",): {"workload": _VALUE, "--json": _VALUE,
                     "--telemetry": _VALUE, "--profile-dir": _VALUE,
                     **_ENGINE, **_DRIVER},
        ("profile",): {"target": _VALUE, "--dir": _VALUE, "--ir": _SWITCH,
                       "--flame": _VALUE, "--heatmap": _VALUE, **_COMPILE,
                       **_ENGINE},
        ("fuzz",): {"--seeds": _VALUE, "--seed-start": _VALUE,
                    "--jobs": _VALUE, "--time-budget": _VALUE,
                    "--corpus-dir": _VALUE,
                    "--variant": (_VARIANT_NAMES, None),
                    "--machines": (_MACHINE_NAMES, "+"), "--fuel": _VALUE,
                    "--reduce --no-reduce": _SWITCH, "--replay": _SWITCH,
                    "--max-divergences": _VALUE, "--inject-bug": _SWITCH,
                    "--profile-dir": _VALUE, "--json": _VALUE,
                    "--telemetry": _VALUE, **_ENGINE},
        ("perf", "record"): {"--workloads": (_WORKLOAD_NAMES, "+"),
                             "--engines": (_ENGINE_NAMES, "+"),
                             "--variants": (_VARIANT_NAMES, "+"),
                             "--all-variants": _SWITCH, "--repeat": _VALUE,
                             "--history": _VALUE,
                             "--machine": (_MACHINE_NAMES, None),
                             "--fuel": _VALUE, **_DRIVER},
        ("perf", "compare"): {"--history": _VALUE, "--against": _VALUE,
                              "--threshold": _VALUE,
                              "--fail-on-regression": (None, "?"),
                              "--json": _VALUE, "--verbose": _SWITCH},
        ("perf", "report"): {"--history": _VALUE, "--baseline": _VALUE,
                             "--out": _VALUE, "--profiles": _VALUE},
        ("serve",): {"--host": _VALUE, "--port": _VALUE,
                     "--workers": _VALUE, "--queue-limit": _VALUE,
                     "--retry-after": _VALUE, "--cache-dir": _VALUE,
                     "--cache-max-bytes": _VALUE, "--fuel": _VALUE,
                     "--flight-capacity": _VALUE, "--flight-dir": _VALUE,
                     "--log": _VALUE, "--slo-window": _VALUE,
                     "--slo-p95-ms": _VALUE, "--slo-error-rate": _VALUE,
                     "--debug-hooks": _SWITCH},
        ("loadtest",): {"--url": _VALUE, "--spawn": _SWITCH,
                        "--requests": _VALUE, "--concurrency": _VALUE,
                        "--mode": (("closed", "open"), None),
                        "--rate": _VALUE,
                        "--ops": (("run", "compile"), "+"),
                        "--seed": _VALUE, "--no-verify": _SWITCH,
                        "--workers": _VALUE, "--queue-limit": _VALUE,
                        "--json": _VALUE, "--trace": _VALUE,
                        "--history": _VALUE, **_COMPILE, **_ENGINE},
        ("top",): {"--url": _VALUE, "--interval": _VALUE, "--rows": _VALUE,
                   "--timeout": _VALUE, "--once": _SWITCH,
                   "--json": _SWITCH},
        ("cache", "stats"): {"--cache-dir": _VALUE,
                             "--cache-max-bytes": _VALUE},
        ("cache", "prune"): {"--cache-dir": _VALUE,
                             "--cache-max-bytes": _VALUE},
        ("cache", "clear"): {"--cache-dir": _VALUE,
                             "--cache-max-bytes": _VALUE},
        ("report",): {"--suite": (("jbytemark", "specjvm98"), None),
                      "--out": _VALUE, **_DRIVER},
    }

    #: Flags declared without help text; every other flag must have some.
    NO_HELP = {
        ("run",): {"file"}, ("compile",): {"files"}, ("trace",): {"file"},
        ("asm",): {"file"}, ("variants",): {"file"},
        ("bench",): {"workload"},
        ("perf", "record"): {"--machine", "--fuel"},
        ("perf", "compare"): {"--history"}, ("perf", "report"): {"--history"},
        ("serve",): {"--host"}, ("loadtest",): {"--requests"},
    }

    def test_every_subcommand_flag(self):
        surface = {}
        for path, parser in _subcommands(_parser()):
            surface[path] = {
                _flag_key(action): (
                    tuple(action.choices)
                    if action.choices is not None else None,
                    action.nargs,
                )
                for action in parser._actions if action.dest != "help"
            }
        assert surface == self.SURFACE

    def test_flags_keep_their_help(self):
        for path, parser in _subcommands(_parser()):
            for action in parser._actions:
                key = _flag_key(action)
                if key in self.NO_HELP.get(path, ()):
                    continue
                assert action.help, f"{' '.join(path)} {key} has no help"

    @staticmethod
    def _capture(monkeypatch, target, name, argv, *, result=None):
        """Run ``argv`` with ``target.name`` replaced by a hook; returns
        the positional arguments the hook was called with."""
        seen = []

        def hook(*args, **kwargs):
            seen.append(args)
            if result is None:
                raise _Captured
            return result

        monkeypatch.setattr(target, name, hook)
        try:
            main(argv)
        except _Captured:
            pass
        return seen[-1]

    def test_run_defaults(self, monkeypatch, source_file):
        import repro.api
        from repro.core.config import CompileOptions

        _, options = self._capture(monkeypatch, repro.api, "run",
                                   ["run", source_file])
        assert options == CompileOptions()

    def test_fuzz_defaults(self, monkeypatch):
        import repro.api
        from repro.fuzz import CampaignConfig

        config, = self._capture(monkeypatch, repro.api, "fuzz_campaign",
                                ["fuzz"])
        assert config == CampaignConfig()

    def test_serve_defaults(self, monkeypatch):
        import repro.serve
        from repro.serve import ServerConfig

        config, = self._capture(monkeypatch, repro.serve, "ReproServer",
                                ["serve"])
        assert config == ServerConfig()

    def test_loadtest_defaults(self, monkeypatch):
        import repro.serve
        from repro.serve import LoadtestConfig

        config, = self._capture(monkeypatch, repro.serve, "Loadtest",
                                ["loadtest"])
        assert config == LoadtestConfig()

    def test_loadtest_spawned_server_defaults(self, monkeypatch):
        import repro.serve
        from repro.serve import ServerConfig

        config, = self._capture(monkeypatch, repro.serve, "ServerThread",
                                ["loadtest", "--spawn", "--fuel", "7"])
        assert config == ServerConfig(port=0)

    def test_top_defaults(self, monkeypatch):
        import repro.serve.top
        from repro.serve.top import TopConfig

        config, = self._capture(monkeypatch, repro.serve.top, "run_top",
                                ["top"], result=0)
        assert config == TopConfig()
