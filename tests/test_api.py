"""The repro.api facade: compile / run / bench, options, removed names."""

import argparse
import warnings
from pathlib import Path

import pytest

import repro
from repro import api
from repro.cli import _options as cli_options
from repro.core import VARIANTS, CompileOptions
from repro.core.config import DEFAULT_VARIANT
from repro.frontend import compile_source
from repro.ir.function import Program
from repro.ir.printer import format_program
from repro.machine import PPC64
from repro.workloads import Workload

SOURCE = """
void main() {
    int[] a = new int[24];
    int t = 0;
    for (int i = 0; i < 24; i++) { a[i] = i * 2; t += a[i]; }
    sink(t);
}
"""

FAST = Workload(name="fast_api", suite="jbytemark",
                description="api test kernel", source=SOURCE)

SMALL_VARIANTS = {
    "baseline": VARIANTS["baseline"],
    "new algorithm (all)": VARIANTS["new algorithm (all)"],
}


class TestCompile:
    def test_accepts_source_text(self):
        result = repro.compile(SOURCE)
        assert result.function_stats

    def test_accepts_program(self):
        program = compile_source(SOURCE, "prog")
        result = repro.compile(program)
        assert isinstance(result.program, Program)
        # A Program argument is always cloned: the input is untouched.
        assert format_program(program) == \
            format_program(compile_source(SOURCE, "prog"))

    def test_accepts_path(self, tmp_path):
        path = tmp_path / "kernel.j32"
        path.write_text(SOURCE)
        from_path = repro.compile(path)
        from_str = repro.compile(str(path))
        assert format_program(from_path.program) == \
            format_program(from_str.program)

    def test_accepts_long_one_line_source(self):
        # Longer than a file name may be: probing it as a path raises
        # OSError (ENAMETOOLONG), which must mean "source text".
        source = "void main() { int t = 0; " + "t += 1; " * 34 + "sink(t); }"
        assert "\n" not in source and len(source) >= 300
        result = repro.compile(source)
        assert result.function_stats

    def test_text_compiles_like_its_program(self):
        # Text is lowered here and compiled without a clone; the output
        # equals that of a cloned compile of the same program.
        from_text = repro.compile(SOURCE).program
        from_program = repro.compile(compile_source(SOURCE)).program
        assert format_program(from_text) == format_program(from_program)

    def test_missing_j32_path_raises(self):
        with pytest.raises(FileNotFoundError):
            repro.compile("no/such/file.j32")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            repro.compile(42)

    def test_config_override_beats_variant(self):
        config = VARIANTS["baseline"].with_traits(PPC64)
        result = repro.compile(SOURCE, CompileOptions(), config=config)
        assert result.config is config

    def test_driver_path_matches_direct_path(self, tmp_path):
        direct = repro.compile(SOURCE)
        driven = repro.compile(
            SOURCE, CompileOptions(cache=True, cache_dir=str(tmp_path))
        )
        assert format_program(direct.program) == \
            format_program(driven.program)

    def test_telemetry_collection(self):
        result = repro.compile(SOURCE, CompileOptions(telemetry=True))
        assert result.telemetry is not None
        assert result.telemetry.tracer.roots
        assert repro.compile(SOURCE).telemetry is None


class TestRun:
    def test_run_verifies_against_gold(self):
        outcome = repro.run(SOURCE)
        assert outcome.verified
        assert outcome.steps > 0
        assert outcome.cycles.total > 0
        assert outcome.checksum == outcome.gold_checksum

    def test_variant_changes_extension_counts(self):
        base = repro.run(SOURCE, CompileOptions(variant="baseline"))
        full = repro.run(SOURCE)
        assert full.extend_counts.get(32, 0) <= base.extend_counts.get(32, 0)


class TestBench:
    def test_bench_small_grid(self):
        suite = repro.bench([FAST], variants=SMALL_VARIANTS)
        results = suite.workload("fast_api")
        assert set(results.cells) == set(SMALL_VARIANTS)
        with pytest.raises(KeyError):
            suite.workload("missing")

    def test_bench_warm_cache_no_recompiles(self, tmp_path):
        options = CompileOptions(cache=True, cache_dir=str(tmp_path))
        cold = repro.bench([FAST], variants=SMALL_VARIANTS, options=options)
        assert cold.cache_misses == len(SMALL_VARIANTS)
        assert cold.cache_hits == 0

        warm = repro.bench([FAST], variants=SMALL_VARIANTS, options=options)
        assert warm.cache_hits == len(SMALL_VARIANTS)
        assert warm.cache_misses == 0
        # Identical results modulo wall-clock timing noise.
        from repro.harness import strip_volatile

        assert strip_volatile(cold.to_dict()) == strip_volatile(warm.to_dict())

    def test_bench_accepts_registry_names(self):
        suite = repro.bench(["huffman"], variants={
            "baseline": VARIANTS["baseline"],
        })
        assert suite.workload("huffman").cells["baseline"].dyn_extend32 > 0


class TestCompileOptions:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            CompileOptions(variant="nope")

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            CompileOptions(jobs=0)

    @pytest.mark.parametrize("engine", ["jit", "codegen"])
    def test_unknown_engine_names_the_valid_ones(self, engine):
        with pytest.raises(ValueError) as info:
            CompileOptions(engine=engine)
        assert str(info.value) == (f"unknown engine: {engine!r}; one of: "
                                   "closure, reference, both")

    def test_config_combines_variant_and_machine(self):
        options = CompileOptions(machine="ppc64")
        config = options.config()
        assert config.traits.name == PPC64.name
        assert config == VARIANTS[DEFAULT_VARIANT].with_traits(PPC64)

    def test_from_cli_args(self):
        args = argparse.Namespace(
            variant="baseline", machine="ppc64", fuel=1000,
            telemetry="out.json", jobs=3, cache=True,
            cache_dir="/tmp/c", timeout=5.0, profile_dir="/tmp/prof",
        )
        options = cli_options(args)
        assert options.variant == "baseline"
        assert options.machine == "ppc64"
        assert options.fuel == 1000
        assert options.telemetry is True  # path coerced to "collect"
        assert options.jobs == 3
        assert options.cache is True
        assert options.cache_dir == "/tmp/c"
        assert options.timeout == 5.0
        assert options.profile_dir == "/tmp/prof"

    def test_profile_dir_defaults_off(self):
        assert CompileOptions().profile_dir is None
        assert cli_options(
            argparse.Namespace()).profile_dir is None

    def test_from_cli_args_sparse_namespace(self):
        options = cli_options(argparse.Namespace())
        assert options == CompileOptions()


class TestDeprecatedAliases:
    def test_top_level_reexports(self):
        """The pre-facade aliases are gone, and the version is defined
        once: packaging reads it from ``repro.__version__``."""
        import repro.core
        import repro.harness

        for module, name in ((repro, "compile_program"),
                             (repro, "run_workload"),
                             (repro.core, "compile_program"),
                             (repro.harness, "run_workload")):
            assert not hasattr(module, name), (module.__name__, name)
        assert repro.__version__ == "1.9.0"
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            config = tomllib.load(handle)
        assert "version" not in config["project"]
        assert config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"}

    def test_new_engines_do_not_warn(self):
        from repro.core import compile_ir

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile_ir(compile_source(SOURCE, "quiet"),
                       VARIANTS["baseline"])


class TestProfileFacade:
    def test_profile_returns_execution_profile(self):
        outcome = api.profile(SOURCE)
        assert isinstance(outcome, repro.ProfileResult)
        profile = outcome.profile
        assert profile.function("main").entries == 1
        assert profile.total_cycles > 0
        # telemetry is forced on so verdicts can attach to sites
        assert outcome.telemetry is not None

    def test_profile_accepts_workload(self):
        outcome = api.profile(FAST)
        assert outcome.profile.workload == "fast_api"

    def test_profile_writes_artifact_when_dir_set(self, tmp_path):
        from repro.profile import load_profile

        options = CompileOptions(variant="baseline",
                                 profile_dir=str(tmp_path))
        outcome = api.profile(FAST, options)
        assert outcome.artifact is not None
        assert outcome.artifact.exists()
        loaded = load_profile(outcome.artifact)
        assert loaded.to_dict() == outcome.profile.to_dict()

    def test_profile_engine_both_keeps_parity_check(self):
        outcome = api.profile(SOURCE, CompileOptions(engine="both"))
        assert outcome.profile.engine == "both"
        assert outcome.profile.steps > 0

    def test_entries_match_closure_fold_counters(self):
        from repro.interp import create_interpreter

        outcome = api.profile(FAST)
        interp = create_interpreter(outcome.compile.program,
                                    engine="closure",
                                    collect_profile=True)
        interp.run()
        mine = {
            name: {b: c for b, c in blocks.items() if c}
            for name, blocks in outcome.profile.block_entries().items()
        }
        mine = {name: blocks for name, blocks in mine.items() if blocks}
        assert mine == {
            name: dict(blocks)
            for name, blocks in interp.block_entries.items() if blocks
        }

    def test_bench_profile_dir_writes_cell_artifacts(self, tmp_path):
        from repro.profile import load_profiles

        options = CompileOptions(profile_dir=str(tmp_path / "prof"))
        repro.bench([FAST], variants=SMALL_VARIANTS, options=options)
        loaded = load_profiles(tmp_path / "prof")
        assert len(loaded) == len(SMALL_VARIANTS)
        assert {p.variant for p in loaded} == set(SMALL_VARIANTS)
        assert all(p.workload == "fast_api" for p in loaded)
