"""Request validation and deterministic response rendering."""

import pytest

from repro import api
from repro.core.config import DEFAULT_VARIANT, CompileOptions
from repro.serve.protocol import (
    ProtocolError,
    VOLATILE_KEYS,
    load_program,
    parse_request,
    run_response,
    strip_volatile,
)

SOURCE = "void main() { int x = 5; sink(x); }"

#: Sources that must be a 400, not a crash: a parse error, a hex literal
#: without digits, a superscript digit, and nesting too deep to parse.
BAD_SOURCES = [
    "void main() { nope",
    "void main() { int x = 0x; }",
    "void main() { int x = \u00b2; }",
    "int main() { return " + "(" * 10_000 + "1" + ")" * 10_000 + "; }",
]


class TestParseRequest:
    def test_defaults(self):
        job = parse_request("run", {"source": SOURCE})
        assert job.variant == DEFAULT_VARIANT
        assert job.machine == "ia64"
        assert job.engine == "closure"
        assert job.fuel == 100_000_000

    def test_workload_form(self):
        job = parse_request("run", {"workload": "huffman"})
        assert job.workload == "huffman"
        assert job.source is None

    @pytest.mark.parametrize("payload", [
        {},                                         # neither
        {"source": SOURCE, "workload": "huffman"},  # both
        [],                                         # not an object
        {"source": 42},                             # mistyped
        {"source": SOURCE, "variant": "nope"},
        {"source": SOURCE, "machine": "mips"},
        {"source": SOURCE, "engine": "jit"},
        {"source": SOURCE, "fuel": -1},
        {"source": SOURCE, "fuel": "lots"},
        {"source": SOURCE, "fuel": True},
        {"source": SOURCE, "fuel": 10**18},
        {"source": SOURCE, "variants": ["baseline"]},  # bench-only field
        {"source": SOURCE, "engine": "codegen"},       # removed engine
    ])
    def test_rejected_payloads(self, payload):
        with pytest.raises(ProtocolError) as err:
            parse_request("run", payload)
        assert err.value.status == 400

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(ProtocolError) as err:
            parse_request("transpile", {"source": SOURCE})
        assert err.value.status == 404

    def test_bench_requires_workload(self):
        with pytest.raises(ProtocolError):
            parse_request("bench", {"source": SOURCE})
        job = parse_request("bench", {
            "workload": "huffman",
            "variants": ["baseline", "new algorithm (all)", "baseline"],
        })
        # deduplicated, order kept
        assert job.variants == ("baseline", "new algorithm (all)")

    def test_bench_rejects_unknown_variants(self):
        with pytest.raises(ProtocolError) as err:
            parse_request("bench", {"workload": "huffman",
                                    "variants": ["nope"]})
        assert "nope" in str(err.value)


class TestLoadProgram:
    def test_source(self):
        program = load_program(parse_request("run", {"source": SOURCE}))
        assert "main" in program.functions

    def test_workload(self):
        program = load_program(
            parse_request("run", {"workload": "huffman"}))
        assert program.functions

    def test_bad_source_is_protocol_error(self):
        for source in BAD_SOURCES:
            job = parse_request("run", {"source": source})
            with pytest.raises(ProtocolError) as err:
                load_program(job)
            assert err.value.status == 400
            assert "does not compile" in str(err.value)

    def test_unknown_workload_is_protocol_error(self):
        job = parse_request("run", {"workload": "nope"})
        with pytest.raises(ProtocolError) as err:
            load_program(job)
        assert "unknown workload" in str(err.value)


class TestRunResponse:
    def test_renders_and_is_deterministic(self):
        options = CompileOptions(fuel=1_000_000)
        first = run_response(api.run(SOURCE, options))
        second = run_response(api.run(SOURCE, options))
        assert first == second
        assert first["verified"] is True
        assert first["checksum"] == first["gold_checksum"]
        assert set(first["cycles"]) == {"total", "extend_cycles"}

    def test_strip_volatile(self):
        document = {"checksum": 1, "cached": True, "coalesced": False,
                    "timing_ms": 3.2, "cache_key": "abc"}
        stripped = strip_volatile(document)
        assert stripped == {"checksum": 1}
        assert VOLATILE_KEYS.isdisjoint(stripped)
