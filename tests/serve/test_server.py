"""The serve front door: routing, bit-identity, coalescing, shedding."""

import asyncio
import json
import re

import pytest

from repro import api
from repro.core.config import CompileOptions
from repro.serve import ServerConfig, ServerThread
from repro.serve.protocol import run_response, strip_volatile
from repro.telemetry import parse_prometheus_text, sample_value

from tests.serve.test_protocol import BAD_SOURCES

FAST = "void main() { int x = 7; sink(x); }"

#: slow enough (~0.15s) that a second request reliably arrives while
#: the first is still computing — coalescing/backpressure need overlap
SLOW = """
void main() {
    int t = 0;
    for (int i = 0; i < 25000; i++) { t += i; }
    sink(t);
}
"""

FUEL = 10_000_000


async def http(base_url, method, path, payload=None, timeout=60.0,
               headers=None, parse_json=True):
    """One request; returns (status, headers dict, parsed JSON body)."""
    host, port = base_url.split("://", 1)[1].split(":")
    reader, writer = await asyncio.open_connection(host, int(port))
    try:
        body = (json.dumps(payload).encode() if payload is not None
                else b"")
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        writer.write((
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode() + body)
        await writer.drain()

        async def _read():
            status = int((await reader.readline()).split()[1])
            response_headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = int(response_headers.get("content-length", "0"))
            raw = await reader.readexactly(length) if length else b"{}"
            parsed = json.loads(raw) if parse_json else raw.decode()
            return status, response_headers, parsed

        return await asyncio.wait_for(_read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServerConfig(port=0, workers=2,
                                   queue_limit=4)) as thread:
        yield thread


def request(server, method, path, payload=None, timeout=60.0,
            headers=None, parse_json=True):
    return asyncio.run(http(server.base_url, method, path, payload,
                            timeout, headers, parse_json))


class TestRouting:
    def test_healthz(self, server):
        status, _, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_limit"] == 4

    def test_metricsz_shape(self, server):
        status, _, body = request(server, "GET", "/metricsz")
        assert status == 200
        assert set(body) >= {"counters", "gauges", "histograms", "cache"}

    def test_unknown_path_is_404(self, server):
        status, _, _ = request(server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _, _ = request(server, "GET", "/v1/run")
        assert status == 405
        status, _, _ = request(server, "POST", "/healthz", {})
        assert status == 405

    def test_unknown_v1_endpoint_is_404(self, server):
        status, _, body = request(server, "POST", "/v1/transpile",
                                  {"source": FAST})
        assert status == 404
        assert "transpile" in body["error"]

    def test_malformed_json_is_400(self, server):
        async def _go():
            host, port = server.base_url.split("://", 1)[1].split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(b"POST /v1/run HTTP/1.1\r\n"
                         b"Content-Length: 5\r\n\r\n{nope")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            return status

        assert asyncio.run(_go()) == 400

    def test_bad_source_is_400(self, server):
        for source in BAD_SOURCES:
            status, _, body = request(server, "POST", "/v1/run",
                                      {"source": source})
            assert status == 400, body
            assert "does not compile" in body["error"]


class TestBitIdentity:
    def test_served_run_equals_local_run(self, server):
        payload = {"source": FAST, "fuel": FUEL}
        status, _, served = request(server, "POST", "/v1/run", payload)
        assert status == 200
        local = run_response(api.run(FAST, CompileOptions(fuel=FUEL)))
        assert strip_volatile(served) == strip_volatile(local)

    def test_compile_reports_cache_key(self, server):
        payload = {"source": FAST, "fuel": FUEL}
        status, _, first = request(server, "POST", "/v1/compile", payload)
        assert status == 200
        assert first["cache_key"]
        status, _, second = request(server, "POST", "/v1/compile", payload)
        # Same fingerprint; the repeat is answered from the cache.
        assert second["cache_key"] == first["cache_key"]
        assert second["cached"] is True
        assert strip_volatile(second) == strip_volatile(first)

    def test_bench_endpoint(self, server):
        status, _, body = request(
            server, "POST", "/v1/bench",
            {"workload": "huffman", "fuel": 2_000_000,
             "variants": ["baseline", "new algorithm (all)"]},
            timeout=120.0)
        assert status == 200
        assert set(body["cells"]) == {"baseline", "new algorithm (all)"}
        cell = body["cells"]["new algorithm (all)"]
        assert cell["steps"] > 0

    def test_profile_endpoint(self, server):
        status, _, body = request(server, "POST", "/v1/profile",
                                  {"source": SLOW, "fuel": FUEL})
        assert status == 200
        assert body["total_cycles"] > 0
        assert body["hot_blocks"]
        assert body["fingerprint"]


class TestCoalescing:
    def test_identical_inflight_requests_share_one_computation(self):
        config = ServerConfig(port=0, workers=2, queue_limit=8)
        with ServerThread(config) as thread:
            payload = {"source": SLOW, "fuel": FUEL}

            async def burst():
                first = asyncio.ensure_future(
                    http(thread.base_url, "POST", "/v1/run", payload))
                # Let the leader through admission + prepare first.
                await asyncio.sleep(0.05)
                others = [http(thread.base_url, "POST", "/v1/run", payload)
                          for _ in range(3)]
                return await asyncio.gather(first, *others)

            answers = asyncio.run(burst())
            assert [status for status, _, _ in answers] == [200] * 4
            bodies = [strip_volatile(body) for _, _, body in answers]
            assert all(body == bodies[0] for body in bodies)
            coalesced = [body for _, _, body in answers
                         if body.get("coalesced")]
            assert coalesced, "no request was coalesced"
            metrics = thread.server.metrics
            assert metrics.counter_value("serve.coalesced",
                                         endpoint="run") >= 1

    def test_different_requests_do_not_coalesce(self):
        config = ServerConfig(port=0, workers=2, queue_limit=8)
        with ServerThread(config) as thread:
            async def pair():
                return await asyncio.gather(
                    http(thread.base_url, "POST", "/v1/run",
                         {"source": FAST, "fuel": FUEL}),
                    http(thread.base_url, "POST", "/v1/run",
                         {"source": SLOW, "fuel": FUEL}),
                )

            answers = asyncio.run(pair())
            assert [status for status, _, _ in answers] == [200, 200]
            assert thread.server.metrics.counter_value(
                "serve.coalesced", endpoint="run") == 0


class TestBackpressure:
    def test_saturation_sheds_with_retry_after(self):
        config = ServerConfig(port=0, workers=1, queue_limit=1,
                              retry_after=0.25)
        with ServerThread(config) as thread:
            # Distinct sources: coalescing must not absorb the overload.
            filler = {"source": SLOW, "fuel": FUEL}
            extra = {"source": SLOW.replace("t += i", "t += i + 1"),
                     "fuel": FUEL}

            async def overload():
                first = asyncio.ensure_future(
                    http(thread.base_url, "POST", "/v1/run", filler))
                await asyncio.sleep(0.05)  # ensure the filler is admitted
                second = await http(thread.base_url, "POST", "/v1/run",
                                    extra)
                return await first, second

            (s1, _, _), (s2, headers, body) = asyncio.run(overload())
            assert s1 == 200
            assert s2 == 429
            assert headers["retry-after"] == "0.25"
            assert "retry" in body["error"].lower()
            metrics = thread.server.metrics
            assert metrics.counter_value("serve.shed") >= 1

    def test_shed_requests_recover_after_drain(self):
        config = ServerConfig(port=0, workers=1, queue_limit=1)
        with ServerThread(config) as thread:
            payload = {"source": FAST, "fuel": FUEL}
            status, _, _ = request(thread, "POST", "/v1/run", payload)
            assert status == 200  # nothing in flight: admitted again


class TestTracing:
    def test_every_response_carries_a_trace_id(self, server):
        status, headers, body = request(server, "POST", "/v1/run",
                                        {"source": FAST, "fuel": FUEL})
        assert status == 200
        trace_id = headers["x-repro-trace-id"]
        assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
        assert body["trace_id"] == trace_id

    def test_inbound_trace_id_is_honoured(self, server):
        status, headers, body = request(
            server, "POST", "/v1/run", {"source": FAST, "fuel": FUEL},
            headers={"X-Repro-Trace-Id": "caller-chose.this-1"})
        assert status == 200
        assert headers["x-repro-trace-id"] == "caller-chose.this-1"
        assert body["trace_id"] == "caller-chose.this-1"

    def test_invalid_inbound_trace_id_is_replaced(self, server):
        _, headers, _ = request(
            server, "GET", "/healthz",
            headers={"X-Repro-Trace-Id": "spaces are not legal"})
        assert re.fullmatch(r"[0-9a-f]{16}",
                            headers["x-repro-trace-id"])

    def test_error_responses_carry_the_trace_id(self, server):
        status, headers, body = request(
            server, "GET", "/nope",
            headers={"X-Repro-Trace-Id": "lost-404"})
        assert status == 404
        assert headers["x-repro-trace-id"] == "lost-404"
        assert body["trace_id"] == "lost-404"

    def test_debugz_resolves_a_trace_to_stages_and_spans(self, server):
        request(server, "POST", "/v1/run",
                {"source": FAST, "fuel": FUEL},
                headers={"X-Repro-Trace-Id": "find-me-1"})
        status, _, body = request(server, "GET", "/debugz?trace=find-me-1")
        assert status == 200
        assert len(body["records"]) == 1
        record = body["records"][0]
        assert record["endpoint"] == "run"
        assert record["status"] == 200
        # The request's journey is visible stage by stage...
        for stage in ("request", "admission", "parse", "coalesce",
                      "execute"):
            assert stage in record["stages"]
        # ...and the worker's span forest was merged into the request's.
        span_names = set()

        def _collect(spans):
            for span in spans:
                span_names.add(span["name"])
                _collect(span.get("children", []))

        _collect(record["spans"])
        assert "merged:worker:find-me-1" in span_names
        assert "work:run" in span_names

    def test_debugz_filters_by_status(self, server):
        request(server, "GET", "/definitely-not-a-route")
        status, _, body = request(server, "GET", "/debugz?errors=1")
        assert status == 200
        assert body["records"]
        assert all(r["status"] >= 400 for r in body["records"])


class TestErrorAccounting:
    def test_error_kinds_are_labelled(self):
        config = ServerConfig(port=0, workers=1, queue_limit=4)
        with ServerThread(config) as thread:
            request(thread, "GET", "/nope")
            request(thread, "POST", "/v1/run",
                    {"source": "void main() { nope"})
            request(thread, "POST", "/v1/run", {"source": 42})
            metrics = thread.server.metrics
            assert metrics.counter_value("serve.errors",
                                         kind="not_found") == 1
            assert metrics.counter_value("serve.errors",
                                         kind="protocol") == 2

    def test_debug_fail_is_inert_without_the_hook(self, server):
        status, _, _ = request(server, "POST", "/v1/run",
                               {"source": FAST, "fuel": FUEL,
                                "debug_fail": True})
        assert status == 200


class TestFlightDump:
    def test_forced_500_dumps_the_ring_with_stage_timings(self, tmp_path):
        config = ServerConfig(port=0, workers=1, queue_limit=4,
                              debug_hooks=True, flight_dir=tmp_path)
        with ServerThread(config) as thread:
            # A healthy request first, so the dump proves the whole
            # ring is preserved, not just the failing record.
            request(thread, "POST", "/v1/run",
                    {"source": FAST, "fuel": FUEL},
                    headers={"X-Repro-Trace-Id": "healthy-1"})
            status, _, body = request(
                thread, "POST", "/v1/run",
                {"source": FAST, "fuel": FUEL, "debug_fail": True},
                headers={"X-Repro-Trace-Id": "doomed-1"})
            assert status == 500
            assert "debug_fail" in body["error"]
            assert body["trace_id"] == "doomed-1"
            assert thread.server.metrics.counter_value(
                "serve.errors", kind="internal") == 1

            dumps = sorted(tmp_path.glob("flight-*.jsonl"))
            assert len(dumps) == 1
            assert dumps[0].name.endswith("-doomed-1.jsonl")
            records = [json.loads(line)
                       for line in dumps[0].read_text().splitlines()]
            assert [r["trace_id"] for r in records] == [
                "healthy-1", "doomed-1",
            ]
            doomed = records[-1]
            assert doomed["status"] == 500
            # The hook fires after parse, so the dump shows exactly how
            # far the request got before it died.
            assert doomed["stages"]["parse"] >= 0
            assert "execute" not in doomed["stages"]


class TestPrometheusExposition:
    def test_format_query_parameter_wins(self, server):
        request(server, "POST", "/v1/run", {"source": FAST, "fuel": FUEL})
        status, headers, text = request(
            server, "GET", "/metricsz?format=prometheus",
            parse_json=False)
        assert status == 200
        assert headers["content-type"].startswith(
            "text/plain; version=0.0.4")
        samples = parse_prometheus_text(text)
        assert sample_value(samples, "serve_requests_total",
                            endpoint="run") >= 1
        # Histogram families export as summaries with quantile labels.
        assert sample_value(samples, "serve_latency_ms",
                            endpoint="run", quantile="0.95") is not None
        assert sample_value(samples, "serve_latency_ms_count",
                            endpoint="run") >= 1
        # SLO and flight state ride along as gauges for scrapers.
        assert sample_value(samples, "serve_slo_ok") is not None
        assert sample_value(samples, "serve_uptime_s") > 0

    def test_accept_header_negotiates_text(self, server):
        status, headers, text = request(
            server, "GET", "/metricsz", parse_json=False,
            headers={"Accept": "text/plain"})
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        parse_prometheus_text(text)  # must be valid exposition text

    def test_json_remains_the_default(self, server):
        status, headers, body = request(server, "GET", "/metricsz")
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        assert set(body) >= {"counters", "gauges", "histograms", "cache",
                             "slo", "flight", "server"}

    def test_explicit_json_format_overrides_accept(self, server):
        status, _, body = request(
            server, "GET", "/metricsz?format=json",
            headers={"Accept": "text/plain"})
        assert status == 200
        assert "counters" in body


class TestHealthz:
    def test_reports_identity_and_slo(self, server):
        status, _, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["started_unix"] > 0
        assert body["uptime_s"] >= 0
        assert re.fullmatch(r"[0-9a-f]{16}", body["config_fingerprint"])
        assert body["slo"]["window_s"] > 0
        assert "burn_rate" in body["slo"]
        assert body["flight"]["capacity"] > 0

    def test_degrades_but_stays_200_after_5xx_burst(self, tmp_path):
        config = ServerConfig(port=0, workers=1, queue_limit=4,
                              debug_hooks=True,
                              slo_target_error_rate=0.01)
        with ServerThread(config) as thread:
            for _ in range(3):
                request(thread, "POST", "/v1/run",
                        {"source": FAST, "fuel": FUEL,
                         "debug_fail": True})
            status, _, body = request(thread, "GET", "/healthz")
            assert status == 200  # liveness: never fail the probe
            assert body["status"] == "degraded"
            assert body["slo"]["ok"] is False
            assert body["slo"]["burn_rate"] > 1.0


class TestKeepAlive:
    def test_two_requests_on_one_connection(self, server):
        async def _go():
            host, port = server.base_url.split("://", 1)[1].split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            try:
                for _ in range(2):
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    await writer.drain()
                    status = int((await reader.readline()).split()[1])
                    assert status == 200
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value.strip())
                    await reader.readexactly(length)
            finally:
                writer.close()

        asyncio.run(_go())
