"""The ``repro loadtest`` client: drive a server, verify, measure.

The client answers three questions about a running ``repro serve``
(docs/SERVING.md describes the methodology):

* **is it correct under concurrency?** — every sampled ``run`` response
  is compared against a locally computed ``repro.api.run`` of the same
  request body; after stripping the volatile fields the two documents
  must be *equal* (``repro.serve.protocol`` renders both sides, so the
  comparison is byte-for-byte on the JSON level);
* **how does it behave at the offered load?** — a seeded workload mix
  is driven either *closed-loop* (``concurrency`` clients, each sending
  its next request when the previous answer arrives) or *open-loop*
  (requests issued on a fixed schedule of ``rate`` per second,
  regardless of completions — the mode that actually exposes queueing
  collapse, which closed-loop clients mask by slowing down with the
  server);
* **what did it cost?** — per-request latencies are kept exactly (no
  bucketing) and reduced to p50/p95/p99/mean/max, then recorded as
  :class:`~repro.perf.record.RunRecord` rows (``engine="serve"``) so
  ``repro perf report`` renders the serving-latency section next to
  the compiler's own history.

Every request also carries a client-minted trace id in the
``X-Repro-Trace-Id`` header.  The server honours it (docs/
OBSERVABILITY.md), so with ``trace_path`` set the client afterwards
pulls the matching server-side span forests from ``/debugz`` and merges
them — client span, serve stages, and worker spans — into one Chrome
trace correlated end to end on the same ids.

The run is deterministic for a given ``seed`` in everything the client
controls: the op sequence and payloads derive from ``random.Random(seed)``;
only timings and server-side dispositions (cache, coalescing) vary.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

from ..core.config import DEFAULT_ENGINE
from ..telemetry import Tracer
from .protocol import run_response, strip_volatile

#: tiny J32 kernels the default mix compiles and runs; distinct shapes
#: so the server sees a spread of fingerprints, small so a loadtest
#: finishes in seconds
BUILTIN_SOURCES = {
    "sum8": """
void main() {
    int[] a = new int[8];
    int t = 0;
    for (int i = 0; i < 8; i++) { a[i] = i * 3; t += a[i]; }
    sink(t);
}
""",
    "shift16": """
void main() {
    short s = (short)12345;
    int t = 0;
    for (int i = 0; i < 16; i++) { s = (short)(s + i); t += s; }
    sink(t);
}
""",
    "bytemix": """
void main() {
    byte b = (byte)7;
    int t = 0;
    for (int i = 0; i < 24; i++) { b = (byte)(b * 3 + i); t += b; }
    sink(t);
}
""",
}


@dataclass(frozen=True)
class LoadtestConfig:
    """One load-test campaign."""

    url: str = "http://127.0.0.1:8787"
    requests: int = 50
    #: closed-loop client count
    concurrency: int = 8
    #: "closed" (concurrency-limited) or "open" (rate-scheduled)
    mode: str = "closed"
    #: open-loop request rate per second
    rate: float = 50.0
    #: endpoint mix; names repeated to weight them
    ops: tuple[str, ...] = ("run", "run", "compile")
    #: payload sources, by name from :data:`BUILTIN_SOURCES`
    kernels: tuple[str, ...] = ("sum8", "shift16", "bytemix")
    variant: str = "new algorithm (all)"
    machine: str = "ia64"
    engine: str = DEFAULT_ENGINE
    fuel: int = 100_000_000
    seed: int = 0
    #: compare served run responses against local api.run results
    verify: bool = True
    #: per-request timeout, seconds
    timeout: float = 60.0
    #: write a merged client+server Chrome trace here (None = don't)
    trace_path: str | None = None
    #: how many request trace ids to correlate against ``/debugz``
    trace_samples: int = 5


@dataclass
class LoadtestReport:
    """What one campaign measured."""

    mode: str
    offered: int
    completed: int = 0
    errors: int = 0
    shed: int = 0
    #: server-side coalesced count over the campaign (from /metricsz)
    coalesced: int = 0
    verified: int = 0
    mismatches: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: all request latencies, milliseconds, completion order
    latencies_ms: list[float] = field(default_factory=list)
    by_status: dict[int, int] = field(default_factory=dict)
    #: trace id of every completed (2xx) request, completion order
    trace_ids: list[str] = field(default_factory=list)
    #: trace ids whose server-side span forest was fetched and merged
    correlated: int = 0
    trace_path: str | None = None

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile of the observed latencies."""
        if not self.latencies_ms:
            return 0.0
        ranked = sorted(self.latencies_ms)
        rank = max(1, -(-int(q * len(ranked) * 100) // 100))  # ceil
        return ranked[min(rank, len(ranked)) - 1]

    @property
    def ok(self) -> bool:
        return self.errors == 0 and not self.mismatches

    def to_dict(self) -> dict[str, Any]:
        latencies = self.latencies_ms
        return {
            "mode": self.mode,
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "coalesced": self.coalesced,
            "verified": self.verified,
            "mismatches": list(self.mismatches),
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_rps": (
                round(self.completed / self.wall_seconds, 2)
                if self.wall_seconds > 0 else 0.0
            ),
            "latency_ms": {
                "p50": round(self.percentile(0.50), 3),
                "p95": round(self.percentile(0.95), 3),
                "p99": round(self.percentile(0.99), 3),
                "mean": (round(sum(latencies) / len(latencies), 3)
                         if latencies else 0.0),
                "max": round(max(latencies), 3) if latencies else 0.0,
            },
            "by_status": {str(s): c
                          for s, c in sorted(self.by_status.items())},
            "traced": len(self.trace_ids),
            "correlated": self.correlated,
            "trace_path": self.trace_path,
        }


def _parse_url(url: str) -> tuple[str, int]:
    rest = url.split("://", 1)[-1].rstrip("/")
    host, _, port = rest.partition(":")
    return host or "127.0.0.1", int(port) if port else 80


async def _http_request(host: str, port: int, method: str, path: str,
                        body: bytes = b"",
                        timeout: float = 60.0,
                        headers: dict[str, str] | None = None,
                        ) -> tuple[int, dict]:
    """One connection, one request; returns (status, parsed JSON)."""

    async def _talk() -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            extra = "".join(f"{name}: {value}\r\n"
                            for name, value in (headers or {}).items())
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            payload = await reader.readexactly(length) if length else b"{}"
            return status, json.loads(payload.decode("utf-8"))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(_talk(), timeout=timeout)


class Loadtest:
    """Drives one campaign against a live server."""

    def __init__(self, config: LoadtestConfig | None = None) -> None:
        self.config = config if config is not None else LoadtestConfig()
        self.host, self.port = _parse_url(self.config.url)
        #: request-body JSON string -> locally computed expected response
        self._expected: dict[str, dict] = {}
        #: campaign-wide tracer all per-request spans merge into
        self.tracer = Tracer(process_name="loadtest")

    # -- request planning ----------------------------------------------------

    def plan(self) -> list[tuple[str, dict]]:
        """The seeded (endpoint, payload) sequence for this campaign."""
        import random

        cfg = self.config
        rng = random.Random(cfg.seed)
        requests = []
        for _ in range(cfg.requests):
            op = rng.choice(cfg.ops)
            kernel = rng.choice(cfg.kernels)
            payload = {
                "source": BUILTIN_SOURCES[kernel],
                "variant": cfg.variant,
                "machine": cfg.machine,
                "engine": cfg.engine,
                "fuel": cfg.fuel,
            }
            requests.append((op, payload))
        return requests

    def _expect(self, payload: dict) -> dict:
        """The locally computed run response for ``payload`` (cached)."""
        from .. import api
        from ..core.config import CompileOptions

        key = json.dumps(payload, sort_keys=True)
        if key not in self._expected:
            options = CompileOptions(
                variant=payload["variant"],
                machine=payload["machine"],
                engine=payload["engine"],
                fuel=payload["fuel"],
            )
            outcome = api.run(payload["source"], options)
            self._expected[key] = strip_volatile(run_response(outcome))
        return self._expected[key]

    # -- campaign ------------------------------------------------------------

    async def _fire(self, endpoint: str, payload: dict,
                    report: LoadtestReport) -> None:
        cfg = self.config
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        # The client mints the trace id and the server honours it, so
        # both sides of the wire agree on the token before the first
        # byte is sent; concurrent requests each get their own tracer
        # (the span stack is per-request) merged into the campaign's.
        trace_id = f"lt-{uuid.uuid4().hex[:16]}"
        request_tracer = Tracer(process_name=f"client:{trace_id}")
        started = time.monotonic()
        try:
            with request_tracer.span(f"request:{endpoint}",
                                     category="client",
                                     trace_id=trace_id) as span:
                status, answer = await _http_request(
                    self.host, self.port, "POST", f"/v1/{endpoint}", body,
                    timeout=cfg.timeout,
                    headers={"X-Repro-Trace-Id": trace_id})
                span.annotate(status=status)
        except Exception as exc:
            report.errors += 1
            report.mismatches.append(f"{endpoint}: transport error: {exc}")
            return
        finally:
            self.tracer.merge(request_tracer)
        elapsed_ms = (time.monotonic() - started) * 1000
        report.latencies_ms.append(elapsed_ms)
        report.by_status[status] = report.by_status.get(status, 0) + 1
        if status == 429:
            report.shed += 1
            return
        if status != 200:
            report.errors += 1
            report.mismatches.append(
                f"{endpoint}: HTTP {status}: {answer.get('error')}")
            return
        report.completed += 1
        report.trace_ids.append(trace_id)
        if cfg.verify and endpoint == "run":
            served = strip_volatile(answer)
            expected = await asyncio.get_running_loop().run_in_executor(
                None, self._expect, payload)
            if served == expected:
                report.verified += 1
            else:
                diff = {k for k in expected
                        if served.get(k) != expected[k]}
                report.mismatches.append(
                    f"run: served response diverges from local run "
                    f"(fields: {', '.join(sorted(diff)) or 'missing'})")

    async def _run_closed(self, requests: list[tuple[str, dict]],
                          report: LoadtestReport) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        for item in requests:
            queue.put_nowait(item)

        async def worker() -> None:
            while True:
                try:
                    endpoint, payload = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                await self._fire(endpoint, payload, report)

        await asyncio.gather(
            *(worker() for _ in range(self.config.concurrency)))

    async def _run_open(self, requests: list[tuple[str, dict]],
                        report: LoadtestReport) -> None:
        interval = 1.0 / max(self.config.rate, 0.001)
        tasks = []
        for endpoint, payload in requests:
            tasks.append(asyncio.ensure_future(
                self._fire(endpoint, payload, report)))
            await asyncio.sleep(interval)
        await asyncio.gather(*tasks)

    async def _metric_total(self, family: str) -> int:
        try:
            status, document = await _http_request(
                self.host, self.port, "GET", "/metricsz",
                timeout=self.config.timeout)
        except Exception:
            return 0
        if status != 200:
            return 0
        counters = document.get("counters", {})
        return sum(value for name, value in counters.items()
                   if name == family or name.startswith(family + "{"))

    async def _correlate(self, report: LoadtestReport) -> None:
        """Merge server-side span forests for sampled trace ids.

        For up to ``trace_samples`` completed requests, fetch the
        flight-recorder record from ``/debugz?trace=<id>``, rebuild its
        span forest with :meth:`Tracer.from_dict`, and merge it into
        the campaign tracer.  The merged forest already contains the
        worker-thread spans the server folded in, so the exported trace
        shows client, serve-stage, and worker timelines per request.
        """
        for trace_id in report.trace_ids[:self.config.trace_samples]:
            try:
                status, document = await _http_request(
                    self.host, self.port, "GET",
                    f"/debugz?trace={trace_id}&limit=1",
                    timeout=self.config.timeout)
            except Exception:
                continue
            if status != 200:
                continue
            records = document.get("records") or []
            spans = records[0].get("spans") if records else None
            if not spans:
                continue
            self.tracer.merge(
                Tracer.from_dict(spans, process_name=f"server:{trace_id}"))
            report.correlated += 1

    def write_trace(self, path: str) -> None:
        """Export the merged campaign trace as Chrome trace JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.tracer.dumps())
            handle.write("\n")

    async def run_async(self) -> LoadtestReport:
        cfg = self.config
        report = LoadtestReport(mode=cfg.mode, offered=cfg.requests)
        before_coalesced = await self._metric_total("serve.coalesced")
        requests = self.plan()
        started = time.monotonic()
        if cfg.mode == "open":
            await self._run_open(requests, report)
        else:
            await self._run_closed(requests, report)
        report.wall_seconds = time.monotonic() - started
        report.coalesced = (await self._metric_total("serve.coalesced")
                            - before_coalesced)
        if cfg.trace_path:
            await self._correlate(report)
            self.write_trace(cfg.trace_path)
            report.trace_path = cfg.trace_path
        return report

    def run(self) -> LoadtestReport:
        return asyncio.run(self.run_async())


def record_report(report: LoadtestReport, recorder,
                  config: LoadtestConfig) -> None:
    """Persist one campaign as perf history rows (``engine="serve"``).

    One record per campaign: the cell key is (mode, machine, variant,
    serve) so open- and closed-loop histories track separately, and the
    measures carry the latency distribution the dashboard's serving
    section renders.
    """
    recorder.record_cell(
        workload=f"loadtest-{report.mode}",
        variant=config.variant,
        engine="serve",
        machine=config.machine,
        fuel=config.fuel,
        measures={
            "p50_ms": report.percentile(0.50),
            "p95_ms": report.percentile(0.95),
            "p99_ms": report.percentile(0.99),
            "mean_ms": (sum(report.latencies_ms)
                        / len(report.latencies_ms)
                        if report.latencies_ms else 0.0),
            "max_ms": (max(report.latencies_ms)
                       if report.latencies_ms else 0.0),
            "throughput_rps": (report.completed / report.wall_seconds
                               if report.wall_seconds > 0 else 0.0),
            "offered": float(report.offered),
            "completed": float(report.completed),
            "shed": float(report.shed),
            "coalesced": float(report.coalesced),
            "errors": float(report.errors),
        },
        counters={
            f"loadtest.status.{status}": count
            for status, count in sorted(report.by_status.items())
        },
    )
