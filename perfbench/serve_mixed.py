"""The serve-mixed workload: ``repro serve`` in a child process, driven
over two keep-alive connections by this process.

The request stream is fixed by the seed: 3/4 new programs from the
benchmark's own generator, 1/4 repeats of one of the last 8 programs;
2/3 ``POST /v1/run``, 1/3 ``POST /v1/compile``.  Requests carry only
the source, so the server's defaults choose variant, machine and
engine.  Responses are checked after the window.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import run as bench
import speed
from genprog import generate_program
from layers import by_op, load_spans, top_level_by_op
from workloads import layer_counts, output_problem, ratio, timed_set_up

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
RECENT = 8
#: window seconds between speed probes; the connections finish their
#: requests in flight, then both CPUs are probed
PROBE_EVERY_S = 1.0
#: probes at each of those pauses, spread over the CPUs
PROBES = 6
#: seconds to wait for the server's ``serving`` line or its exit
START_TIMEOUT = 60
STOP_TIMEOUT = 30


class Plan:
    """The seeded request stream, extended on demand."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.ops: list[tuple[str, int]] = []  # (endpoint, program id)
        self.sources: list[str] = []
        self.bodies: list[bytes] = []
        self.recent: list[int] = []

    def get(self, index: int) -> tuple[str, int]:
        while len(self.ops) <= index:
            if self.recent and self.rng.random() < 0.25:
                program = self.rng.choice(self.recent)
            else:
                program = len(self.sources)
                source = generate_program(self.seed * 1_000_000 + program)
                self.sources.append(source)
                self.bodies.append(json.dumps({"source": source}).encode())
                self.recent = (self.recent + [program])[-RECENT:]
            endpoint = "run" if self.rng.random() < 2 / 3 else "compile"
            self.ops.append((endpoint, program))
        return self.ops[index]

    def describe(self, index: int) -> str:
        endpoint, program = self.get(index)
        return f"{endpoint} {program} {self.sources[program]}"


class Server:
    """One ``repro serve`` child process and its address."""

    def __init__(self, cache_dir: Path, *, spans_out: Path | None = None,
                 flight_capacity: int | None = None) -> None:
        env = dict(os.environ)
        src = str(bench.ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
            if env.get("PYTHONPATH") else src
        env["PYTHONUNBUFFERED"] = "1"
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", str(cache_dir)]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"] + serve_args
        else:
            argv = [sys.executable, str(HERE / "serve_child.py"),
                    str(spans_out)] + serve_args
        if flight_capacity is not None:
            argv += ["--flight-capacity", str(flight_capacity)]
        self.cache_dir = cache_dir
        self.stderr_path = cache_dir.parent / f"{cache_dir.name}.stderr"
        # The server shuts down cleanly only on SIGINT.  A launcher that
        # started this process in the background may have left SIGINT
        # ignored, and an ignored signal stays ignored across exec; a
        # handler does not, so the child starts with the default.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=str(bench.ROOT))
        self.port = self._await_serving_line()

    def _await_serving_line(self) -> int:
        buffered = b""
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while b"\n" not in buffered or not buffered.startswith(b"serving"):
                if b"\n" in buffered:  # a line before "serving": skip it
                    buffered = buffered.split(b"\n", 1)[1]
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    self.stop()
                    raise RuntimeError("server printed no serving line")
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    self.stop()
                    raise RuntimeError(
                        "server exited before serving: "
                        + self.stderr_path.read_text(errors="replace")[-2000:])
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        # "serving   : http://127.0.0.1:PORT (workers=...)"
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get_json(self, target: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=STOP_TIMEOUT)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill on timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class ServeMixed:
    NAME = "serve-mixed"
    #: server start-ups per timed run (see workloads.timed_run); their
    #: median is setup_s
    SETUPS = 9
    #: requests in each pass of a traced run
    TRACE_OPS = 400
    #: peak_rss_mb is the server's peak RSS over the window's first this
    #: many requests.  Its caches grow with the programs it has seen, so
    #: a peak over the whole window would depend on how many requests
    #: the host's speed let the window hold.
    PEAK_OPS = 400

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.plan = Plan(seed)
        self.server: Server | None = None
        self.connections: list[http.client.HTTPConnection] = []
        self.results: dict[int, tuple] = {}
        self.spans_out: Path | None = None
        self.peak_at_mark: float | None = None
        self._starts = 0

    # -- identity ------------------------------------------------------------

    def trace_id(self, index: int) -> str:
        return f"pb-{self.seed}-{index}"

    def plan_sha256(self) -> str:
        return bench.sha256_lines(self.plan.describe(i) for i in range(1024))

    def done_sha256(self, ops_done: int) -> str:
        return bench.sha256_lines(self.plan.describe(i)
                                  for i in range(ops_done))

    # -- set-up --------------------------------------------------------------

    def _start(self, **server_kwargs) -> None:
        self._starts += 1
        cache_dir = self.scratch / f"serve-cache-{self._starts}"
        cache_dir.mkdir()
        self.server = Server(cache_dir, **server_kwargs)
        self.connections = []
        for _ in range(CONNECTIONS):
            conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                              timeout=STOP_TIMEOUT)
            conn.connect()
            self.connections.append(conn)

    def setup_steps(self) -> list:
        return [self._start]

    def probe(self) -> list[float]:
        """The work runs in the server child, on any CPU: probe them in
        turn.  Called only while the client threads are stopped."""
        return speed.probe_cpus(PROBES)

    def set_up_again(self) -> tuple[float, float]:
        """Start one more server from scratch and connect to it while the
        live server idles; then stop it."""
        live = self.server, self.connections
        self.server, self.connections = None, []
        try:
            return timed_set_up(self)
        finally:
            self.close()
            self.server, self.connections = live

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def reset_peak(self) -> None:
        bench.reset_peak_rss(self.server.process.pid)

    def peak_rss(self) -> float:
        if self.peak_at_mark is not None:
            return self.peak_at_mark
        return bench.peak_rss_mb(self.server.process.pid)

    def rewind(self) -> None:
        """Swap in a fresh, traced server so the traced pass repeats the
        untraced pass's work from empty caches."""
        self.close()
        spans_dir = bench.ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        self.spans_out = spans_dir / f"{self.NAME}-seed{self.seed}-server.jsonl"
        self._start(spans_out=self.spans_out,
                    flight_capacity=self.TRACE_OPS + 64)

    # -- the measured pass ---------------------------------------------------

    def measure(self, *, seconds=None, ops=None, recorder=None,
                pause_at=(), pause=None):
        """Closed loop on every connection: each takes the next request
        of the stream once its previous response has been read.

        The window runs in chunks of :data:`PROBE_EVERY_S`, cut short
        where it passes a time in ``pause_at``.  At the end of a chunk
        the connections finish their requests in flight, then, with the
        window clock stopped, the CPUs are probed and, at a time in
        ``pause_at``, ``pause()`` runs.  A request is scaled by the
        probes around its chunk.  Runs ``ops`` requests, or until
        ``seconds`` of window have passed and at least :data:`PEAK_OPS`
        requests are done; in that case a chunk also ends after request
        :data:`PEAK_OPS`, and the server's peak RSS is read then."""
        loop = bench.LoopResult()
        self.results = {}
        lock = threading.Lock()
        pauses = sorted(pause_at)
        chunk = {"next": 0}
        mark = self.PEAK_OPS if ops is None else None
        self.peak_at_mark = None

        def take() -> int | None:
            with lock:
                index = chunk["next"]
                if index == mark or (ops is not None and index >= ops):
                    return None
                if time.perf_counter() - chunk["start"] >= chunk["length"]:
                    return None
                chunk["next"] = index + 1
                self.plan.get(index)
                return index

        def client(slot: int) -> None:
            conn = self.connections[slot]
            while (index := take()) is not None:
                endpoint, program = self.plan.ops[index]
                body = self.plan.bodies[program]
                headers = {"Content-Type": "application/json",
                           "X-Repro-Trace-Id": self.trace_id(index)}
                began = time.perf_counter()
                try:
                    conn.request("POST", f"/v1/{endpoint}", body, headers)
                    response = conn.getresponse()
                    outcome = (response.status, response.read())
                except (OSError, http.client.HTTPException) as exc:
                    outcome = (None, repr(exc).encode())
                    conn.close()  # reconnects on the next request
                ended = time.perf_counter()
                if recorder is not None:
                    recorder.record("op", began, ended, self.trace_id(index))
                with lock:
                    loop.latency[index] = ended - began
                    self.results[index] = outcome
                    chunk["end"] = max(chunk["end"], ended)

        readings, ends = [speed.reading(self.probe())], []
        chunks = []  # (first op index, end index, measured seconds)
        while True:
            length = PROBE_EVERY_S
            if pauses:
                length = min(length, pauses[0] - loop.window)
            elif ops is None and loop.window < seconds:
                length = min(length, seconds - loop.window)
            first = chunk["next"]
            chunk["length"] = length
            chunk["start"] = chunk["end"] = time.perf_counter()
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ends.append(speed.ticks())
            took = chunk["end"] - chunk["start"]
            loop.window += took
            chunks.append((first, chunk["next"], took))
            if chunk["next"] == mark:
                self.peak_at_mark = self.peak_rss()
                mark = None
            readings.append(speed.reading(self.probe()))
            if pauses and loop.window >= pauses[0]:
                pauses.pop(0)
                pause()
            if ops is not None:
                if chunk["next"] >= ops:
                    break
            elif loop.window >= seconds and chunk["next"] >= self.PEAK_OPS:
                break
        for (first, end, took), scale in zip(
                chunks, speed.factors(readings, ends, 1)):
            loop.scaled_window += took * scale
            for index in range(first, end):
                loop.factor[index] = scale
        return loop

    def check_after(self, loop) -> None:
        """Every response is a 2xx; every run answer equals the reference
        interpreter's output for the unoptimized program; every answer
        for one program reports the same static extends and eliminated."""
        from repro.frontend import compile_source
        from repro.interp import execute

        expected: dict[int, dict] = {}
        counts: dict[int, list] = {}
        for index in sorted(self.results):
            status, raw = self.results[index]
            endpoint, program = self.plan.ops[index]
            if status is None or not 200 <= status < 300:
                loop.fail(index, f"{endpoint}: status {status}: "
                                 f"{raw[:200].decode(errors='replace')}")
                continue
            answer = json.loads(raw)
            got = [answer.get("static_extends"), answer.get("eliminated")]
            if counts.setdefault(program, got) != got:
                loop.fail(index, f"program {program}: static_extends, "
                                 f"eliminated = {got}, earlier "
                                 f"{counts[program]}")
                continue
            if endpoint != "run":
                continue
            if program not in expected:
                gold = execute(compile_source(self.plan.sources[program],
                                              f"p{program}"),
                               engine="reference", mode="ideal")
                expected[program] = {"ret_value": gold.ret_value,
                                     "checksum": gold.checksum}
            problem = output_problem(
                expected[program], answer.get("ret_value"),
                answer.get("checksum"))
            if problem or answer.get("verified") is not True:
                loop.fail(index, f"program {program}: "
                                 f"{problem or 'not verified'}")
        self.results = {}

    # -- traced report -------------------------------------------------------

    def layer_values(self, recorder, traced, setup_rec, cache_delta):
        server = self.server
        debug = server.get_json(f"/debugz?limit={self.TRACE_OPS + 64}")
        metricsz = server.get_json("/metricsz")
        self.close()
        spans, counts, missing = load_spans(self.spans_out)
        recorder.missing.extend(missing)
        records = {r.get("trace_id"): r for r in debug.get("records", [])}
        layers = by_op(spans)
        covered = top_level_by_op(spans)
        per_op = {}
        unmatched = 0
        for index, latency in sorted(traced.latency.items()):
            tid = self.trace_id(index)
            record = records.get(tid)
            unmatched += record is None
            stages = {k: v / 1000.0
                      for k, v in (record or {}).get("stages", {}).items()}
            endpoint = self.plan.ops[index][0]
            work = stages.get(f"work:{endpoint}", 0.0)
            parts = dict(layers.get(tid, {}))
            parts["serve.wire"] = latency - stages.get("request", 0.0)
            parts["serve.prepare"] = (stages.get("prepare", 0.0)
                                      - covered.get((tid, "prepare"), 0.0))
            parts["serve.queue_wait"] = (stages["execute"] - work
                                         if "execute" in stages else 0.0)
            parts["serve.work"] = work - covered.get((tid, "work"), 0.0)
            parts["serve.await_leader"] = stages.get("await-leader", 0.0)
            parts["other"] = latency - sum(parts.values())
            per_op[index] = parts

        series = metricsz.get("counters", {})
        requests = sum(v for k, v in series.items()
                       if k.startswith("serve.requests{")
                       and ("endpoint=run" in k or "endpoint=compile" in k))
        coalesced = sum(v for k, v in series.items()
                        if k.startswith("serve.coalesced"))
        execute_s = sum(s[2] - s[1] for s in spans
                        if s[0] == "interp.execute")
        extra = layer_counts(counts, execute_s, counts)
        extra["interp.profile.ms"] = 0.0
        extra["driver.cache.entry_kb"] = self.cache_entry_kb()
        extra["serve.coalesced_ratio"] = ratio(coalesced, requests)
        extra["serve.shed"] = series.get("serve.shed", 0)
        if unmatched:
            print(f"ops without a /debugz record: {unmatched} (their whole "
                  f"latency counts as serve.wire)")
        values, negative = bench.layer_metrics(per_op, extra)
        reached = {s[0] for s in spans} | {
            "serve.wire", "serve.prepare", "serve.queue_wait", "serve.work",
            "serve.await_leader"}
        return values, reached, negative, [self.spans_out]

    def cache_entry_kb(self) -> float:
        directory = self.scratch / f"serve-cache-{self._starts}"
        sizes = [p.stat().st_size for p in directory.iterdir() if p.is_file()]
        return statistics.mean(sizes) / 1024.0 if sizes else 0.0

