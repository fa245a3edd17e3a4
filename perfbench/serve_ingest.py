"""``serve-ingest``: sustained ingest through ``python -m repro serve``.

Set-up, outside every timing: simulate a Case A trace from the seed,
cut it into fixed-size ``POST /ingest`` bodies carrying ``seq`` tokens,
and compute the reference digest once with the in-process
``DetectionService.replay_file``.

One pass: spawn the server, wait for ``/healthz``, then one client
sends every batch over one keep-alive connection, in a closed loop
(the seq protocol makes a frontend wait for each ack).  After every
third batch it reads ``GET /verdicts?bot=1`` and ``GET /campaigns``,
and it ends with ``POST /finish``.  Each pass starts a fresh server on
a fresh database.

The trace is Case A with each of its three phases (baseline, attack,
NiP cap) two days long instead of a week: the full three-week trace
ingests at ~1.3k events/s on a 2-core machine, 30 s per pass, which
leaves no room for repeated passes inside a run.  Only its first
``EVENTS`` events are sent (the attack is over by then), so that every
seed ingests the same amount: ingest cost grows faster than linearly
with stream length, and a seed-dependent length would show up as
spread between runs.

Output checks: every ack applied exactly its batch, every request got
a 2xx answer, and each pass's ``/finish`` digest equals the reference.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.scenarios.case_a import CaseAConfig, run_case_a
from repro.serve.server import DetectionServer
from repro.serve.service import DetectionService, ingest_payload
from repro.serve.state import StateStore
from repro.sim.clock import DAY
from repro.trace import TraceCapture, read_entries

from .common import (
    SRC,
    Outcome,
    WorkDir,
    children_rss_mb,
    median_rep,
    percentile,
    repeat,
    spans_path,
)
from .layers import charge, traced_metrics
from .spans import SpanLog, Tracer, untimed
from .wraps import install_serve

NAME = "serve-ingest"
MIN_REPS = 2
BATCH = 256
EVENTS = 48 * BATCH
QUERY_EVERY = 3
QUERIES = ("/verdicts?bot=1", "/campaigns")
PHASE = 2 * DAY


def trace_config(seed: int) -> CaseAConfig:
    """Case A with two-day phases; the attack's stop margin and the
    cap's timing keep their default relation to the phases."""
    return CaseAConfig(
        seed=seed,
        attack_start=PHASE,
        cap_at=2 * PHASE,
        departure_time=3 * PHASE + 2.5 * DAY,
    )


@dataclass
class Inputs:
    bodies: List[bytes]
    sizes: List[int]
    events: int
    reference_digest: str


def prepare(config: CaseAConfig, work: WorkDir, events: int) -> Inputs:
    """Capture the trace, keep its first ``events`` events, encode the
    batches, replay the reference."""
    trace = work.file("trace.rptr")
    with TraceCapture(trace) as capture:
        run_case_a(config, on_world=lambda world: capture.attach(world.app.log))
    entries = list(read_entries(trace))[:events]
    if len(entries) < events:
        raise RuntimeError(f"trace has {len(entries)} events, need {events}")
    bodies, sizes = [], []
    for start in range(0, len(entries), BATCH):
        batch = entries[start:start + BATCH]
        bodies.append(
            json.dumps({"events": ingest_payload(batch), "seq": start}).encode()
        )
        sizes.append(len(batch))
    with StateStore(work.file("reference.db")) as store:
        reference = DetectionService(store)
        reference.replay_file(trace, limit=events)
        digest = reference.analysis_digest()
    return Inputs(bodies, sizes, len(entries), digest)


class Client:
    """One keep-alive connection; every call returns (status, body, s)."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        started = perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload), perf_counter() - started

    def close(self) -> None:
        self.conn.close()


@dataclass
class Pass:
    setup_s: float = 0.0
    wall_s: float = 0.0
    acks: List[float] = field(default_factory=list)
    queries: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    #: Size of the last checkpoint; thread-hosted passes only.
    snapshot_bytes: float = 0.0
    events: int = 0
    sessions_closed: int = 0
    #: Traced passes only.
    layers: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s


def drive(client: Client, inputs: Inputs, span: Callable = untimed) -> Pass:
    """The ingest phase: every batch, the interleaved reads, finish."""
    result = Pass(events=inputs.events)

    def call(method: str, path: str, body: Optional[bytes] = None):
        result.attempted += 1
        with span("serve.request"):
            status, payload, seconds = client.call(method, path, body)
        if not 200 <= status < 300:
            result.failed += 1
            result.errors.append(f"{method} {path}: HTTP {status} {payload}")
        return status, payload, seconds

    started = perf_counter()
    for index, (body, size) in enumerate(zip(inputs.bodies, inputs.sizes)):
        status, ack, seconds = call("POST", "/ingest", body)
        result.acks.append(seconds)
        if status == 200 and ack.get("applied") != size:
            result.failed += 1
            result.errors.append(
                f"batch {index}: applied {ack.get('applied')} of {size}"
            )
        if (index + 1) % QUERY_EVERY == 0:
            for path in QUERIES:
                result.queries.append(call("GET", path)[2])
    status, finish, _ = call("POST", "/finish")
    result.wall_s = perf_counter() - started
    if status == 200:
        result.digest = finish["digest"]
        result.sessions_closed = finish["sessions_closed"]
    if result.digest != inputs.reference_digest:
        result.failed += 1
        result.errors.append(
            f"/finish digest {result.digest[:12]} differs from the "
            f"in-process replay's {inputs.reference_digest[:12]}"
        )
    return result


def _wait_healthy(port: int, deadline: float) -> Client:
    while True:
        client = Client(port)
        try:
            status, _, _ = client.call("GET", "/healthz")
            if status == 200:
                return client
        except OSError:
            if time.monotonic() > deadline:
                raise
        client.close()
        time.sleep(0.01)


def _shutdown(port: int) -> None:
    """Ask a server to stop; one that is already gone is fine."""
    client = Client(port)
    try:
        client.call("POST", "/shutdown")
    except OSError:
        pass
    finally:
        client.close()


def subprocess_pass(inputs: Inputs, work: WorkDir, index: int) -> Pass:
    """Spawn ``python -m repro serve``, drive it, shut it down."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    log_path = work.file(f"serve-{index}.log")
    started = perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", work.file(f"serve-{index}.db"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, text=True, env=env,
        )
    try:
        banner = server.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        client = _wait_healthy(port, time.monotonic() + 30)
        setup_s = perf_counter() - started
        result = drive(client, inputs)
        result.setup_s = setup_s
        client.close()
        _shutdown(port)
        server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    if server.returncode != 0:
        with open(log_path, encoding="utf-8") as log:
            sys.stderr.write(log.read())
        result.failed += 1
        result.errors.append(f"server exited with {server.returncode}")
    return result


async def _serve_quietly(server: DetectionServer) -> None:
    """Serve until shutdown, without logging the cancellation of a
    connection that is still closing when the loop stops."""
    loop = asyncio.get_running_loop()

    def handle(loop, context):
        if not isinstance(context.get("exception"), asyncio.CancelledError):
            loop.default_exception_handler(context)

    loop.set_exception_handler(handle)
    await server.serve()


def thread_pass(inputs: Inputs, work: WorkDir, index: int,
                traced: bool) -> Pass:
    """The same pass with the server on a thread of this process, so
    that wrappers can see its calls (see :mod:`perfbench.wraps`); the
    untraced variant is what the tracing overhead is measured against.
    """
    with Tracer() as tracer:
        refreshes = install_serve(tracer) if traced else None
        server = DetectionServer(work.file(f"thread-{index}.db"), port=0,
                                 quiet=True)
        thread = threading.Thread(
            target=lambda: asyncio.run(_serve_quietly(server)), daemon=True
        )
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while server.port == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            client = _wait_healthy(server.port, deadline)
            for log in tracer.logs:
                log.clear()
            root = tracer.open("serve.phase")
            result = drive(client, inputs, tracer.span if traced else untimed)
            tracer.close(root)
            client.close()
        finally:
            if server.port:
                _shutdown(server.port)
            thread.join(60)
    # The service's own obs registry lives outside the pickled core.
    result.snapshot_bytes = server.obs.gauge("serve.snapshot_bytes")
    if traced:
        result.tracer = tracer
        client_log = tracer.log()
        (server_log,) = [log for log in tracer.logs if log is not client_log]
        result.layers = breakdown(client_log, server_log)
        result.layers.update(refreshes.metrics())
        result.layers["serve.snapshot_bytes"] = result.snapshot_bytes
        result.layers["stream.sessions_closed"] = float(result.sessions_closed)
        result.layers["trace.wall_s"] = client_log.duration(root)
    return result


def breakdown(client_log: SpanLog, server_log: SpanLog) -> dict:
    """Per-layer self times of one traced pass.

    The client's spans and the server's live on two threads.  The
    server's top-level spans are the service calls; what a request
    took beyond them is HTTP (transport, parsing, routing, JSON
    bodies).  The client's own time between requests, and the
    service's bookkeeping around the layers, is ``unattributed_s``.
    """
    requests = [
        i for i, name in enumerate(client_log.names) if name == "serve.request"
    ]
    times = client_log.self_times()
    times.pop("serve.request", None)
    for name, seconds in server_log.self_times().items():
        times[name] = times.get(name, 0.0) + seconds
    layers = charge(times)
    layers["serve.http_s"] = sum(map(client_log.duration, requests)) - sum(
        map(server_log.duration, server_log.roots())
    )
    layers["stream.entries"] = float(server_log.names.count("stream.process"))
    layers["serve.checkpoints"] = float(server_log.names.count("serve.snapshot"))
    return layers


def latency_notes(passes: List[Pass]) -> Tuple[dict, List[str]]:
    acks = [s * 1e3 for p in passes for s in p.acks]
    queries = [s * 1e3 for p in passes for s in p.queries]
    figures = {
        "serve.ack_p50_ms": percentile(acks, 50),
        "serve.ack_p90_ms": percentile(acks, 90),
        "serve.query_p50_ms": percentile(queries, 50),
        "serve.query_p75_ms": percentile(queries, 75),
    }
    notes = [
        f"ingest_ack_p50_ms {figures['serve.ack_p50_ms']:.3f} ms  (n={len(acks)})",
        f"ingest_ack_p90_ms {figures['serve.ack_p90_ms']:.3f} ms  (n={len(acks)})",
        f"query_p50_ms {figures['serve.query_p50_ms']:.3f} ms  (n={len(queries)})",
        f"query_p75_ms {figures['serve.query_p75_ms']:.3f} ms  (n={len(queries)})",
    ]
    return figures, notes


def run(seed: int, seconds: float, trace: bool, min_reps: int = MIN_REPS,
        config: Optional[CaseAConfig] = None, events: int = EVENTS) -> Outcome:
    config = config or trace_config(seed)
    outcome = Outcome(NAME, metrics={})
    with WorkDir() as work:
        inputs = prepare(config, work, events)
        counter = itertools.count()
        if trace:
            rounds = repeat(
                seconds,
                lambda: (subprocess_pass(inputs, work, next(counter)),
                         thread_pass(inputs, work, next(counter), False),
                         thread_pass(inputs, work, next(counter), True)),
                min_reps,
            )
            spawned = [r[0] for r in rounds]
            plain = [r[1] for r in rounds]
            traced = [r[2] for r in rounds]
            chosen = median_rep(traced, key=lambda p: p.wall_s)
            figures, notes = latency_notes(spawned)
            outcome.metrics = traced_metrics(
                {**chosen.layers, **figures},
                [p.wall_s for p in traced], [p.wall_s for p in plain],
            )
            outcome.notes.extend(notes)
            outcome.notes.append(
                "breakdown of a thread-hosted traced pass; overhead against "
                "untraced thread-hosted passes; latencies from spawned servers"
            )
            chosen.tracer.write(spans_path(NAME))
            passes = spawned + plain + traced
            sizes = {p.snapshot_bytes for p in plain + traced}
            if len(sizes) != 1:
                outcome.fail(
                    f"traced and untraced snapshots differ in size: {sorted(sizes)}"
                )
        else:
            passes = repeat(
                seconds,
                lambda: subprocess_pass(inputs, work, next(counter)),
                min_reps,
            )
            outcome.metrics = {
                "setup_s": median([p.setup_s for p in passes]),
                "wall_s": median([p.wall_s for p in passes]),
                "events_per_s": median([p.events_per_s for p in passes]),
                "peak_rss_mb": children_rss_mb(),
            }
            for name in ("setup_s", "wall_s", "events_per_s"):
                outcome.samples[name] = len(passes)
            outcome.samples["peak_rss_mb"] = len(passes)
            outcome.notes.extend(latency_notes(passes)[1])
    outcome.notes.append(
        f"{inputs.events} events in {len(inputs.bodies)} batches of "
        f"{BATCH}; reference digest {inputs.reference_digest[:16]}"
    )
    for p in passes:
        outcome.attempted += p.attempted
        outcome.failed += p.failed
        outcome.errors.extend(p.errors)
    return outcome
