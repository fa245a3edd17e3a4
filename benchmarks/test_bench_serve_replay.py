"""Serve-path replay throughput: HTTP service vs direct replay.

The service wraps the streaming pipeline in an HTTP boundary, a
write-ahead journal, and periodic SQLite snapshots — all of which cost
something per event.  This benchmark replays the same synthetic trace
three ways and pins the service tax:

* **bare** — ``replay_trace`` into ``build_stream_pipeline`` with no
  graph adapter: an informational ceiling showing what the periodic
  campaign re-analysis itself costs (the dominant term, and present in
  any full-stack deployment — serve or not);
* **direct** — ``replay_trace`` into the *same* detection core the
  service builds (``repro.serve.service.build_core``): the honest
  comparator for the serve tax;
* **service** — in-process ``DetectionService.replay_file``: direct
  plus the write-ahead journal and periodic SQLite snapshots;
* **server** — a live ``DetectionServer`` driven through ``POST
  /replay``: the full production path, HTTP included.

Floor (ISSUE 7 acceptance): the server path must sustain at least 50%
of the direct replay rate.  The service and server paths must also
agree bit-for-bit on the final analysis digest — the HTTP boundary
adds transport, not semantics.
"""

import asyncio
import json
import os
import threading
from time import perf_counter

import pytest
from conftest import OUTPUT_DIR, quick_mode, save_artifact

from repro.analysis.reports import render_table
from repro.common import ClientRef
from repro.scenarios.streaming import build_stream_pipeline
from repro.serve.client import ServeClient
from repro.serve.server import DetectionServer
from repro.serve.service import (
    DEFAULT_REFRESH_EVERY,
    DetectionService,
    build_core,
)
from repro.serve.state import StateStore
from repro.trace import TraceWriter, replay_trace
from repro.web.logs import LogEntry

#: Server throughput floor relative to direct same-core replay (the
#: acceptance pin).
MIN_SERVER_FRACTION = 0.5

WAVES = 20 if quick_mode() else 200
VISITORS_PER_WAVE = 20


def _entry(time_, ip, fingerprint, path, method, actor_class):
    return LogEntry(
        time=time_,
        method=method,
        path=path,
        status=200,
        client=ClientRef(
            ip_address=ip,
            ip_country="NL",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA-bench",
            actor_class=actor_class,
        ),
    )


def workload_entries():
    """Time-ordered mixed workload: rotating hold bursts from a shared
    IP (the campaign) against waves of legitimate browsing."""
    entries = []
    clock = 1_000.0
    for wave in range(WAVES):
        attacker = f"fp-rot-{wave % 8}"
        for _ in range(6):
            entries.append(
                _entry(clock, "203.0.113.66", attacker, "/hold",
                       "POST", "seat_spinner")
            )
            clock += 20.0
        for visitor in range(VISITORS_PER_WAVE):
            fingerprint = f"fp-w{wave}-v{visitor}"
            ip = f"192.0.{wave % 200}.{visitor + 1}"
            for path in ("/search", "/flight", "/search", "/fare"):
                entries.append(
                    _entry(clock, ip, fingerprint, path, "GET", "legit")
                )
                clock += 5.0
        clock += 2_400.0  # close the wave's sessions
    return entries


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve_bench") / "bench.rptr")
    entries = workload_entries()
    with TraceWriter(path, meta={"scenario": "serve-bench"}) as writer:
        for entry in entries:
            writer.write(entry)
    return path, len(entries)


def _run_server_replay(trace_path, db_path):
    """Boot a real DetectionServer on a thread, replay through HTTP."""
    server = DetectionServer(db_path, port=0, quiet=True)
    started = threading.Event()

    def run():
        async def main():
            await server.start()
            started.set()
            await server._shutdown.wait()
            await server._close()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(15), "server never started"
    try:
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_ready()
        start = perf_counter()
        result = client.replay(trace_path)
        elapsed = perf_counter() - start
        finish = client.finish()
        client.shutdown()
    finally:
        thread.join(15)
    return result, finish, elapsed


def test_serve_replay_throughput(trace, tmp_path):
    trace_path, total = trace

    # Informational ceiling: bare pipeline, no graph adapter at all.
    _, bare_stats = replay_trace(trace_path, build_stream_pipeline())
    bare_rate = bare_stats.events_per_second

    # Comparator: the identical detection core (pipeline + graph
    # adapter at the service's refresh cadence), zero persistence.
    core = build_core(DEFAULT_REFRESH_EVERY, 256)
    _, direct_stats = replay_trace(trace_path, core["pipeline"])
    direct_rate = direct_stats.events_per_second

    # Service tax: the same core plus journal + checkpoints, no HTTP.
    service = DetectionService(StateStore(str(tmp_path / "svc.db")))
    start = perf_counter()
    service.replay_file(trace_path)
    service_rate = total / (perf_counter() - start)
    service_digest = service.finish() and service.analysis_digest()

    # Production path: HTTP /replay against a live server.
    result, finish, elapsed = _run_server_replay(
        trace_path, str(tmp_path / "srv.db")
    )
    assert result["replayed"] == total
    server_rate = total / elapsed

    payload = {
        "events": total,
        "quick_mode": quick_mode(),
        "bare_pipeline_events_per_second": round(bare_rate),
        "direct_events_per_second": round(direct_rate),
        "service_events_per_second": round(service_rate),
        "server_events_per_second": round(server_rate),
        "server_fraction_of_direct": round(server_rate / direct_rate, 3),
        "min_server_fraction": MIN_SERVER_FRACTION,
        "campaigns_convicted": finish["campaigns_convicted"],
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUTPUT_DIR, "serve_replay.json"), "w",
        encoding="utf-8",
    ) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    save_artifact(
        "serve_replay",
        render_table(
            ["Path", "events/sec", "vs direct"],
            [
                [
                    "bare pipeline (no graph adapter)",
                    f"{bare_rate:,.0f}",
                    f"{bare_rate / direct_rate:.2f}x",
                ],
                [
                    "direct replay into full core",
                    f"{direct_rate:,.0f}",
                    "1.00x",
                ],
                [
                    "service replay_file (journal+snapshot)",
                    f"{service_rate:,.0f}",
                    f"{service_rate / direct_rate:.2f}x",
                ],
                [
                    "server POST /replay (full HTTP path)",
                    f"{server_rate:,.0f}",
                    f"{server_rate / direct_rate:.2f}x",
                ],
            ],
            title=(
                f"Replay throughput over {total:,} events "
                f"(floor: server >= {MIN_SERVER_FRACTION:.0%} of direct)"
            ),
        ),
    )

    # The workload's campaign is convicted through the server path …
    assert finish["campaigns_convicted"] >= 1
    # … the HTTP boundary changes nothing semantically …
    assert finish["digest"] == service_digest
    # … and the persistence + transport tax stays within the floor.
    assert server_rate >= MIN_SERVER_FRACTION * direct_rate
