"""Wrap points for the traced runs: which public calls become spans.

Everything here patches classes or module attributes, never the
objects a run creates, and :meth:`Tracer.restore` undoes it.  Patching
from outside matters most for the service: its detection core is
pickled into every checkpoint, so a wrapper stored on any object in it
would change the snapshot bytes that ``serve.snapshot_s`` measures.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.booking.reservation import ReservationSystem
from repro.sim.events import EventLoop
from repro.web.application import WebApplication

from .layers import categorize_label
from .spans import SimProfiler, Tracer


def install_sim(tracer: Tracer) -> SimProfiler:
    """Sim kernel, traffic, web edge and booking spans.

    Every event loop built while the patch is live gets the profiler,
    so the scale world's shards (which build their worlds internally)
    are covered as well as Case A.
    """
    profiler = SimProfiler(tracer, categorize_label)
    original_init = EventLoop.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.profiler = profiler

    tracer.patch(EventLoop, "__init__", init)
    tracer.wrap(EventLoop, "run_until", "sim.run")
    tracer.wrap(WebApplication, "handle", "web.handle")
    tracer.wrap(ReservationSystem, "create_hold", "booking.hold")
    return profiler


def install_batch_graph(tracer: Tracer) -> None:
    """Graph build / compile / propagate / campaigns of the batch
    :class:`~repro.graph.detector.GraphDetector`."""
    from repro.graph import detector
    from repro.graph.builder import GraphBuilder

    tracer.wrap(GraphBuilder, "observe_all", "graph.build")
    tracer.wrap(detector, "compile_graph", "graph.compile")
    tracer.wrap(detector, "propagate", "graph.propagate")
    tracer.wrap(detector, "extract_campaigns", "graph.campaigns")


class RefreshLog:
    """Per-refresh cost and usefulness of the streaming graph adapter.

    A refresh is one ``analyze`` call from :mod:`repro.graph.stream`
    plus the ``compile_graph`` that preceded it, if any.  It is useful
    when the adapter call that ran it convicted a fingerprint it had
    not convicted before (the call returns those verdicts).
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.useful = 0
        self._pending = 0.0

    def on_refresh_part(self, span_seconds: float, ends_refresh: bool) -> None:
        self._pending += span_seconds
        if ends_refresh:
            self.seconds.append(self._pending)
            self._pending = 0.0

    def metrics(self) -> Dict[str, float]:
        seconds = self.seconds
        tenth = max(1, len(seconds) // 10)
        first = sum(seconds[:tenth]) / tenth if seconds else 0.0
        last = sum(seconds[-tenth:]) / tenth if seconds else 0.0
        return {
            "graph.refreshes": float(len(seconds)),
            "graph.refresh_cost_growth": last / first if first else 0.0,
            "graph.refresh_useful_frac": (
                self.useful / len(seconds) if seconds else 0.0
            ),
        }


def install_serve(tracer: Tracer) -> RefreshLog:
    """Service, stream and streaming-graph spans (see module doc)."""
    from repro.graph import stream as graph_stream
    from repro.graph.stream import GraphStreamAdapter
    from repro.serve import service
    from repro.serve.service import DetectionService
    from repro.serve.state import StateStore
    from repro.stream.fusion import IncrementalFusion
    from repro.stream.pipeline import StreamPipeline
    from repro.stream.sessionizer import StreamSessionizer

    refreshes = RefreshLog()
    tracer.wrap(service, "parse_events", "serve.codec")
    tracer.wrap(StateStore, "append_events", "serve.journal")
    tracer.wrap(StateStore, "write_snapshot", "serve.snapshot")
    tracer.wrap(DetectionService, "checkpoint", "serve.checkpoint")
    tracer.wrap(DetectionService, "ingest", "serve.ingest")
    for view in ("verdicts_view", "campaigns_view", "entities_view"):
        tracer.wrap(DetectionService, view, "serve.views")
    tracer.wrap(DetectionService, "finish", "serve.finish")
    tracer.wrap(DetectionService, "analysis_digest", "serve.finish")
    tracer.wrap(StreamPipeline, "process", "stream.process")
    tracer.wrap(StreamPipeline, "finish", "stream.finish")
    for method in ("observe", "close_idle", "flush"):
        tracer.wrap(StreamSessionizer, method, "stream.sessionize")
    tracer.wrap(IncrementalFusion, "update", "stream.fusion")

    def part(ends_refresh: bool):
        def after(result):
            log = tracer.log()
            started = log.starts[log.stack[-1]]
            refreshes.on_refresh_part(perf_counter() - started, ends_refresh)
        return after

    tracer.wrap(graph_stream, "compile_graph", "graph.refresh",
                after=part(False))
    tracer.wrap(graph_stream, "analyze", "graph.refresh", after=part(True))

    def count_useful(original):
        def call(adapter, *args, **kwargs):
            before = adapter.refreshes
            verdicts = original(adapter, *args, **kwargs)
            if adapter.refreshes != before and len(verdicts):
                refreshes.useful += 1
            return verdicts
        return call

    for method in ("on_session_closed", "end_of_stream"):
        tracer.patch(
            GraphStreamAdapter, method,
            count_useful(getattr(GraphStreamAdapter, method)),
        )
    return refreshes

