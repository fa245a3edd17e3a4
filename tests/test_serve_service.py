"""Tests for repro.serve.service: journal-first application,
checkpoint/restore equivalence, campaign conviction, digests."""

import io
import pickle
from collections import Counter

import pytest

from repro.graph.entities import EntityId
from repro.graph.propagation import CompiledGraph, compile_graph
from repro.scenarios.streaming import build_stream_pipeline
from repro.serve.codec import CodecError
from repro.serve.service import (
    DetectionService,
    SeqConflict,
    ServiceFinished,
    ingest_payload,
)
from repro.serve.state import StateStore
from repro.web.logs import Session

from tests.serve_util import campaign_entries, make_entry, write_trace


#: ``analysis_digest()`` of ``campaign_entries()`` through a service;
#: recompute it only for a change meant to move results.
GOLDEN_CAMPAIGN_DIGEST = (
    "c60be1b935ecd6ae1b8fe62faf753608c0195cfa16e58b2c9338bcbd269d9c31"
)


def make_service(tmp_path, name="s.db", **kwargs):
    kwargs.setdefault("checkpoint_interval", 10_000)
    return DetectionService(
        StateStore(str(tmp_path / name)), **kwargs
    )


def live_views(service):
    """Every read-out that carries mid-stream conviction state."""
    return (
        service.verdicts_view(),
        service.campaigns_view(),
        service.entities_view(),
        service.status_view()["sessions_closed"],
    )


class TestIngest:
    def test_ingest_matches_direct_pipeline(self, tmp_path):
        """The serve path adds persistence, not semantics: fused
        verdicts equal a bare pipeline fed the same entries."""
        entries = campaign_entries()
        service = make_service(tmp_path)
        applied = service.ingest(ingest_payload(entries))
        assert applied == len(entries)

        direct = build_stream_pipeline()
        for entry in entries:
            direct.process(entry)
        assert (
            service.pipeline.fusion.fused() == direct.fusion.fused()
        )

    def test_seq_token_detects_double_send(self, tmp_path):
        service = make_service(tmp_path)
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        service.ingest(events, seq=0)
        with pytest.raises(SeqConflict) as exc_info:
            service.ingest(events, seq=0)  # client retries blindly
        assert exc_info.value.expected == 2

    def test_bad_batch_rejected_before_any_side_effect(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(10.0)]))
        bad = ingest_payload([make_entry(20.0)]) + [{"nope": True}]
        with pytest.raises(CodecError):
            service.ingest(bad)
        # Nothing from the rejected batch was journaled or applied.
        assert service.events_ingested == 1
        assert service.store.journal_rows() == 1
        assert service.pipeline.events_processed == 1

    def test_out_of_order_batch_rejected(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(10.0)]))
        with pytest.raises(CodecError, match="time-ordered"):
            service.ingest(ingest_payload([make_entry(5.0)]))
        assert service.events_ingested == 1

    def test_ingest_after_finish_refused(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(1.0)]))
        service.finish()
        with pytest.raises(ServiceFinished):
            service.ingest(ingest_payload([make_entry(2.0)]))


class TestReplayFile:
    def test_replay_equals_ingest(self, tmp_path):
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)

        replayed = make_service(tmp_path, "a.db")
        result = replayed.replay_file(trace, batch=7)
        assert result["replayed"] == len(entries)

        ingested = make_service(tmp_path, "b.db")
        ingested.ingest(ingest_payload(entries))
        assert (
            replayed.analysis_digest() == ingested.analysis_digest()
        )

    def test_offset_and_limit_chunk_the_trace(self, tmp_path):
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)
        service = make_service(tmp_path)
        first = service.replay_file(trace, offset=0, limit=10)
        assert first == {
            "replayed": 10, "skipped": 0, "events_ingested": 10,
        }
        second = service.replay_file(trace, offset=10)
        assert second["skipped"] == 10
        assert second["events_ingested"] == len(entries)

    def test_zero_event_trace(self, tmp_path):
        trace = write_trace(tmp_path / "empty.rptr", [])
        service = make_service(tmp_path)
        assert service.replay_file(trace)["replayed"] == 0

    def test_corrupt_trace_leaves_journal_consistent(self, tmp_path):
        from repro.trace import TraceCorruption

        entries = campaign_entries()
        source = write_trace(tmp_path / "ok.rptr", entries)
        blob = open(source, "rb").read()
        truncated = tmp_path / "bad.rptr"
        truncated.write_bytes(blob[:-13])  # drop the CRC footer
        service = make_service(tmp_path)
        with pytest.raises(TraceCorruption):
            service.replay_file(str(truncated), batch=7)
        # Whatever was applied was journaled first: memory == disk.
        assert service.store.journal_rows() == service.events_ingested
        assert (
            service.pipeline.events_processed == service.events_ingested
        )


class TestRecoveryEquivalence:
    def test_restore_mid_stream_is_bit_identical(self, tmp_path):
        """Kill-and-restore == uninterrupted, down to the digest."""
        entries = campaign_entries()
        events = ingest_payload(entries)

        uninterrupted = make_service(
            tmp_path, "a.db", checkpoint_interval=13
        )
        uninterrupted.ingest(events)
        reference_views = live_views(uninterrupted)
        reference = uninterrupted.analysis_digest()

        # Interrupted run: ingest 60%, abandon the in-memory state
        # (simulated SIGKILL — no checkpoint, no close), restore.
        cut = int(len(events) * 0.6)
        first = DetectionService(
            StateStore(str(tmp_path / "b.db")), checkpoint_interval=13
        )
        first.ingest(events[:cut])
        first.store.close()
        del first

        resumed = DetectionService(
            StateStore(str(tmp_path / "b.db")), checkpoint_interval=13
        )
        assert resumed.restored
        assert resumed.events_ingested == cut
        resumed.ingest(events[cut:], seq=cut)
        assert live_views(resumed) == reference_views
        assert resumed.analysis_digest() == reference
        assert live_views(resumed) == live_views(uninterrupted)

    def test_restore_replays_journal_tail(self, tmp_path):
        events = ingest_payload(campaign_entries())
        first = DetectionService(
            StateStore(str(tmp_path / "s.db")), checkpoint_interval=13
        )
        # Small batches: checkpoints land on batch boundaries, so the
        # final few events stay journal-only.
        for start in range(0, len(events), 5):
            first.ingest(events[start:start + 5])
        tail = first.events_ingested - first.store.snapshot_seq()
        assert tail > 0
        first.store.close()
        del first

        resumed = DetectionService(
            StateStore(str(tmp_path / "s.db")), checkpoint_interval=13
        )
        assert resumed.journal_replayed == tail
        assert resumed.events_ingested == len(events)

    def test_fresh_db_without_snapshot_replays_full_journal(
        self, tmp_path
    ):
        events = ingest_payload(campaign_entries())
        first = make_service(tmp_path)  # interval huge: no snapshot
        first.ingest(events)
        assert first.store.snapshot_seq() == 0
        first.store.close()
        del first
        resumed = make_service(tmp_path)
        assert not resumed.restored  # no snapshot, cold core
        assert resumed.journal_replayed == len(events)
        assert resumed.events_ingested == len(events)


class TestSnapshotContents:
    def test_checkpoint_holds_live_state_only(self, tmp_path):
        """A snapshot pickles the open sessions, not the closed ones,
        and no CSR compile of the graph — so it does not grow with
        the length of the stream."""
        entries = campaign_entries()
        service = make_service(tmp_path, refresh_every=1, evict_every=1)
        service.ingest(ingest_payload(entries[: len(entries) // 2]))
        sessionizer = service.pipeline.sessionizer
        assert sessionizer.sessions_closed > 0

        pickled = Counter()

        class CountingPickler(pickle.Pickler):
            def reducer_override(self, obj):
                pickled[type(obj)] += 1
                return NotImplemented

        CountingPickler(
            io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL
        ).dump(service._core)
        assert pickled[Session] == sessionizer.open_sessions
        assert pickled[CompiledGraph] == 0

    def test_graph_pickles_as_flat_arrays(self, tmp_path):
        """The entity graph pickles node kinds and values as string
        lists plus flat arrays — not one ``EntityId`` reduction per
        node — and loads back to the same graph: same spans, and a
        compile with byte-identical arrays."""
        entries = campaign_entries()
        service = make_service(tmp_path, refresh_every=1, evict_every=1)
        service.ingest(ingest_payload(entries[: len(entries) // 2]))
        graph = service.graph.builder.graph
        assert graph.node_count > 0 and graph.edge_count > 0

        pickled = Counter()

        class CountingPickler(pickle.Pickler):
            def reducer_override(self, obj):
                pickled[type(obj)] += 1
                return NotImplemented

        CountingPickler(
            io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL
        ).dump(graph)
        assert pickled[EntityId] == 0

        restored = pickle.loads(
            pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert restored.snapshot(include_spans=True) == graph.snapshot(
            include_spans=True
        )
        mine, theirs = compile_graph(restored), compile_graph(graph)
        assert mine.version == theirs.version
        assert mine.nodes == theirs.nodes
        assert mine.index == theirs.index
        for name in (
            "rank", "indptr", "src", "dst", "weights", "degree",
            "src_degree",
        ):
            mine_array, theirs_array = getattr(mine, name), getattr(theirs, name)
            assert mine_array.dtype == theirs_array.dtype, name
            assert mine_array.tobytes() == theirs_array.tobytes(), name


class TestGoldenDigest:
    def test_campaign_trace_digest_is_pinned(self, tmp_path):
        """A literal digest, not batch == stream == serve: a change
        that moved verdicts, propagation scores or campaigns the same
        way on every path fails here.  Mid-stream refreshes do not
        change the final analysis, so both cadences pin one value."""
        for name, refresh_every in (("a.db", None), ("b.db", 2)):
            service = make_service(
                tmp_path, name, refresh_every=refresh_every
            )
            service.ingest(ingest_payload(campaign_entries()))
            assert service.analysis_digest() == GOLDEN_CAMPAIGN_DIGEST


class TestDetectionOutcomes:
    def test_campaign_convicted_on_finish(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        service.finish()
        campaigns = service.campaigns_view()
        assert len(campaigns) >= 1
        fingerprints = set(campaigns[0]["fingerprints"])
        assert {
            f"fp-rot-{i}" for i in range(4)
        } <= fingerprints
        entities = service.entities_view()
        assert {e["fingerprint_id"] for e in entities} >= {
            f"fp-rot-{i}" for i in range(4)
        }

    def test_periodic_refresh_convicts_mid_stream(self, tmp_path):
        # With a small refresh cadence and aggressive idle eviction
        # (sessions close as event time advances) the campaign lands
        # during ingest — before finish — the live-service story.
        service = make_service(
            tmp_path, refresh_every=2, evict_every=8
        )
        service.ingest(ingest_payload(campaign_entries()))
        assert len(service.campaigns_view()) >= 1

    def test_legit_fingerprints_not_convicted(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        service.finish()
        convicted = {
            e["fingerprint_id"] for e in service.entities_view()
        }
        assert not any(fp.startswith("fp-legit") for fp in convicted)

    def test_status_view_counts(self, tmp_path):
        service = make_service(tmp_path)
        events = ingest_payload(campaign_entries())
        service.ingest(events)
        status = service.status_view()
        assert status["events_ingested"] == len(events)
        assert status["journal_rows"] == len(events)
        assert status["finished"] is False

    def test_finish_is_idempotent(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        first = service.finish()
        assert service.finish() is first
        assert service.analysis_digest() == service.analysis_digest()

    def test_checkpoint_writes_derived_tables(self, tmp_path):
        service = make_service(
            tmp_path, refresh_every=2, evict_every=8
        )
        service.ingest(ingest_payload(campaign_entries()))
        service.checkpoint()
        derived = service.store.read_derived()
        assert len(derived["campaigns"]) >= 1
        assert len(derived["entities"]) >= 4
        assert any(v["is_bot"] for v in derived["verdicts"])
