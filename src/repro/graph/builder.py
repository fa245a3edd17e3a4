"""The multipartite entity graph and its incremental builder.

:class:`EntityGraph` is a weighted undirected graph over
:class:`~repro.graph.entities.EntityId` nodes with first/last-seen
times per node; it stores each edge once.  Edge insertion is
idempotent (same pair, max weight), so the graph a feed produces is
independent of observation order — the property the
streaming-equals-batch equivalence test pins.

:class:`GraphBuilder` turns raw records into graph structure one
observation at a time:

* web-log entries / closed sessions — session ↔ fingerprint ↔ IP
  ↔ /24 subnet, the links *within* a rotation epoch;
* booking records — fingerprint ↔ target flight and, gated on
  recurrence, fingerprint ↔ passenger-name key: the side-channel that
  survives Case A/B identity rotation;
* SMS records — fingerprint ↔ phone number and fingerprint ↔ booking
  reference: the Case C anchors ("a handful of purchased tickets
  anchor thousands of sends").

Transient state (passenger-name recurrence gating) lives in a
:class:`~repro.stream.store.KeyedStore` with a hard key cap, so the
builder rides the streaming pipeline with bounded memory; the graph
itself grows like the log it summarises.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import filterfalse
from math import isnan, nan
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..booking.reservation import BookingRecord
from ..sms.gateway import SmsRecord
from ..stream.store import KeyedStore
from ..web.logs import LogEntry, Session
from .entities import (
    EntityId,
    booking_ref_node,
    fingerprint_node,
    flight_node,
    ip_node,
    join_ids,
    name_key_node,
    phone_node,
    session_node,
    split_ids,
    subnet_node,
)

#: Edge trust weights by link type.  Strong links are identities the
#: attacker must actively share (booking reference, recurring passenger
#: name); weak links are hubs legitimate traffic also touches (target
#: flight, /24 subnet) — propagation's source-side degree
#: normalization further attenuates those.
EDGE_SESSION_FINGERPRINT = 1.0
EDGE_SESSION_IP = 0.7
EDGE_FINGERPRINT_IP = 0.8
EDGE_FINGERPRINT_NAME = 0.9
EDGE_FINGERPRINT_REF = 0.95
EDGE_FINGERPRINT_PHONE = 0.7
EDGE_FINGERPRINT_FLIGHT = 0.25
EDGE_IP_SUBNET = 0.5


class EntityGraph:
    """Weighted undirected multipartite graph with node timestamps.

    Nodes get int ids in insertion order (a node's position in
    :meth:`nodes`); all other state is flat append-only arrays, so
    compiles gather with NumPy and checkpoints pickle memcpy blocks.
    Spans are two ``array('d')`` by node id (NaN = unseen).  Each
    undirected edge has one slot — ``(lo_id, hi_id)`` in an
    ``array('q')``, weight in an ``array('d')`` — found through a
    pair -> slot dict; a higher weight overwrites it in place.
    """

    def __init__(self) -> None:
        self._ids: Dict[EntityId, int] = {}
        self._nodes: List[EntityId] = []
        self._first_seen = array("d")
        self._last_seen = array("d")
        self._ends = array("q")
        self._weights = array("d")
        self._slots: Dict[Tuple[int, int], int] = {}
        #: Structural version stamp: bumped on every node insertion,
        #: edge insertion and edge weight raise (never by :meth:`touch`
        #: — timestamps are not structure); a stale
        #: :class:`~repro.graph.propagation.CompiledGraph` shows by it.
        self.version = 0
        #: :meth:`sorted_nodes` cache (left out of the pickled state).
        self._sorted: List[EntityId] = []
        self._order = np.zeros(0, dtype=np.int64)

    # -- construction --------------------------------------------------------

    def add_node(
        self, node: EntityId, time: Optional[float] = None
    ) -> int:
        """Ensure ``node`` exists; return its int id."""
        node_id = self._ids.get(node)
        if node_id is None:
            node_id = len(self._nodes)
            self._ids[node] = node_id
            self._nodes.append(node)
            self._first_seen.append(nan)
            self._last_seen.append(nan)
            self.version += 1
        # NaN compares false, so an unseen span always takes the time.
        if time is not None:
            if not self._first_seen[node_id] <= time:
                self._first_seen[node_id] = time
            if not self._last_seen[node_id] >= time:
                self._last_seen[node_id] = time
        return node_id

    def touch(self, node: EntityId, time: float) -> None:
        """Extend the node's observed [first_seen, last_seen] span
        (adding the node if it is new)."""
        self.add_node(node, time)

    def add_edge(
        self,
        a: EntityId,
        b: EntityId,
        weight: float,
        time: Optional[float] = None,
    ) -> None:
        """Link ``a`` and ``b`` (idempotent; same pair keeps max weight)."""
        if a == b:
            raise ValueError(f"self-edge not allowed: {a}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"edge weight must be in (0, 1]: {weight}")
        i = self.add_node(a, time)
        j = self.add_node(b, time)
        key = (i, j) if i < j else (j, i)
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = len(self._weights)
            self._ends.extend(key)
            self._weights.append(weight)
            self.version += 1
        elif weight > self._weights[slot]:
            self._weights[slot] = weight
            self.version += 1

    # -- reads ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    @property
    def ids(self) -> Mapping[EntityId, int]:
        """The live node -> int id map — read-only by contract."""
        return self._ids

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the edge slots: ``(lo_id, hi_id)`` rows and weights."""
        ends = np.array(self._ends, dtype=np.int64).reshape(-1, 2)
        return ends, np.array(self._weights, dtype=np.float64)

    def sorted_nodes(self) -> Tuple[List[EntityId], np.ndarray]:
        """The nodes in sorted-id order, and their ids in that order.

        Sorts only the nodes added since the last call and places them
        by binary search.  Callers may keep both (new objects per call
        that adds nodes)."""
        nodes, old = self._nodes, self._sorted
        if len(old) < len(nodes):
            fresh = sorted(range(len(old), len(nodes)), key=nodes.__getitem__)
            at = [bisect_left(old, nodes[i]) for i in fresh]
            self._order = np.insert(self._order, at, fresh)
            self._sorted = list(map(nodes.__getitem__, self._order.tolist()))
        return self._sorted, self._order

    def __contains__(self, node: EntityId) -> bool:
        return node in self._ids

    def nodes(self, kind: Optional[str] = None) -> List[EntityId]:
        """All nodes (optionally one kind), in insertion (id) order."""
        if kind is None:
            return list(self._nodes)
        return [node for node in self._nodes if node.kind == kind]

    def neighbors(self, node: EntityId) -> Dict[EntityId, float]:
        """Neighbours and edge weights (an O(edges) slot-map scan)."""
        i = self._ids.get(node)
        nodes, weights = self._nodes, self._weights
        return {
            nodes[lo if hi == i else hi]: weights[slot]
            for (lo, hi), slot in self._slots.items()
            if i in (lo, hi)
        }

    def first_seen(self, node: EntityId) -> Optional[float]:
        return self._seen(self._first_seen, node)

    def last_seen(self, node: EntityId) -> Optional[float]:
        return self._seen(self._last_seen, node)

    def _seen(self, times: array, node: EntityId) -> Optional[float]:
        i = self._ids.get(node)
        return None if i is None or isnan(times[i]) else times[i]

    def latest_seen(self) -> float:
        """The largest last-seen time of any node (0.0 if none)."""
        return max(filterfalse(isnan, self._last_seen), default=0.0)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self._nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def edges(self) -> List[Tuple[EntityId, EntityId, float]]:
        """Every edge once, endpoints ordered, sorted."""
        nodes, weights = self._nodes, self._weights
        found = []
        for (i, j), slot in self._slots.items():
            a, b = nodes[i], nodes[j]
            found.append(
                (a, b, weights[slot]) if a < b else (b, a, weights[slot])
            )
        return sorted(found)

    def snapshot(self, include_spans: bool = False) -> Dict[str, object]:
        """Canonical plain-data view — two graphs built from the same
        records in any order produce equal snapshots.

        The view is JSON-able once the ``EntityId`` tuples are
        listified, and mergeable: shard worlds ship their graphs across
        the pickle boundary as snapshots and the parent folds them with
        :meth:`merge_snapshot`.  Observation spans are opt-in: span
        times record *when an edge rule fired*, which (unlike the node
        and edge sets) can depend on feed order — e.g. the passenger
        name gate touches nodes at gate-open time — so they are left
        out of the canonical equality view and included only where the
        extra state matters (cross-shard merges).
        """
        view: Dict[str, object] = {
            "nodes": sorted(self.nodes()),
            "edges": self.edges(),
        }
        if include_spans:
            # A sorted triple list, not a node-keyed dict: tuple keys
            # would not survive the JSON result cache.
            view["spans"] = sorted(
                (node, first, last)
                for node, first, last in zip(
                    self._nodes, self._first_seen, self._last_seen
                )
                if not isnan(first)
            )
        return view

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "EntityGraph":
        """Rebuild a graph from :meth:`snapshot` output (exact round-trip
        up to node insertion order, which the snapshot canonicalises)."""
        graph = cls()
        graph.merge_snapshot(data)
        return graph

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a snapshot into this graph (cross-shard merge).

        The fold is associative and commutative: node insertion is
        idempotent, same-pair edges keep the max weight, and spans keep
        the min first-seen / max last-seen — so shard snapshots merge
        to the identical graph in any order.  Nodes/edge endpoints may
        arrive as lists (JSON round-trip) and are re-tupled.
        """
        for raw in data.get("nodes", []):
            self.add_node(EntityId(*raw))
        for a, b, weight in data.get("edges", []):
            self.add_edge(EntityId(*a), EntityId(*b), float(weight))
        for raw, first, last in data.get("spans", []):
            node = EntityId(*raw)
            self.touch(node, float(first))
            self.touch(node, float(last))

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> Tuple[object, ...]:
        """Node kinds and values as two ``str`` lists plus the arrays;
        the id and slot maps and the sort cache are rebuilt on load."""
        return (
            split_ids(self._nodes), self._first_seen, self._last_seen,
            self._ends, self._weights, self.version,
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        self.__init__()
        names, first, last, ends, weights, self.version = state
        self._nodes = nodes = join_ids(*names)
        self._ids = dict(zip(nodes, range(len(nodes))))
        self._first_seen, self._last_seen = first, last
        self._ends, self._weights = ends, weights
        pairs = zip(ends[0::2], ends[1::2])
        self._slots = dict(zip(pairs, range(len(weights))))


@dataclass
class GraphBuilderConfig:
    """Knobs for the incremental builder.

    ``min_name_repeats`` mirrors the rotation linker's gating: a
    passenger-name key only links fingerprints once it has appeared in
    at least that many bookings (one-off shared surnames never link).
    ``max_pending_names`` caps the recurrence-gating state — the
    KeyedStore bound that keeps streaming memory finite.
    """

    min_name_repeats: int = 2
    max_pending_names: int = 50_000

    def __post_init__(self) -> None:
        if self.min_name_repeats < 1:
            raise ValueError(
                f"min_name_repeats must be >= 1: {self.min_name_repeats}"
            )


@dataclass
class _NameState:
    """Recurrence gate for one passenger-name key."""

    bookings: int = 0
    fingerprints: Set[str] = field(default_factory=set)
    active: bool = False


class GraphBuilder:
    """Feeds records into an :class:`EntityGraph`, incrementally.

    The same instance serves batch construction (feed everything, read
    ``graph``) and streaming (one ``observe_*`` call per record as it
    lands) — both produce the identical graph for the same record set,
    in any interleaving, because every link rule is a pure function of
    the records seen so far and edge insertion is idempotent.
    """

    def __init__(
        self,
        config: Optional[GraphBuilderConfig] = None,
        obs: Optional[object] = None,
    ) -> None:
        self.config = config or GraphBuilderConfig()
        self.graph = EntityGraph()
        #: Optional duck-typed :class:`repro.obs.ObsRegistry`.
        self.obs = obs
        self._names: KeyedStore[str, _NameState] = KeyedStore(
            max_keys=self.config.max_pending_names
        )
        #: SMS sends per fingerprint id — the Case C velocity signature
        #: (sessions there are single-request, so per-session priors
        #: carry nothing; the fingerprint is the right granularity).
        self.sms_by_fingerprint: Dict[str, int] = {}
        #: SMS sends per booking reference — the paper's "a handful of
        #: purchased tickets anchor thousands of sends".  The shared
        #: refs are what glue a rotated pumper's fingerprints into one
        #: campaign.
        self.sms_by_ref: Dict[str, int] = {}
        self.sessions_observed = 0
        self.bookings_observed = 0
        self.sms_observed = 0
        self.entries_observed = 0

    # -- observations --------------------------------------------------------

    def observe_entry(self, entry: LogEntry, now: float) -> None:
        """Link the entry's fingerprint and IP (intra-epoch identity)."""
        self.entries_observed += 1
        fp = fingerprint_node(entry.client.fingerprint_id)
        ip = ip_node(entry.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=entry.time)
        self.graph.add_edge(
            ip, subnet_node(entry.client.ip_address),
            EDGE_IP_SUBNET, time=entry.time,
        )
        self._update_gauges()

    def observe_session(self, session: Session) -> None:
        """Add a closed session and its identity edges."""
        self.sessions_observed += 1
        node = session_node(session.session_id)
        fp = fingerprint_node(session.fingerprint_id)
        ip = ip_node(session.ip_address)
        self.graph.add_node(node, time=session.start)
        self.graph.touch(node, session.end)
        self.graph.add_edge(
            node, fp, EDGE_SESSION_FINGERPRINT, time=session.start
        )
        self.graph.add_edge(node, ip, EDGE_SESSION_IP, time=session.start)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=session.start)
        self.graph.add_edge(
            ip, subnet_node(session.ip_address),
            EDGE_IP_SUBNET, time=session.start,
        )
        self._update_gauges()

    def observe_booking(self, record: BookingRecord) -> None:
        """Link the booking's client to its flight and passenger names."""
        self.bookings_observed += 1
        fp = fingerprint_node(record.client.fingerprint_id)
        ip = ip_node(record.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=record.time)
        self.graph.add_edge(
            fp, flight_node(record.flight_id),
            EDGE_FINGERPRINT_FLIGHT, time=record.time,
        )
        for key in sorted({p.name_key for p in record.passengers}):
            self._observe_name(key, record.client.fingerprint_id, record.time)
        self._update_gauges()

    def observe_sms(self, record: SmsRecord) -> None:
        """Link the send's client to its phone number and booking ref."""
        self.sms_observed += 1
        self.sms_by_fingerprint[record.client.fingerprint_id] = (
            self.sms_by_fingerprint.get(record.client.fingerprint_id, 0)
            + 1
        )
        fp = fingerprint_node(record.client.fingerprint_id)
        ip = ip_node(record.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=record.time)
        self.graph.add_edge(
            fp, phone_node(str(record.number)),
            EDGE_FINGERPRINT_PHONE, time=record.time,
        )
        if record.booking_ref:
            self.sms_by_ref[record.booking_ref] = (
                self.sms_by_ref.get(record.booking_ref, 0) + 1
            )
            self.graph.add_edge(
                fp, booking_ref_node(record.booking_ref),
                EDGE_FINGERPRINT_REF, time=record.time,
            )
        self._update_gauges()

    # -- name-recurrence gating ----------------------------------------------

    def _observe_name(
        self, key: Tuple[str, str], fingerprint_id: str, time: float
    ) -> None:
        node = name_key_node(key)
        state, _ = self._names.get_or_create(
            node.value, time, _NameState
        )
        state.bookings += 1
        state.fingerprints.add(fingerprint_id)
        if state.active:
            self.graph.add_edge(
                node, fingerprint_node(fingerprint_id),
                EDGE_FINGERPRINT_NAME, time=time,
            )
            return
        if state.bookings >= self.config.min_name_repeats:
            # The gate opens: flush every fingerprint recorded while
            # pending, so the final edge set does not depend on the
            # order bookings arrived in.
            state.active = True
            for pending in sorted(state.fingerprints):
                self.graph.add_edge(
                    node, fingerprint_node(pending),
                    EDGE_FINGERPRINT_NAME, time=time,
                )

    @property
    def pending_names(self) -> int:
        return len(self._names)

    @property
    def peak_pending_names(self) -> int:
        return self._names.peak_size

    def evict_idle_names(self, now: float, idle_gap: float) -> int:
        """Drop recurrence gates idle past ``idle_gap``; returns count.

        An evicted *pending* name loses its one-off sighting (by
        design: it did not recur within the window); an evicted
        *active* name keeps its edges — only the gate state goes.
        """
        return len(self._names.evict_idle(now, idle_gap))

    # -- batch helper --------------------------------------------------------

    def observe_all(
        self,
        sessions: Sequence[Session] = (),
        bookings: Sequence[BookingRecord] = (),
        sms: Sequence[SmsRecord] = (),
    ) -> "GraphBuilder":
        for session in sessions:
            self.observe_session(session)
        for record in bookings:
            self.observe_booking(record)
        for record in sms:
            self.observe_sms(record)
        return self

    def _update_gauges(self) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.set_gauge("graph.nodes", float(self.graph.node_count))
        obs.set_gauge("graph.edges", float(self.graph.edge_count))


def build_batch_graph(
    sessions: Sequence[Session] = (),
    bookings: Sequence[BookingRecord] = (),
    sms: Sequence[SmsRecord] = (),
    config: Optional[GraphBuilderConfig] = None,
    obs: Optional[object] = None,
) -> EntityGraph:
    """One-shot batch construction (the reference the stream matches)."""
    return (
        GraphBuilder(config, obs=obs)
        .observe_all(sessions=sessions, bookings=bookings, sms=sms)
        .graph
    )
