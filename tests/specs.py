"""Executable specifications: the per-object reference kernels.

Each function here is the plain-Python form of a production kernel
that must match it exactly, and has no production caller; the property
suites and the analysis benchmark's equivalence report compare
against them:

* :func:`sessionize` — batch sessionization, the reference for
  :class:`~repro.core.detection.session_index.SessionIndex` and the
  streaming :class:`~repro.stream.sessionizer.StreamSessionizer`;
* :func:`feature_matrix` — per-session feature extraction stacked into
  a matrix, the reference for ``SessionIndex.matrix``;
* :func:`propagate_dict` — the per-edge Jacobi sweep, the reference
  for the CSR kernel :func:`repro.graph.propagation.propagate`.
"""

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.detection.features import FEATURE_NAMES, extract_features
from repro.graph.builder import EntityGraph
from repro.graph.entities import EntityId
from repro.graph.propagation import PropagationConfig, PropagationResult
from repro.web.logs import DEFAULT_IDLE_GAP, Session, WebLog


def sessionize(
    log: WebLog,
    idle_gap: float = DEFAULT_IDLE_GAP,
) -> List[Session]:
    """Group log entries into sessions.

    A session is a maximal run of requests sharing ``(ip, fingerprint)``
    with no gap larger than ``idle_gap`` — the same reconstruction a
    defender would run on production logs.  Note the defender-side
    blind spot this encodes: a bot that rotates IP or fingerprint
    *starts a new session*, which is exactly why rotation defeats
    session-level profiling.
    """
    if idle_gap <= 0:
        raise ValueError(f"idle_gap must be positive: {idle_gap}")
    open_sessions: Dict[Tuple[str, str], Session] = {}
    finished: List[Session] = []
    counter = 0
    for entry in log.iter_entries():
        key = (entry.client.ip_address, entry.client.fingerprint_id)
        session = open_sessions.get(key)
        if session is not None and entry.time - session.end > idle_gap:
            finished.append(session)
            session = None
        if session is None:
            counter += 1
            session = Session(
                session_id=f"S{counter:07d}",
                ip_address=entry.client.ip_address,
                fingerprint_id=entry.client.fingerprint_id,
            )
            open_sessions[key] = session
        session.entries.append(entry)
    finished.extend(open_sessions.values())
    finished.sort(key=lambda s: s.start)
    return finished


def feature_matrix(sessions: List[Session]) -> np.ndarray:
    """Stack per-session vectors into an ``(n, d)`` matrix.

    The output is preallocated and filled row by row — ``np.vstack``
    over n small vectors allocated the list, the vectors *and* the
    result before copying everything once more.
    """
    matrix = np.zeros((len(sessions), len(FEATURE_NAMES)))
    for row, session in enumerate(sessions):
        matrix[row] = extract_features(session).vector()
    return matrix


def propagate_dict(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: Optional[PropagationConfig] = None,
    obs: Optional[object] = None,
) -> PropagationResult:
    """Reference per-edge Python implementation of :func:`propagate`.

    The semantic specification the CSR kernel is property-tested
    against (`tests/test_propagation_csr.py`): same sorted-neighbour
    summation order, same monotone delta tracking, same clamping.
    Production callers use :func:`~repro.graph.propagation.propagate`.
    """
    config = config or PropagationConfig()

    nodes = sorted(set(graph.nodes()) | set(seeds))
    seed_of = {
        node: min(max(float(seeds.get(node, 0.0)), 0.0), 1.0)
        for node in nodes
    }
    # Degrees and incoming sums run over *sorted* neighbours: float
    # addition is not associative, so this is what makes two builds of
    # the same record set — batch vs streaming, any interleaving —
    # produce bit-identical scores.
    adjacency: Dict[EntityId, List[Tuple[EntityId, float]]] = {
        node: [] for node in nodes
    }
    for a, b, weight in graph.edges():
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    for pairs in adjacency.values():
        pairs.sort()
    degree = {
        node: sum(weight for _, weight in pairs)
        for node, pairs in adjacency.items()
    }
    # The *source* (neighbor) side normalizes: a node re-emits d times
    # its mass, split across its edges by weight.
    incoming: Dict[EntityId, List[Tuple[EntityId, float]]] = {
        node: [
            (neighbor, config.damping * weight / degree[neighbor])
            for neighbor, weight in pairs
        ]
        for node, pairs in adjacency.items()
    }

    mass = dict(seed_of)
    rounds = 0
    converged = False
    timer = obs.timer("graph.propagation.round") if obs is not None else None
    for rounds in range(1, config.max_rounds + 1):
        span = timer.time() if timer is not None else None
        if span is not None:
            span.__enter__()
        delta = 0.0
        updated: Dict[EntityId, float] = {}
        for node in nodes:
            absorbed = 0.0
            for source, factor in incoming[node]:
                absorbed += factor * mass[source]
            value = seed_of[node] + absorbed
            updated[node] = value
            change = value - mass[node]
            if change > delta:
                delta = change
        mass = updated
        if span is not None:
            span.__exit__(None, None, None)
        if delta < config.tolerance:
            converged = True
            break
    scores = {
        node: min(1.0, value) for node, value in mass.items()
    }
    if obs is not None:
        obs.set_gauge("graph.propagation.rounds", float(rounds))
        obs.set_gauge(
            "graph.propagation.converged", 1.0 if converged else 0.0
        )
    return PropagationResult(
        scores=scores, rounds=rounds, converged=converged
    )
