"""Weak-signal amplification: damped degree-normalized risk diffusion.

No single session of a rotated campaign looks abusive, but the
campaign's sessions share infrastructure nodes.  Propagation starts
from weak per-entity seed scores (existing detector verdicts, gentle
behavioural priors) and iterates a random-walk-with-restart style
update until nothing moves:

``s'(v) = seed(v) + d * sum_u (w(u,v) / deg(u)) * s(u)``

where ``d`` is the damping factor, ``w`` the edge weight and ``deg``
the *weighted* degree of the emitting side.  Scores are clamped into
[0, 1] only at read-out.  The asymmetry is the whole design:

* **emission is degree-normalized at the source** — a node re-emits
  at most ``d`` times its own risk, split across its edges by weight.
  That makes the update operator's spectral radius at most ``d < 1``:
  the fixed point exists, is unique, and *no* structure can blow up.
  It is also the hub safety: a flight with hundreds of customers or a
  /24 shared by a whole region splits its emission so thin that it
  heats no individual neighbour, no matter how hot it runs itself;
* **absorption is an unnormalized sum** — risk mass pouring in from
  *distinct* sources adds up, so a booking reference fed by 60 weakly
  suspicious fingerprints, or a fingerprint behind 100 near-innocent
  single-request sessions, accumulates far more mass than any one
  source carries.  That fan-in *is* the weak-signal amplification:
  risk mass is conserved up to ``d``, so a three-session household
  circulating ~0.1 total seed mass can never look like a campaign,
  while a hundred sessions of the same operation can.

Properties the test-suite pins:

* read-out scores stay in [0, 1] (clamped non-negative mass);
* isolated nodes keep exactly their seed (empty neighbour sum);
* updates are synchronous (Jacobi) and edge iteration is sorted, so
  the fixed point is deterministic and independent of graph feed
  order — no RNG anywhere;
* iteration starts at the seeds and every update is monotone
  nondecreasing, climbing geometrically (rate ``d``) to the Neumann
  fixed point; the loop stops when the largest per-node delta drops
  below tolerance.

The sweep runs on a :class:`CompiledGraph`: int-indexed CSR arrays
with incoming edges grouped by destination and sources sorted within
each group, so every Jacobi round is three NumPy operations — gather
source mass, scale by the precomputed coupling, ``np.bincount`` back
onto destinations.  ``np.bincount`` accumulates in array order, the
sorted-neighbour order, so the sweep is bit-identical to the per-edge
Python loop kept as the executable specification in ``tests/``.
Each analysis compiles anew; only the graph's sorted node order
carries over between compiles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .builder import EntityGraph
from .entities import EntityId, join_ids, split_ids
from .unionfind import UnionFind


@dataclass(frozen=True)
class PropagationConfig:
    """Diffusion knobs (defaults tuned on the Case A/C scenarios)."""

    damping: float = 0.85
    max_rounds: int = 100
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError(
                f"damping must be in (0, 1): {self.damping}"
            )
        if self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be >= 1: {self.max_rounds}"
            )
        if self.tolerance <= 0:
            raise ValueError(
                f"tolerance must be positive: {self.tolerance}"
            )


class PropagationResult:
    """Fixed-point scores plus convergence diagnostics.

    A sweep's scores are its clamped ``vector`` over the compiled
    graph's sorted ``nodes``, then ``scores`` as given (the clipped
    seeds of off-graph nodes).  The node-keyed :attr:`scores` dict is
    built on first read and left out of the pickled state.
    """

    def __init__(
        self,
        scores: Optional[Mapping[EntityId, float]] = None,
        rounds: int = 0,
        converged: bool = False,
        nodes: Sequence[EntityId] = (),
        vector: Optional[np.ndarray] = None,
    ) -> None:
        self.rounds, self.converged, self.nodes = rounds, converged, nodes
        self.vector = np.zeros(0) if vector is None else vector
        self._rest = dict(scores or {})
        self._scores: Optional[Dict[EntityId, float]] = None

    @property
    def scores(self) -> Dict[EntityId, float]:
        if self._scores is None:
            self._scores = dict(chain(
                zip(self.nodes, self.vector.tolist()), self._rest.items()
            ))
        return self._scores

    def score(self, node: EntityId) -> float:
        return self.scores.get(node, 0.0)

    def top(self, count: int = 10) -> List[Tuple[EntityId, float]]:
        """Highest-risk nodes, score-descending then id-ascending."""
        if count <= 0:
            return []
        return [
            (node, -negated)
            for negated, node in heapq.nsmallest(
                count,
                ((-score, node) for node, score in self.scores.items()),
            )
        ]

    def __getstate__(self) -> Dict[str, object]:
        return dict(self.__dict__, _scores=None, nodes=split_ids(self.nodes))

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state, nodes=join_ids(*state["nodes"]))


@dataclass
class CompiledGraph:
    """Int-indexed CSR form of an :class:`EntityGraph`.

    Positions follow sorted node id (``nodes``); ``rank`` maps the
    graph's int ids (its live ``ids`` map) to them.  Incoming edges are
    grouped by destination (``indptr`` bounds node ``i``'s group at
    ``src[indptr[i]:indptr[i+1]]``) with sources sorted inside each
    group — the dict reference's summation order, which keeps float
    accumulation bit-identical across build orders.  ``degree`` is the
    weighted degree summed in that order; ``src_degree`` gathers it per
    edge.  The structural ``version`` stamp lets :func:`propagate`
    refuse a compile the graph has outgrown.
    """

    nodes: List[EntityId]
    ids: Mapping[EntityId, int]
    rank: np.ndarray        # (n,) int64 — position of each graph id
    indptr: np.ndarray      # (n+1,) int64 — incoming-edge group bounds
    src: np.ndarray         # (e,) int64 — source node index per edge
    dst: np.ndarray         # (e,) int64 — destination node index per edge
    weights: np.ndarray     # (e,) float64 — edge weight per edge
    degree: np.ndarray      # (n,) float64 — weighted degree per node
    src_degree: np.ndarray  # (e,) float64 — degree[src] per edge
    version: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Directed edge slots (2x the undirected edge count)."""
        return int(self.src.shape[0])

    @cached_property
    def index(self) -> Dict[EntityId, int]:
        """Node -> position map, built on first use."""
        return dict(zip(self.nodes, range(len(self.nodes))))

    def position(self, node: EntityId) -> Optional[int]:
        """The node's index in ``nodes`` (None if not compiled: ids
        are never reused, and later nodes have ids past ``rank``)."""
        i = self.ids.get(node, len(self.rank))
        return int(self.rank[i]) if i < len(self.rank) else None

    def neighbor_positions(self, i: int) -> np.ndarray:
        """Indices of node ``i``'s neighbours, ascending."""
        return self.src[self.indptr[i]:self.indptr[i + 1]]

    def neighbors_of(self, node: EntityId) -> List[EntityId]:
        """The node's neighbours, sorted by id (no dict copy)."""
        i = self.position(node)
        found = [] if i is None else self.neighbor_positions(i).tolist()
        return [self.nodes[j] for j in found]

    def components(
        self, nodes: Optional[Iterable[EntityId]] = None
    ) -> List[List[EntityId]]:
        """Sorted connected components of the subgraph induced by
        ``nodes`` (default: every node; unknown nodes are ignored)."""
        if nodes is None:
            members = list(range(self.node_count))
        else:
            members = sorted(set(map(self.position, nodes)) - {None})
        return [
            [self.nodes[i] for i in group]
            for group in self.position_components(members)
        ]

    def position_components(self, members: List[int]) -> List[List[int]]:
        """:meth:`components` on ascending node indices, as indices."""
        position = np.full(self.node_count, -1, dtype=np.int64)
        position[members] = np.arange(len(members), dtype=np.int64)
        src, dst = position[self.src], position[self.dst]
        inside = (src >= 0) & (src < dst)
        union = UnionFind(len(members))
        for a, b in zip(src[inside].tolist(), dst[inside].tolist()):
            union.union(a, b)
        # Members ascend by node id, groups by their first member.
        return [[members[k] for k in group] for group in union.groups()]


def compile_graph(
    graph: EntityGraph, obs: Optional[object] = None
) -> CompiledGraph:
    """Compile ``graph`` into CSR arrays (seed-independent): nodes
    ranked by sorted id, both directions of every edge ordered by
    (destination, source)."""
    span = obs.timer("graph.compile").time() if obs is not None else None
    if span is not None:
        span.__enter__()
    try:
        nodes, order = graph.sorted_nodes()
        n = len(nodes)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        pairs, half = graph.edge_arrays()
        ends = rank[pairs]
        a, b = ends[:, 0], ends[:, 1]
        src = np.concatenate((a, b))
        dst = np.concatenate((b, a))
        # Each (dst, src) pair occurs once, so the one key dst*n + src
        # has a unique sorting permutation: np.lexsort((src, dst))'s,
        # found several times faster.
        perm = np.argsort(dst * n + src)
        src, dst = src[perm], dst[perm]
        weights = np.concatenate((half, half))[perm]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        # bincount over dst accumulates each node's incoming sum in
        # sorted-source order — the dict path's exact summation order.
        degree = np.bincount(dst, weights=weights, minlength=n)
        compiled = CompiledGraph(
            nodes=nodes,
            ids=graph.ids,
            rank=rank,
            indptr=indptr,
            src=src,
            dst=dst,
            weights=weights,
            degree=degree,
            src_degree=degree[src],
            version=graph.version,
        )
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    if obs is not None:
        obs.increment("graph.compile.nodes", float(n))
        obs.increment("graph.compile.edges", float(compiled.edge_count))
    return compiled


def propagate(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: Optional[PropagationConfig] = None,
    obs: Optional[object] = None,
    compiled: Optional[CompiledGraph] = None,
) -> PropagationResult:
    """Diffuse ``seeds`` over ``graph`` to the deterministic fixed point.

    Seed entries for nodes absent from the graph are kept as-is (they
    are isolated by definition); every graph node missing from
    ``seeds`` starts at 0.  Seeds are clipped into [0, 1] on the way
    in, and scores are clamped into [0, 1] on the way out, so a caller
    cannot push the diffusion out of range.

    ``compiled`` reuses a :func:`compile_graph` result of this graph
    (the caller shares it with campaign extraction); one compiled
    before the graph last changed is refused with ``ValueError``.
    """
    config = config or PropagationConfig()
    if compiled is None:
        compiled = compile_graph(graph, obs=obs)
    elif compiled.version != graph.version:
        raise ValueError(
            f"stale CompiledGraph: compiled version {compiled.version} "
            f"!= graph version {graph.version}"
        )

    n = compiled.node_count
    seed_vec = np.zeros(n, dtype=np.float64)
    # Seeded nodes absent from the graph are isolated by definition:
    # their read-out is exactly the clipped seed, no sweep needed.
    extras: Dict[EntityId, float] = {}
    for node, value in seeds.items():
        value = min(max(float(value), 0.0), 1.0)
        i = compiled.position(node)
        if i is None:
            extras[node] = value
        else:
            seed_vec[i] = value

    # Per-edge damped coupling, computed exactly as the dict reference
    # does per pair: (damping * weight) / degree[source].
    factor = config.damping * compiled.weights / compiled.src_degree
    src = compiled.src
    dst = compiled.dst

    mass = seed_vec.copy()
    rounds = 0
    converged = False
    timer = obs.timer("graph.propagation.round") if obs is not None else None
    for rounds in range(1, config.max_rounds + 1):
        span = timer.time() if timer is not None else None
        if span is not None:
            span.__enter__()
        absorbed = np.bincount(
            dst, weights=factor * mass[src], minlength=n
        )
        updated = seed_vec + absorbed
        delta = float((updated - mass).max(initial=0.0))
        mass = updated
        if span is not None:
            span.__exit__(None, None, None)
        if delta < config.tolerance:
            converged = True
            break
    if obs is not None:
        obs.set_gauge("graph.propagation.rounds", float(rounds))
        obs.set_gauge(
            "graph.propagation.converged", 1.0 if converged else 0.0
        )
        obs.increment(
            "graph.propagation.edge_sweeps",
            float(compiled.edge_count * rounds),
        )
    return PropagationResult(
        scores=extras,
        rounds=rounds,
        converged=converged,
        nodes=compiled.nodes,
        vector=np.minimum(mass, 1.0),
    )
