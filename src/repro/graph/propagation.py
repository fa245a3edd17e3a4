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

The sweep itself runs on a :class:`CompiledGraph`: the graph's edge
map is compiled into int-indexed CSR arrays (incoming edges grouped
by destination, sources sorted within each group, both by one
``np.lexsort``) and every Jacobi round becomes three NumPy
operations — gather source mass, scale by the precomputed coupling,
``np.bincount`` back onto destinations.  ``np.bincount`` accumulates
its weights in array order, which is the sorted-neighbour order the
CSR layout stores, so the vectorized sweep is bit-identical to the
historical per-edge Python loop (kept as :func:`propagate_dict`, the
reference the property tests compare against).  Each analysis
compiles afresh: the graph keeps no compiled copy of itself, and
campaign extraction reads the same arrays the sweep used.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .builder import EntityGraph
from .entities import EntityId
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


@dataclass
class PropagationResult:
    """Fixed-point scores plus convergence diagnostics."""

    scores: Dict[EntityId, float]
    rounds: int
    converged: bool

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


@dataclass
class CompiledGraph:
    """Int-indexed CSR form of an :class:`EntityGraph`.

    Incoming edges are grouped by destination node (``indptr`` bounds
    node ``i``'s group at ``src[indptr[i]:indptr[i+1]]``) with sources
    *sorted by node id* inside each group — the same sorted-neighbour
    iteration order the dict reference uses, which is what keeps float
    accumulation bit-identical across build orders.  ``degree`` is the
    weighted degree summed in that order, and ``src_degree`` gathers
    it per edge so the damped coupling is one elementwise expression
    at propagate time.

    Compilation depends only on graph *structure* (not on seeds or
    config) and carries the graph's structural ``version`` stamp, so
    :func:`propagate` can refuse a compile the graph has outgrown.
    """

    nodes: List[EntityId]
    index: Dict[EntityId, int]
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

    def neighbors_of(self, node: EntityId) -> List[EntityId]:
        """The node's neighbours, sorted by id (no dict copy)."""
        i = self.index.get(node)
        if i is None:
            return []
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return [self.nodes[j] for j in self.src[lo:hi]]

    def components(
        self, nodes: Optional[Iterable[EntityId]] = None
    ) -> List[List[EntityId]]:
        """Sorted connected components of the subgraph induced by
        ``nodes`` (default: every node; unknown nodes are ignored)."""
        if nodes is None:
            members = list(range(self.node_count))
        else:
            members = sorted({self.index[n] for n in nodes if n in self.index})
        position = np.full(self.node_count, -1, dtype=np.int64)
        position[members] = np.arange(len(members), dtype=np.int64)
        src, dst = position[self.src], position[self.dst]
        inside = (src >= 0) & (src < dst)
        union = UnionFind(len(members))
        for a, b in zip(src[inside].tolist(), dst[inside].tolist()):
            union.union(a, b)
        # Members ascend by node id, groups by their first member.
        return [
            [self.nodes[members[k]] for k in group]
            for group in union.groups()
        ]


def compile_graph(
    graph: EntityGraph, obs: Optional[object] = None
) -> CompiledGraph:
    """Compile ``graph`` into CSR arrays (seed-independent): nodes
    ranked by sorted id, both directions of every edge ordered by one
    ``np.lexsort`` on (destination, source)."""
    span = obs.timer("graph.compile").time() if obs is not None else None
    if span is not None:
        span.__enter__()
    try:
        by_id = graph.nodes()
        n = len(by_id)
        order = sorted(range(n), key=by_id.__getitem__)
        nodes = [by_id[i] for i in order]
        index = {node: i for i, node in enumerate(nodes)}
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        edge_map = graph.edge_map
        m = len(edge_map)
        ends = rank[
            np.fromiter(chain.from_iterable(edge_map), np.int64, 2 * m)
        ]
        a, b = ends[0::2], ends[1::2]
        half = np.fromiter(edge_map.values(), np.float64, m)
        src = np.concatenate((a, b))
        dst = np.concatenate((b, a))
        perm = np.lexsort((src, dst))
        src, dst = src[perm], dst[perm]
        weights = np.concatenate((half, half))[perm]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        # bincount over dst accumulates each node's incoming sum in
        # sorted-source order — the dict path's exact summation order.
        degree = np.bincount(dst, weights=weights, minlength=n)
        compiled = CompiledGraph(
            nodes=nodes,
            index=index,
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
    for node, value in seeds.items():
        i = compiled.index.get(node)
        if i is not None:
            seed_vec[i] = min(max(float(value), 0.0), 1.0)
    # Seeded nodes absent from the graph are isolated by definition:
    # their read-out is exactly the clipped seed, no sweep needed.
    extras = {
        node: min(max(float(value), 0.0), 1.0)
        for node, value in seeds.items()
        if node not in compiled.index
    }

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
    scores = {
        node: min(1.0, float(value))
        for node, value in zip(compiled.nodes, mass)
    }
    scores.update(extras)
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
        scores=scores, rounds=rounds, converged=converged
    )


def propagate_dict(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: Optional[PropagationConfig] = None,
    obs: Optional[object] = None,
) -> PropagationResult:
    """Reference per-edge Python implementation of :func:`propagate`.

    Kept verbatim as the semantic specification the CSR kernel is
    property-tested against (`tests/test_propagation_csr.py`): same
    sorted-neighbour summation order, same monotone delta tracking,
    same clamping.  Production callers use :func:`propagate`.
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
