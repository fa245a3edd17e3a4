"""Incremental compile == one-shot compile.

:class:`~repro.graph.builder.EntityGraph` keeps its sorted node order
between compiles and merges in only the nodes added since the last
one, so a graph compiled after every batch of a growing stream must
give exactly what a fresh graph built from the same records in one go
gives: the same node order and index, and byte-identical CSR arrays —
also across a pickle round-trip, which drops the sort order and
rebuilds it on the next compile.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.graph.builder import EntityGraph
from repro.graph.propagation import compile_graph

from tests.test_propagation_csr import _node

_ARRAYS = (
    "rank", "indptr", "src", "dst", "weights", "degree", "src_degree",
)

#: One record: an edge (two nodes and a weight, with a time), or a
#: lone node.  Few kinds and indices, so batches revisit nodes and
#: raise edge weights.
_RECORDS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=15),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.0, max_value=1e6),
        ).filter(lambda r: (r[0], r[1]) != (r[2], r[3])),
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=40),
        ),
    ),
    max_size=60,
)


def _apply(graph, records):
    for record in records:
        if len(record) == 2:
            graph.add_node(_node(*record))
        else:
            ka, a, kb, b, weight, time = record
            graph.add_edge(_node(ka, a), _node(kb, b), weight, time=time)


def _one_shot(records):
    graph = EntityGraph()
    _apply(graph, records)
    return compile_graph(graph)


class TestIncrementalCompile:
    @settings(max_examples=100, deadline=None)
    @given(
        records=_RECORDS,
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        pickle_after=st.integers(min_value=0, max_value=6),
    )
    def test_compile_between_batches_matches_fresh_build(
        self, records, cuts, pickle_after
    ):
        bounds = sorted({min(cut, len(records)) for cut in cuts})
        bounds.append(len(records))
        graph = EntityGraph()
        start = 0
        for batch, end in enumerate(bounds):
            _apply(graph, records[start:end])
            start = end
            if batch == pickle_after:
                graph = pickle.loads(
                    pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
                )
            grown = compile_graph(graph)
            fresh = _one_shot(records[:end])
            assert grown.version == fresh.version
            assert grown.nodes == fresh.nodes
            assert grown.index == fresh.index
            for name in _ARRAYS:
                mine, theirs = getattr(grown, name), getattr(fresh, name)
                assert mine.dtype == theirs.dtype, name
                assert mine.tobytes() == theirs.tobytes(), name
