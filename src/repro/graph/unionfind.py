"""Disjoint-set unions, dense and keyed.

:class:`UnionFind` is the dense integer variant the identity linker in
:mod:`repro.core.detection.rotation` has always used (it now lives here
so every graph consumer shares one implementation); connected
components over a compiled entity graph
(:meth:`~repro.graph.propagation.CompiledGraph.components`) run on it
too.  :class:`KeyedUnionFind` lifts the same structure to arbitrary
hashable keys with dynamic growth, for callers whose items arrive
incrementally and are tuples, not indices.

Both keep the classic invariants: path compression never changes which
root represents a set, union is by size, and ``groups()`` is a
deterministic partition of everything ever added.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Hashable, List, TypeVar

K = TypeVar("K", bound=Hashable)


class UnionFind:
    """Disjoint-set union with path compression and union by size."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0: {size}")
        self._parent = list(range(size))
        self._size = [1] * size

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def groups(self) -> List[List[int]]:
        """Members of every disjoint set, smallest index first."""
        by_root: Dict[int, List[int]] = defaultdict(list)
        for item in range(len(self._parent)):
            by_root[self.find(item)].append(item)
        return sorted(by_root.values(), key=lambda grp: grp[0])


class KeyedUnionFind(Generic[K]):
    """Disjoint-set union over arbitrary hashable keys.

    Keys are added lazily (``add``/``union``/``find`` all create unknown
    keys) and remembered in insertion order, which makes ``groups()``
    deterministic for any deterministic feed: each group lists members
    in insertion order, and groups sort by their earliest member.
    """

    def __init__(self) -> None:
        self._index: Dict[K, int] = {}
        self._keys: List[K] = []
        self._inner = UnionFind(0)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: K) -> bool:
        return key in self._index

    def add(self, key: K) -> int:
        """Ensure ``key`` exists; return its dense index."""
        index = self._index.get(key)
        if index is None:
            index = len(self._keys)
            self._index[key] = index
            self._keys.append(key)
            self._inner._parent.append(index)
            self._inner._size.append(1)
        return index

    def find(self, key: K) -> K:
        """The representative key of ``key``'s set (adds if unknown)."""
        return self._keys[self._inner.find(self.add(key))]

    def union(self, a: K, b: K) -> None:
        self._inner.union(self.add(a), self.add(b))

    def connected(self, a: K, b: K) -> bool:
        return self._inner.find(self.add(a)) == self._inner.find(
            self.add(b)
        )

    def groups(self) -> List[List[K]]:
        """Every disjoint set, members in insertion order, sets ordered
        by earliest member."""
        return [
            [self._keys[index] for index in group]
            for group in self._inner.groups()
        ]
