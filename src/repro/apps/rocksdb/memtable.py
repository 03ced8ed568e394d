"""The memtable: a real probabilistic skiplist.

RocksDB buffers writes in a skiplist-backed memtable; in the Aurora
port the memtable *is* the database, persisted by the SLS.  The
skiplist is deterministic (seeded coin flips) so benchmark runs are
reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

#: Tombstone marker for deletions (distinct from any real value).
TOMBSTONE = object()

MAX_LEVEL = 12
P = 0.25


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Optional[bytes], value, level: int):
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * level


class SkipList:
    """Sorted map from bytes keys to values, O(log n) expected."""

    def __init__(self, seed: int = 0):
        self._head = _Node(None, None, MAX_LEVEL)
        self._level = 1
        self._rng = random.Random(seed)
        self._count = 0

    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self._rng.random() < P:
            level += 1
        return level

    def _find_predecessors(self, key: bytes) -> List[_Node]:
        preds = [self._head] * MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (node.forward[level] is not None
                   and node.forward[level].key < key):
                node = node.forward[level]
            preds[level] = node
        return preds

    def insert(self, key: bytes, value) -> bool:
        """Insert or update; returns True when the key was new."""
        preds = self._find_predecessors(key)
        candidate = preds[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return False
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = preds[i].forward[i]
            preds[i].forward[i] = node
        self._count += 1
        return True

    def get(self, key: bytes):
        """The value for ``key``, or None when absent."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (node.forward[level] is not None
                   and node.forward[level].key < key):
                node = node.forward[level]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node.value
        return None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[bytes, object]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]


class MemTable:
    """Skiplist + size accounting + tombstones."""

    #: Per-entry bookkeeping bytes (node, pointers, sequence number).
    ENTRY_OVERHEAD = 24

    def __init__(self, seed: int = 0):
        self._list = SkipList(seed)
        self.approximate_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update; size accounting included."""
        if self._list.insert(key, value):
            self.approximate_bytes += (len(key) + len(value)
                                       + self.ENTRY_OVERHEAD)
        else:
            self.approximate_bytes += len(value)

    def delete(self, key: bytes) -> None:
        """Insert a tombstone."""
        if self._list.insert(key, TOMBSTONE):
            self.approximate_bytes += len(key) + self.ENTRY_OVERHEAD

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Returns (found, value); found with value None = tombstone."""
        value = self._list.get(key)
        if value is None:
            return False, None
        if value is TOMBSTONE:
            return True, None
        return True, value

    def entries(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Sorted entries; tombstones yielded as (key, None)."""
        for key, value in self._list:
            yield key, (None if value is TOMBSTONE else value)
