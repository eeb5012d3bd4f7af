"""Open-list priority queue: binary heap with lazy deletion.

A re-push of an item supersedes its earlier entries; stale entries stay in
the heap (and in the byte accounting) until they surface on pop, which is
how lazy deletion actually spends memory.  Keys are tuples; a monotone
sequence number breaks exact key ties, so pops are fully deterministic and
payload items are never compared.

No solver uses this class any more: every solver keeps its open list
inline in its search loop, as a heap of flat key tuples with a map from
each queued id to the seq of the entry that counts and the same
stale-entry frees.  The file stays only because ``perfbench/tracing.py``
imports the class, patches its methods and times it; it can go with the
next change to the benchmark's definition.
"""

from __future__ import annotations

import heapq

from .instrumentation import HEAP_ENTRY_BYTES, AllocationProbe


class LazyHeap:
    __slots__ = ("_heap", "_live", "_probe", "_seq")

    def __init__(self, probe: AllocationProbe):
        self._heap = []
        self._live = {}  # item -> seq of the entry that currently counts
        self._probe = probe
        self._seq = 0

    def __len__(self):
        return len(self._live)

    def __bool__(self):
        return bool(self._live)

    def __contains__(self, item):
        return item in self._live

    def live_items(self) -> list:
        """Items with a current entry, in insertion order."""
        return list(self._live)

    def push(self, item, key) -> None:
        self._seq += 1
        self._live[item] = self._seq
        heapq.heappush(self._heap, (key, self._seq, item))
        self._probe.alloc(HEAP_ENTRY_BYTES)

    def remove(self, item) -> None:
        """Logically delete; the physical entry is reclaimed when popped."""
        self._live.pop(item, None)

    def pop(self):
        """Remove and return (key, item) for the current minimum."""
        while self._heap:
            key, seq, item = heapq.heappop(self._heap)
            self._probe.free(HEAP_ENTRY_BYTES)
            if self._live.get(item) == seq:
                del self._live[item]
                return key, item
        raise KeyError("pop from an empty heap")

    def peek(self):
        """(key, item) at the current minimum, or None when empty.

        Physically discards stale entries encountered on the way.
        """
        while self._heap:
            key, seq, item = self._heap[0]
            if self._live.get(item) == seq:
                return key, item
            heapq.heappop(self._heap)
            self._probe.free(HEAP_ENTRY_BYTES)
        return None

    def release(self) -> None:
        self._probe.free(HEAP_ENTRY_BYTES * len(self._heap))
        self._heap.clear()
        self._live.clear()
