"""Search-structure memory accounting.

Solvers route their open lists, value maps, and tag stores through an
AllocationProbe, so reported peak memory is the high-water mark of live
search-structure bytes rather than process RSS.  Entry costs are fixed,
idealized sizes (hash slot + key + boxed payload), which keeps the numbers
hardware-independent and byte-identical across repeated runs while
preserving honest proportions between solvers.
"""

from __future__ import annotations

# Idealized per-entry costs, in bytes.
MAP_ENTRY_BYTES = 72      # hash slot + coordinate key + boxed float
SET_ENTRY_BYTES = 48      # hash slot + coordinate key
HEAP_ENTRY_BYTES = 88     # heap slot + key tuple + coordinate payload + index slot
RECORD_ENTRY_BYTES = 136  # hash slot + key + (tag, value, queue key, back-pointer) record
ARRAY_SLOT_BYTES = 8      # one slot of a dense per-cell value array


class AllocationProbe:
    """Receives every allocation-size delta and node-expansion event."""

    __slots__ = ("live_bytes", "peak_bytes", "expansions")

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self.expansions = 0

    def alloc(self, nbytes: int) -> None:
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    def free(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def expand(self, cell=None) -> None:
        """One node expansion; solvers pass the padded cell id (see ``Grid.coord``)."""
        self.expansions += 1


class TrackedMap:
    """Dict wrapper with per-entry byte accounting and a default for misses."""

    __slots__ = ("data", "_probe", "_entry_bytes", "_default")

    def __init__(self, probe: AllocationProbe, entry_bytes: int = MAP_ENTRY_BYTES, default=None):
        self.data = {}
        self._probe = probe
        self._entry_bytes = entry_bytes
        self._default = default

    def get(self, key):
        return self.data.get(key, self._default)

    def __getitem__(self, key):
        return self.get(key)

    def __setitem__(self, key, value):
        if key not in self.data:
            self._probe.alloc(self._entry_bytes)
        self.data[key] = value

    def __contains__(self, key):
        return key in self.data

    def __len__(self):
        return len(self.data)

    def pop(self, key):
        if key in self.data:
            self._probe.free(self._entry_bytes)
            return self.data.pop(key)
        return None

    def release(self) -> None:
        self._probe.free(self._entry_bytes * len(self.data))
        self.data.clear()


class TrackedSet:
    """Set wrapper with per-entry byte accounting."""

    __slots__ = ("data", "_probe", "_entry_bytes")

    def __init__(self, probe: AllocationProbe, entry_bytes: int = SET_ENTRY_BYTES):
        self.data = set()
        self._probe = probe
        self._entry_bytes = entry_bytes

    def add(self, item) -> None:
        if item not in self.data:
            self._probe.alloc(self._entry_bytes)
            self.data.add(item)

    def discard(self, item) -> None:
        if item in self.data:
            self._probe.free(self._entry_bytes)
            self.data.discard(item)

    def __contains__(self, item):
        return item in self.data

    def __len__(self):
        return len(self.data)

    def __bool__(self):
        return bool(self.data)

    def __iter__(self):
        return iter(self.data)

    def release(self) -> None:
        self._probe.free(self._entry_bytes * len(self.data))
        self.data.clear()
