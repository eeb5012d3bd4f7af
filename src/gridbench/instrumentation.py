"""Search-structure memory accounting.

Solvers route their open lists, value maps, and tag stores through an
AllocationProbe, so reported peak memory is the high-water mark of live
search-structure bytes rather than process RSS.  Entry costs are fixed,
idealized sizes (hash slot + key + boxed payload), which keeps the numbers
hardware-independent and byte-identical across repeated runs while
preserving honest proportions between solvers.

A hot loop may keep ``live_bytes`` and ``peak_bytes`` in local variables
instead of calling ``alloc``/``free`` per entry, and keeps its expansion
count in a local too.  It must raise its local peak to the live count
after every increase, or once at the end of a run of increases (the
high-water mark of a run of increases is its last value), and write the
bytes and ``expansions`` back to the probe before any probe method call,
return or raise, so the probe reads as if every delta and expansion had
been a call.

Expansion events are opt-in: ``on_expand`` is None unless an observer
sets it to a callable.  A loop reads it once per run and, per expansion,
only tests it against None; when it is set, the loop writes its bytes and
count back and then calls ``on_expand(cell)`` with the padded cell id
(see ``Grid.coord``), so the sink reads the probe as it stands at that
expansion, the expansion counted.  A sink observes; it must not call the
probe's methods.
"""

from __future__ import annotations

# Idealized per-entry costs, in bytes.
MAP_ENTRY_BYTES = 72      # hash slot + coordinate key + boxed float
SET_ENTRY_BYTES = 48      # hash slot + coordinate key
HEAP_ENTRY_BYTES = 88     # heap slot + key tuple + coordinate payload + index slot
RECORD_ENTRY_BYTES = 136  # hash slot + key + (tag, value, queue key, back-pointer) record
ARRAY_SLOT_BYTES = 8      # one slot of a dense per-cell value array


class AllocationProbe:
    """Receives every allocation-size delta, the expansion count and, opt-in, each expansion."""

    __slots__ = ("live_bytes", "peak_bytes", "expansions", "on_expand")

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self.expansions = 0
        self.on_expand = None  # the per-expansion sink, called with the padded cell id

    def alloc(self, nbytes: int) -> None:
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    def free(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def expand(self, cell=None) -> None:
        """Count one node expansion.  The solvers count in locals instead (see above)."""
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

