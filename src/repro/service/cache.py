"""In-process LRU cache for materialized archives.

Keyed by the archive's **payload checksum**, not its job id: when a
``granula run`` process overwrites an archive, the new bytes carry a
new checksum, so the stale tree simply stops being referenced instead
of being served.  Thread-safe — the serving layer hits it from one
thread per request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional


class ArchiveCache:
    """A bounded LRU mapping of payload checksum -> materialized value.

    ``capacity=0`` disables caching entirely (every ``get`` misses) —
    the cold baseline of the serve benchmark.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached value, refreshing its recency; None on a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_current(self, key: str, version: str) -> Optional[Any]:
        """The value of an entry put as ``(version, value)``, or None —
        a miss — when it is absent or was stored for another version."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != version:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[1]

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters plus the current hit rate."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }
