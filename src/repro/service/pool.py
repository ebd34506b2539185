"""Shared mapped-trace pool: one ``.ostc`` mapping, many clients.

A naive multi-client server opens the trace file once per request —
N clients, N parses, N copies of every lane.  The pool replaces that
with *one* memory-mapped :class:`~repro.core.trace.Trace` per
distinct trace file, shared by every session that has the trace
open:

* **LRU eviction.**  At most ``capacity`` traces stay resident; the
  least-recently-used entry is dropped when a new trace would exceed
  it.  Dropping an entry only releases the pool's reference — sessions
  still holding the old store keep a valid mapping (the pages stay
  mapped until the last reference dies), they just stop sharing
  future invalidations.
* **Per-trace locks.**  Each entry carries a :class:`threading.RLock`.
  The trace stores memoize derived structures (min/max trees, state
  indexes) in plain dicts, so request handlers hold the entry lock
  while touching a shared store; two requests on *different* traces
  never contend.
* **Stat-stamp invalidation.**  Every :meth:`MappedCachePool.entry`
  call re-stats the source file (size + ``mtime_ns``, the same stamp
  the ``.ostc`` sidecar embeds).  A trace file that changed on disk —
  a sweep point regenerated, a trace overwritten — is transparently
  reopened; requests that started on the old mapping finish on it
  unharmed (an ``os.replace`` leaves the mapped inode alive).

The pool is transport-agnostic: the HTTP service is its only current
client, but anything long-lived that opens traces repeatedly (a
notebook kernel, a watcher) can sit on it directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..trace_format.cache import source_stamp


@dataclass
class PoolEntry:
    """One resident trace: the shared store plus its coordination
    state.

    ``trace`` is the memory-mapped store every session of this path
    shares; ``lock`` serializes access to the store's memoized
    structures; ``stamp`` is the source file's identity (size + mtime)
    at open time, checked on every later acquisition.
    """

    path: str
    trace: object
    stamp: dict
    lock: threading.RLock = field(default_factory=threading.RLock)
    hits: int = 0


class MappedCachePool:
    """An LRU pool of shared, memory-mapped trace stores.

    ``capacity`` bounds the number of resident traces; every trace is
    opened through its ``.ostc`` sidecar.  All methods are
    thread-safe.
    """

    def __init__(self, capacity=8):
        if capacity < 1:
            raise ValueError("pool capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _open(self, path):
        from ..trace_format import read_trace
        return read_trace(path, cache=True)

    def entry(self, path) -> PoolEntry:
        """The shared :class:`PoolEntry` for ``path``, opening (or
        transparently reopening, when the source file changed on disk)
        as needed.

        Opening happens under the pool lock, so two clients racing to
        open the same cold trace parse it once, not twice.  Raises
        ``OSError`` when the source file is unreadable and
        :class:`~repro.trace_format.format.FormatError` when it is not
        a trace.
        """
        path = str(path)
        stamp = source_stamp(path)
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None:
                if entry.stamp == stamp:
                    self._entries.move_to_end(path)
                    entry.hits += 1
                    self.hits += 1
                    return entry
                # Source changed under the pool: drop the stale
                # mapping (in-flight holders keep theirs) and reopen.
                del self._entries[path]
                self.invalidations += 1
            self.misses += 1
            entry = PoolEntry(path=path, trace=self._open(path),
                              stamp=stamp)
            self._entries[path] = entry
            self._entries.move_to_end(path)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    def invalidate(self, path=None):
        """Forget one resident trace (or, with no argument, all of
        them); the next :meth:`entry` reopens from disk."""
        with self._lock:
            if path is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                dropped = int(str(path) in self._entries)
                self._entries.pop(str(path), None)
            self.invalidations += dropped
            return dropped

    def resident(self):
        """Paths currently resident, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def stats(self):
        """Counters for monitoring: hits, misses, evictions,
        invalidations and the resident-trace count."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "invalidations": self.invalidations,
                    "resident": len(self._entries),
                    "capacity": self.capacity}

    def __len__(self):
        with self._lock:
            return len(self._entries)
