"""Out-of-core trace processing.

The paper's conclusion announces work on "the out-of-core processing
of large traces": Aftermath loads traces of several gigabytes into
memory, but larger ones need streaming.  This module processes a trace
file record-by-record through constant-memory accumulators, never
materializing the in-memory :class:`Trace`:

* :func:`stream_records` — iterate (record_kind, fields) pairs;
* :class:`StreamingStatistics` — one-pass per-state times, task
  counts/durations per type, counter extremes and time bounds; partial
  accumulators over disjoint record sets combine with :meth:`merge`,
  which is what the map-reduce layer in
  :mod:`repro.analysis.parallel` shards across worker processes;
* :func:`streaming_state_summary` / :func:`streaming_task_histogram` —
  the common statistics views computed out-of-core;
* :func:`split_time_window` — extract a time window of a huge trace
  into a small in-memory :class:`Trace` for interactive analysis.
  When the file carries a seekable chunk index (see
  :mod:`repro.trace_format.chunked`), only the chunks overlapping the
  window are read instead of the whole file.

Accumulators rely only on the format's ordering guarantee (per-core
timestamp order) and tolerate arbitrary record interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.events import TopologyInfo
from ..core.trace import TraceBuilder
from . import format as fmt
from .compression import open_trace_file
from .reader import _Stream, check_header, parse_records


def stream_records(path):
    """Yield ``(kind, fields)`` for every record of a trace file.

    ``kind`` is the builder method name for events (for example
    ``"state_interval"``) or ``"topology"`` / ``"counter_description"``
    / ``"task_type"`` / ``"region"`` for static records, whose
    ``fields`` are the corresponding dataclasses.  Memory use is
    constant regardless of the trace size.  A chunk-index footer, if
    present, is skipped transparently.
    """
    with open_trace_file(path, "rb") as raw:
        stream = _Stream(raw)
        check_header(stream)
        yield from parse_records(stream)


#: Event record kinds whose fields are plain scalars and therefore
#: batchable into columns (static records carry dataclasses and always
#: go through the scalar ``consume`` path).
BATCHABLE_KINDS = frozenset((
    "state_interval", "task_execution", "counter_sample",
    "discrete_event", "comm_event", "memory_access"))

#: Records buffered per kind before a batch flush.
DEFAULT_BATCH_RECORDS = 65536


def fold_records(records, accumulator,
                 batch_records=DEFAULT_BATCH_RECORDS):
    """Fold a ``(kind, fields)`` stream into an accumulator.

    Event records are buffered per kind and handed to the
    accumulator's vectorized ``consume_batch(kind, columns)`` in
    batches of ``batch_records`` — the same results as one ``consume``
    call per record (every accumulator aggregate is a sum, min or
    max), with much less per-record Python work.  An accumulator's
    ``batch_kinds`` attribute restricts which kinds are worth
    buffering (default: every event kind); accumulators without
    ``consume_batch`` get the plain per-record ``consume`` loop.
    Returns ``accumulator``.
    """
    consume_batch = getattr(accumulator, "consume_batch", None)
    if consume_batch is None:
        for kind, fields in records:
            accumulator.consume(kind, fields)
        return accumulator
    batchable = frozenset(getattr(accumulator, "batch_kinds",
                                  BATCHABLE_KINDS)) & BATCHABLE_KINDS
    buffers = {}

    def flush(kind):
        rows = buffers.pop(kind, None)
        if not rows:
            return
        if kind == "counter_sample":
            # Mixed int/float fields: a single 2-D array would round
            # timestamps through float64, so convert per column.
            columns = tuple(np.asarray(column) for column in zip(*rows))
        else:
            # All-integer fields: one C-level pass builds the matrix.
            matrix = np.array(rows, dtype=np.int64)
            columns = tuple(matrix[:, field]
                            for field in range(matrix.shape[1]))
        consume_batch(kind, columns)

    for kind, fields in records:
        if kind in batchable:
            rows = buffers.setdefault(kind, [])
            rows.append(fields)
            if len(rows) >= batch_records:
                flush(kind)
        else:
            accumulator.consume(kind, fields)
    for kind in list(buffers):
        flush(kind)
    return accumulator


@dataclass
class StreamingStatistics:
    """Constant-memory accumulator over one pass of a trace file.

    Accumulators built from *disjoint* record subsets (for example one
    per chunk shard) combine losslessly with :meth:`merge`: every field
    is a sum, min/max or union, so ``serial == merge(parts)`` exactly.
    """

    topology: Optional[TopologyInfo] = None
    records: int = 0
    begin: Optional[int] = None
    end: Optional[int] = None
    state_cycles: Dict[int, int] = field(default_factory=dict)
    tasks_per_type: Dict[int, int] = field(default_factory=dict)
    duration_per_type: Dict[int, int] = field(default_factory=dict)
    counter_extremes: Dict[int, Tuple[float, float]] = \
        field(default_factory=dict)
    type_names: Dict[int, str] = field(default_factory=dict)
    memory_accesses: int = 0
    bytes_accessed: int = 0

    #: Kinds the vectorized batch path aggregates; everything else goes
    #: through :meth:`consume` (see
    #: :func:`repro.trace_format.streaming.fold_records`).
    batch_kinds = ("state_interval", "task_execution", "counter_sample",
                   "memory_access")

    def _stretch(self, start, end):
        self.begin = start if self.begin is None else min(self.begin,
                                                          start)
        self.end = end if self.end is None else max(self.end, end)

    def consume(self, kind, fields):
        """Fold one ``(kind, fields)`` record into the accumulator."""
        self.records += 1
        if kind == "topology":
            self.topology = fields
        elif kind == "task_type":
            self.type_names[fields.type_id] = fields.name
        elif kind == "state_interval":
            __, state, start, end = fields
            self.state_cycles[state] = (self.state_cycles.get(state, 0)
                                        + end - start)
            self._stretch(start, end)
        elif kind == "task_execution":
            __, type_id, __core, start, end = fields
            self.tasks_per_type[type_id] = (
                self.tasks_per_type.get(type_id, 0) + 1)
            self.duration_per_type[type_id] = (
                self.duration_per_type.get(type_id, 0) + end - start)
            self._stretch(start, end)
        elif kind == "counter_sample":
            __, counter_id, timestamp, value = fields
            lo, hi = self.counter_extremes.get(counter_id,
                                               (value, value))
            self.counter_extremes[counter_id] = (min(lo, value),
                                                 max(hi, value))
            self._stretch(timestamp, timestamp)
        elif kind == "memory_access":
            self.memory_accesses += 1
            self.bytes_accessed += fields[3]

    def consume_batch(self, kind, columns):
        """Vectorized :meth:`consume`: fold a whole batch of records of
        one ``kind`` at once.  ``columns`` holds one array per record
        field, in ``consume``'s field order.  Results are identical to
        consuming the records one by one — every aggregate here is a
        sum, min or max, so batching only changes the grouping.
        """
        count = len(columns[0]) if columns else 0
        self.records += count
        if count == 0:
            return
        if kind == "state_interval":
            __, states, starts, ends = columns
            unique, inverse = np.unique(states, return_inverse=True)
            totals = np.zeros(len(unique), dtype=np.int64)
            np.add.at(totals, inverse, ends - starts)
            for state, cycles in zip(unique, totals):
                self.state_cycles[int(state)] = (
                    self.state_cycles.get(int(state), 0) + int(cycles))
            self._stretch(int(starts.min()), int(ends.max()))
        elif kind == "task_execution":
            __, type_ids, __cores, starts, ends = columns
            unique, inverse, counts = np.unique(
                type_ids, return_inverse=True, return_counts=True)
            durations = np.zeros(len(unique), dtype=np.int64)
            np.add.at(durations, inverse, ends - starts)
            for type_id, n, cycles in zip(unique, counts, durations):
                self.tasks_per_type[int(type_id)] = (
                    self.tasks_per_type.get(int(type_id), 0) + int(n))
                self.duration_per_type[int(type_id)] = (
                    self.duration_per_type.get(int(type_id), 0)
                    + int(cycles))
            self._stretch(int(starts.min()), int(ends.max()))
        elif kind == "counter_sample":
            __, counter_ids, timestamps, values = columns
            for counter_id in np.unique(counter_ids):
                batch = values[counter_ids == counter_id]
                lo, hi = self.counter_extremes.get(
                    int(counter_id), (float(batch[0]), float(batch[0])))
                self.counter_extremes[int(counter_id)] = (
                    min(lo, float(batch.min())),
                    max(hi, float(batch.max())))
            self._stretch(int(timestamps.min()), int(timestamps.max()))
        elif kind == "memory_access":
            self.memory_accesses += count
            self.bytes_accessed += int(columns[3].sum())

    def merge(self, other):
        """Fold another accumulator (over disjoint records) into this
        one.  Returns ``self`` so reductions can chain."""
        if other.topology is not None:
            self.topology = other.topology
        self.records += other.records
        if other.begin is not None:
            self._stretch(other.begin, other.end)
        for state, cycles in other.state_cycles.items():
            self.state_cycles[state] = (self.state_cycles.get(state, 0)
                                        + cycles)
        for type_id, count in other.tasks_per_type.items():
            self.tasks_per_type[type_id] = (
                self.tasks_per_type.get(type_id, 0) + count)
        for type_id, cycles in other.duration_per_type.items():
            self.duration_per_type[type_id] = (
                self.duration_per_type.get(type_id, 0) + cycles)
        for counter_id, (lo, hi) in other.counter_extremes.items():
            mine = self.counter_extremes.get(counter_id)
            if mine is None:
                self.counter_extremes[counter_id] = (lo, hi)
            else:
                self.counter_extremes[counter_id] = (min(mine[0], lo),
                                                     max(mine[1], hi))
        self.type_names.update(other.type_names)
        self.memory_accesses += other.memory_accesses
        self.bytes_accessed += other.bytes_accessed
        return self

    @property
    def total_tasks(self):
        """Total task executions seen, across all types."""
        return sum(self.tasks_per_type.values())

    def mean_duration(self, type_id):
        """Mean duration of the tasks of ``type_id`` (0.0 if none)."""
        count = self.tasks_per_type.get(type_id, 0)
        if count == 0:
            return 0.0
        return self.duration_per_type[type_id] / count

    def describe(self):
        """Human-readable multi-line summary of the accumulator."""
        lines = ["streamed {} records".format(self.records)]
        if self.begin is not None:
            lines.append("time range [{} .. {}]".format(self.begin,
                                                        self.end))
        for type_id in sorted(self.tasks_per_type):
            lines.append("  type {}: {} tasks, mean {:.0f} cycles"
                         .format(self.type_names.get(type_id, type_id),
                                 self.tasks_per_type[type_id],
                                 self.mean_duration(type_id)))
        return "\n".join(lines)


def streaming_statistics(path):
    """One out-of-core pass: summary statistics of a trace file.

    The records go through the vectorized batch path
    (:func:`fold_records`).  For the sharded multi-process equivalent
    see :func:`repro.analysis.parallel.parallel_streaming_statistics`.
    """
    return fold_records(stream_records(path), StreamingStatistics())


def streaming_state_summary(path):
    """Out-of-core per-state cycle totals (the whole-trace analogue of
    :func:`repro.core.statistics.state_time_summary`)."""
    return streaming_statistics(path).state_cycles


class TaskHistogramAccumulator:
    """Mergeable task-duration histogram with fixed bin edges.

    The single definition of the out-of-core binning: the serial
    :func:`streaming_task_histogram` folds records into one instance,
    and the sharded pass in :mod:`repro.analysis.parallel` merges one
    instance per shard — so the two paths cannot drift apart.
    Durations outside ``value_range`` are clamped into the edge bins.
    """

    #: Only task executions are worth buffering for the batch path.
    batch_kinds = ("task_execution",)

    def __init__(self, bins, value_range):
        if bins < 1:
            raise ValueError("need at least one bin")
        lo, hi = value_range
        if hi <= lo:
            raise ValueError("empty histogram range")
        self.bins = bins
        self.lo = lo
        self.hi = hi
        self.width = (hi - lo) / bins
        self.edges = np.linspace(lo, hi, bins + 1)
        self.counts = np.zeros(bins, dtype=np.int64)

    def consume(self, kind, fields):
        """Bin one task execution; other record kinds are ignored."""
        if kind != "task_execution":
            return
        duration = fields[4] - fields[3]
        index = int((duration - self.lo) / self.width)
        self.counts[min(max(index, 0), self.bins - 1)] += 1

    def consume_batch(self, kind, columns):
        """Vectorized :meth:`consume`: bin a whole batch of task
        executions at once (other record kinds are ignored)."""
        if kind != "task_execution" or not len(columns[0]):
            return
        durations = columns[4] - columns[3]
        indices = ((durations - self.lo) / self.width).astype(np.int64)
        indices = np.clip(indices, 0, self.bins - 1)
        self.counts += np.bincount(indices, minlength=self.bins)

    def merge(self, other):
        """Add another histogram's counts (same edges assumed)."""
        self.counts += other.counts
        return self


def streaming_task_histogram(path, bins, value_range):
    """Out-of-core task-duration histogram with fixed bin edges.

    ``value_range = (lo, hi)`` must be given up front (a streaming pass
    cannot know the duration range in advance); durations outside it
    are clamped into the edge bins.  Returns ``(edges, counts)``.
    """
    accumulator = fold_records(stream_records(path),
                               TaskHistogramAccumulator(bins, value_range))
    return accumulator.edges, accumulator.counts


def split_time_window(path, start, end, use_index=True, stats=None,
                      cache=None):
    """Extract [start, end) of a huge trace into an in-memory trace.

    Static records are kept in full; event records are dropped unless
    they overlap the window.  This is the out-of-core navigation
    pattern: stream once, then interact with the small window.  The
    window's lanes are filled straight from the records, without
    materializing per-event objects.

    When the file carries a chunk index and ``use_index`` is true, the
    pass seeks directly to the overlapping chunks and reads only those
    bytes; unindexed (or compressed) files fall back to the full scan.
    ``stats``, if given, is a
    :class:`~repro.trace_format.chunked.ScanStats` reporting how many
    bytes the extraction actually read.

    ``cache`` (``True`` for the conventional sidecar, or an explicit
    path) short-circuits the file entirely when a fresh ``.ostc``
    mapped cache exists: the window is then a zero-copy
    :meth:`~repro.core.trace.Trace.slice_time_window` over the
    memory-mapped lanes — no record is parsed and ``stats`` is left
    untouched.  Without a usable cache the file is read as above.
    """
    if cache:
        from .cache import CacheError, default_cache_path, load_cache
        cache_path = (default_cache_path(path) if cache is True
                      else str(cache))
        try:
            mapped = load_cache(cache_path, source_path=path)
        except (OSError, CacheError):
            mapped = None
        if mapped is not None:
            return mapped.slice_time_window(start, end)
    if use_index:
        from .chunked import stream_window_records
        records = stream_window_records(path, start, end, stats=stats)
    else:
        records = stream_records(path)
    return build_window(records, start, end)


def build_window(records, start, end):
    """Assemble an in-memory trace from a ``(kind, fields)`` stream,
    keeping static records and the events overlapping ``[start, end)``.
    Factored out of :func:`split_time_window` so the sequential and the
    chunk-seeking paths share the exact same filtering semantics."""
    from .reader import register_counter_description

    builder = TraceBuilder()
    for kind, fields in records:
        if kind == "topology":
            builder.set_topology(fields)
        elif kind == "counter_description":
            register_counter_description(builder, fields)
        elif kind == "task_type":
            builder.describe_task_type(fields)
        elif kind == "region":
            builder.describe_region(fields)
        elif builder.topology is None:
            raise fmt.FormatError("event record before topology")
        elif kind in ("state_interval", "task_execution"):
            ev_start, ev_end = fields[-2], fields[-1]
            if ev_start < end and ev_end > start:
                getattr(builder, kind)(*fields)
        elif kind == "memory_access":
            if start <= fields[5] < end:
                builder.memory_access(*fields)
        elif start <= fields[2] < end:
            # Point records: counter samples, discrete and
            # communication events all carry their timestamp third.
            getattr(builder, kind)(*fields)
    if builder.topology is None:
        raise fmt.FormatError("trace has no topology record")
    return builder.build()
