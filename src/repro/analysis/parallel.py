"""Parallel map-reduce over the chunks of an indexed trace file.

The chunk index (``docs/trace-format.md``) makes a trace file
*shardable*: any subset of chunks can be parsed independently, so a
summary over the whole file decomposes into

1. **map** — each worker process opens the file, seeks to its assigned
   chunks and folds their records into a fresh accumulator;
2. **reduce** — the driver merges the partial accumulators, in chunk
   order, into one result that is exactly equal to a serial pass.

Any object with ``consume(kind, fields)`` and ``merge(other)`` works as
an accumulator; :class:`repro.trace_format.streaming.
StreamingStatistics` is the canonical one, and this module adds
histogram and communication-matrix accumulators.  Accumulators and
their factories cross process boundaries, so both must be picklable
(module-level classes, :func:`functools.partial` of them, …).

Files without an index (compressed, or written before the index
existed) degrade to a serial full scan — same results, no parallelism.
The same serial path is used when only one worker is available, and
when the platform cannot spawn processes at all, so callers never need
a fallback of their own.
"""

from __future__ import annotations

import functools
import multiprocessing
import os

import numpy as np

from ..trace_format.chunked import (iter_chunk_records,
                                    iter_preamble_records,
                                    read_chunk_index)
from ..trace_format.streaming import (StreamingStatistics,
                                      TaskHistogramAccumulator,
                                      fold_records, stream_records)

#: Shards handed to each worker; >1 smooths out uneven chunk costs.
SHARDS_PER_WORKER = 4


class CommMatrixAccumulator:
    """Mergeable core-to-core communication matrix.

    ``matrix[src, dst]`` accumulates the bytes carried by communication
    events from ``src`` to ``dst`` (the out-of-core analogue of the
    event-derived half of Fig. 15; the NUMA-placement half needs the
    in-memory region tables and stays with
    :func:`repro.core.statistics.communication_matrix`).
    """

    #: Only communication events are worth buffering (see
    #: :func:`repro.trace_format.streaming.fold_records`).
    batch_kinds = ("comm_event",)

    def __init__(self, num_cores):
        self.num_cores = num_cores
        self.matrix = np.zeros((num_cores, num_cores), dtype=np.int64)
        self.events = 0

    def consume(self, kind, fields):
        """Accumulate one communication event; others are ignored."""
        if kind != "comm_event":
            return
        src, dst, __, size, __task = fields
        self.matrix[src, dst] += size
        self.events += 1

    def consume_batch(self, kind, columns):
        """Vectorized :meth:`consume`: scatter-add a whole batch."""
        if kind != "comm_event" or not len(columns[0]):
            return
        src, dst, __, sizes, __tasks = columns
        np.add.at(self.matrix, (src, dst), sizes)
        self.events += len(src)

    def merge(self, other):
        """Add another accumulator's matrix and event count."""
        self.matrix += other.matrix
        self.events += other.events
        return self


def _scan_serial(path, factory):
    """The fallback map-reduce: one accumulator, one full scan."""
    return fold_records(stream_records(path), factory())


def _shard_records(stream, spans):
    """All records of one shard's chunks, in file order."""
    for entry in spans:
        for record in iter_chunk_records(stream, entry):
            yield record


def _scan_shard(job):
    """Worker body: fold one shard of chunks into a fresh accumulator.

    ``job`` is ``(path, factory, spans)`` with ``spans`` the chunk
    entries assigned to this worker.  Runs in a separate process, so it
    re-opens the file itself.
    """
    path, factory, spans = job
    with open(path, "rb") as stream:
        return fold_records(_shard_records(stream, spans), factory())


def _partition(entries, shards):
    """Split ``entries`` into at most ``shards`` contiguous, non-empty
    runs, preserving file order."""
    shards = max(1, min(shards, len(entries)))
    bounds = np.linspace(0, len(entries), shards + 1).astype(int)
    return [entries[bounds[i]:bounds[i + 1]]
            for i in range(shards)
            if bounds[i] < bounds[i + 1]]


def resolve_workers(workers, num_chunks):
    """Number of worker processes to use for ``num_chunks`` chunks."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, num_chunks))


def parallel_map_reduce(path, factory, workers=None,
                        shards_per_worker=SHARDS_PER_WORKER):
    """Fold every record of ``path`` into an accumulator, in parallel.

    ``factory`` builds an empty accumulator (called once in the driver
    for the static preamble and once per shard in the workers).  The
    merged result equals a serial ``consume`` pass over the whole file:
    every record is consumed exactly once, and partials are merged in
    file order.  Every scan folds its records through
    :func:`repro.trace_format.streaming.fold_records`, which batches
    them into the accumulator's vectorized ``consume_batch`` when it
    has one.  Returns the final accumulator.
    """
    index = read_chunk_index(path)
    if index is None or index.num_chunks == 0:
        return _scan_serial(path, factory)
    workers = resolve_workers(workers, index.num_chunks)
    base = factory()
    with open(path, "rb") as stream:
        for kind, fields in iter_preamble_records(stream, index):
            base.consume(kind, fields)
    shards = _partition(list(index.entries),
                        workers * shards_per_worker)
    jobs = [(path, factory, spans) for spans in shards]
    if workers == 1:
        partials = map(_scan_shard, jobs)
    else:
        try:
            pool = multiprocessing.get_context().Pool(workers)
        except (OSError, ImportError, PermissionError):
            # Platforms without working process support (restricted
            # sandboxes, missing semaphores) still get correct
            # results.  Only pool creation falls back: an error
            # raised inside a worker (e.g. a truncated file)
            # propagates rather than re-running the scan serially.
            pool = None
        if pool is None:
            partials = map(_scan_shard, jobs)
        else:
            with pool:
                partials = pool.map(_scan_shard, jobs)
    for partial in partials:
        base.merge(partial)
    return base


def parallel_streaming_statistics(path, workers=None):
    """Sharded :func:`repro.trace_format.streaming.
    streaming_statistics`: same :class:`StreamingStatistics` result,
    computed by ``workers`` processes over the chunk index."""
    return parallel_map_reduce(path, StreamingStatistics,
                               workers=workers)


def parallel_task_histogram(path, bins, value_range, workers=None):
    """Sharded task-duration histogram; returns ``(edges, counts)``
    identical to :func:`repro.trace_format.streaming.
    streaming_task_histogram`."""
    factory = functools.partial(TaskHistogramAccumulator, bins,
                                value_range)
    accumulator = parallel_map_reduce(path, factory, workers=workers)
    return accumulator.edges, accumulator.counts


def parallel_comm_matrix(path, workers=None):
    """Sharded core-to-core communication-byte matrix from the file's
    communication events."""
    topology = None
    for kind, fields in stream_records(path):
        if kind == "topology":
            topology = fields
            break
    if topology is None:
        raise ValueError("trace has no topology record")
    factory = functools.partial(CommMatrixAccumulator,
                                topology.num_cores)
    accumulator = parallel_map_reduce(path, factory, workers=workers)
    return accumulator.matrix
