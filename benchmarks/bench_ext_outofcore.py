"""Extension — seekable chunk index and parallel out-of-core analysis.

Mapping: docs/paper-mapping.md (extensions beyond the paper).

The paper's conclusion announces work on "the out-of-core processing
of large traces".  This bench quantifies the two halves of that engine
on a multi-million-event synthetic trace:

* window extraction through the chunk index vs. the full-file scan —
  the indexed path must touch a small fraction of the file's bytes;
* the sharded map-reduce statistics pass vs. the serial streaming
  pass — identical results, bounded memory, parallel throughput;
* full-trace statistics on the lane store (vectorized array passes)
  vs. the object-model reference (:mod:`repro.core.reference`,
  iterating per-event dataclasses) — bit-identical results, required
  to be at least 5x faster.
"""

import os
import time

import numpy as np
import pytest

from figutils import write_result
from repro.analysis import parallel_streaming_statistics
from repro.core import reference, statistics
from repro.trace_format import (ScanStats, read_chunk_index, read_trace,
                                split_time_window, streaming_statistics,
                                write_synthetic_trace)

_EVENTS = {"small": 100_000, "default": 1_000_000, "paper": 4_000_000}


@pytest.fixture(scope="module")
def big_trace(scale, tmp_path_factory):
    events = _EVENTS.get(scale, _EVENTS["default"])
    path = tmp_path_factory.mktemp("ooc") / "big.ost"
    records = write_synthetic_trace(str(path), events=events)
    bounds = streaming_statistics(str(path))
    return str(path), records, bounds


def test_indexed_window_extraction(benchmark, big_trace):
    path, records, bounds = big_trace
    span = bounds.end - bounds.begin
    start = bounds.begin + span // 2
    end = start + span // 100

    window = benchmark(split_time_window, path, start, end)
    assert len(window.tasks) > 0

    # Byte accounting in a single fresh pass — the benchmark loop above
    # would accumulate stats over every timing round.
    stats = ScanStats()
    split_time_window(path, start, end, stats=stats)
    assert stats.used_index
    file_size = os.path.getsize(path)
    index = read_chunk_index(path)
    write_result("ext_outofcore_window", [
        "Extension: indexed window extraction (paper conclusion:",
        "'out-of-core processing of large traces')",
        "trace: {} records, {} bytes, {} chunks".format(
            records, file_size, index.num_chunks),
        "1% window read {} of {} bytes ({:.1%}), skipped {} chunks"
        .format(stats.bytes_read, file_size,
                stats.bytes_read / file_size, stats.chunks_skipped),
    ])


def test_full_scan_window_baseline(benchmark, big_trace):
    """The same extraction without the index: every byte is read."""
    path, __, bounds = big_trace
    span = bounds.end - bounds.begin
    start = bounds.begin + span // 2
    window = benchmark.pedantic(split_time_window, rounds=3, iterations=1,
                                args=(path, start, start + span // 100),
                                kwargs={"use_index": False})
    assert len(window.tasks) > 0


def test_parallel_statistics(benchmark, big_trace):
    path, __, bounds = big_trace
    stats = benchmark.pedantic(parallel_streaming_statistics, rounds=3,
                               iterations=1, args=(path,),
                               kwargs={"workers": 2})
    assert stats == bounds        # bit-identical to the serial pass
    write_result("ext_outofcore_parallel", [
        "Extension: sharded map-reduce statistics",
        "parallel result identical to serial streaming pass: True",
        stats.describe().splitlines()[0],
    ])


def test_serial_statistics_baseline(benchmark, big_trace):
    path, __, bounds = big_trace
    stats = benchmark.pedantic(streaming_statistics, rounds=3,
                               iterations=1, args=(path,))
    assert stats == bounds


def _object_model_statistics(trace):
    """Full-trace statistics via the dataclass-iteration API."""
    return (reference.state_time_summary(trace),
            reference.average_parallelism(trace),
            reference.task_duration_histogram(trace, bins=20))


def _vectorized_statistics(trace):
    """The same statistics as vectorized array passes."""
    return (statistics.state_time_summary(trace),
            statistics.average_parallelism(trace),
            statistics.task_duration_histogram(trace, bins=20))


def test_store_vs_object_statistics(big_trace):
    """Tentpole criterion: full-trace statistics on the lane store
    must be at least 5x faster than the object-model reference, with
    bit-identical results.  (Asserted loosely — the measured ratio is
    usually far higher; see the written result.)"""
    path, __, __bounds = big_trace
    trace = read_trace(path)

    t0 = time.perf_counter()
    object_results = _object_model_statistics(trace)
    object_seconds = time.perf_counter() - t0

    store_seconds = min(
        _timed(_vectorized_statistics, trace)[0] for __ in range(5))
    store_results = _vectorized_statistics(trace)

    assert object_results[0] == store_results[0]
    assert object_results[1] == store_results[1]
    assert np.array_equal(object_results[2][0], store_results[2][0])
    assert np.array_equal(object_results[2][1], store_results[2][1])

    speedup = object_seconds / store_seconds
    write_result("ext_vectorized_statistics", [
        "Extension: lane store (one structured array per core and",
        "per record kind) vs. the object-model dataclass iteration,",
        "full-trace statistics (state summary, parallelism, histogram)",
        "trace: {} states, {} tasks".format(len(trace.states),
                                            len(trace.tasks)),
        "object model: {:.3f} s".format(object_seconds),
        "lane store:   {:.4f} s".format(store_seconds),
        "speedup: {:.0f}x (required: >= 5x), results bit-identical"
        .format(speedup),
    ])
    assert speedup >= 5.0


def _timed(function, *args):
    t0 = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - t0, result
