"""Property-based round-trips for the trace format and the lane store.

A seeded random trace generator (``trace_gen.py``) drives
write -> read -> compare over every record kind, across plain,
compressed and chunk-indexed files and the ``.ostc`` sidecar.  The
oracles are the raw record stream of the file and
:func:`repro.core.traces_equal`, which compares record multisets
exactly (including counter-sample floats).
"""

import numpy as np
import pytest

from repro.core import traces_equal
from repro.trace_format import (load_cache, read_chunk_index, read_trace,
                                split_time_window, stream_records,
                                write_cache, write_trace)
from trace_gen import make_random_trace

SEEDS = range(6)


@pytest.fixture(scope="module", params=SEEDS)
def random_trace(request):
    return make_random_trace(request.param)


class TestFileRoundTrip:
    @pytest.mark.parametrize("suffix,index", [
        ("plain.ost", False),
        ("indexed.ost", True),
        ("compressed.ost.gz", False),
    ])
    def test_write_read_preserves_every_record(self, random_trace,
                                               tmp_path, suffix, index):
        path = str(tmp_path / suffix)
        write_trace(random_trace, path, index=index, chunk_records=64)
        assert traces_equal(read_trace(path), random_trace)

    def test_reader_matches_the_record_stream(self, random_trace,
                                              tmp_path):
        """Every event record of the file appears exactly once in the
        per-event views of the loaded store."""
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        trace = read_trace(path)
        records = {}
        for kind, fields in stream_records(path):
            if isinstance(fields, tuple):       # event, not static
                records.setdefault(kind, []).append(fields)
        views = {
            "state_interval": [(i.core, i.state, i.start, i.end)
                               for i in trace.state_intervals()],
            "task_execution": [(t.task_id, t.type_id, t.core, t.start,
                                t.end) for t in trace.task_executions()],
            "discrete_event": [(e.core, e.kind, e.timestamp, e.payload)
                               for e in trace.discrete_events()],
            "comm_event": [(c.src_core, c.dst_core, c.timestamp, c.size,
                            c.task_id) for c in trace.comm_events()],
            "memory_access": [(a.task_id, a.core, a.address, a.size,
                               bool(a.is_write), a.timestamp)
                              for a in trace.memory_accesses()],
            "counter_sample": [
                (core, counter_id, int(timestamp), float(value))
                for (core, counter_id), (timestamps, values)
                in trace.counter_series.items()
                for timestamp, value in zip(timestamps, values)],
        }
        records["memory_access"] = [
            fields[:4] + (bool(fields[4]), fields[5])
            for fields in records.get("memory_access", [])]
        for kind, rows in views.items():
            assert sorted(rows) == sorted(records.get(kind, [])), kind

    def test_indexed_file_has_an_index(self, random_trace, tmp_path):
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, index=True, chunk_records=64)
        assert read_chunk_index(path) is not None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sparse_traces_round_trip(self, seed, tmp_path):
        """The format is incremental: traces missing whole record
        kinds still round-trip exactly."""
        trace = make_random_trace(seed, sparse=True)
        path = str(tmp_path / "sparse.ost")
        write_trace(trace, path, chunk_records=64)
        assert traces_equal(read_trace(path), trace)


class TestEquality:
    def test_equality_is_actually_discriminating(self, random_trace):
        other = make_random_trace(10_001)
        assert not traces_equal(random_trace, other)


class TestMappedCache:
    """The ``.ostc`` sidecar: lossless round trip, and the mapped store
    must be indistinguishable from the parsed one."""

    def test_cache_round_trip_preserves_every_record(self, random_trace,
                                                     tmp_path):
        cache_path = str(tmp_path / "trace.ostc")
        write_cache(random_trace, cache_path)
        assert traces_equal(load_cache(cache_path), random_trace)

    def test_sparse_traces_round_trip_through_cache(self, tmp_path):
        for seed in SEEDS:
            trace = make_random_trace(seed, sparse=True)
            cache_path = str(tmp_path / "sparse_{}.ostc".format(seed))
            write_cache(trace, cache_path)
            assert traces_equal(load_cache(cache_path), trace)

    def test_mapped_store_equals_parsed_store(self, random_trace,
                                              tmp_path):
        """Every analysis surface gives bit-identical answers on the
        memory-mapped store and the freshly parsed store."""
        from repro.core import statistics
        from repro.core.anomalies import scan
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        parsed = read_trace(path)
        mapped = read_trace(path, cache=True)   # writes, then maps
        mapped = read_trace(path, cache=True)   # second open: the map
        assert traces_equal(mapped, parsed)
        assert mapped.begin == parsed.begin and mapped.end == parsed.end
        assert (statistics.interval_report(mapped).describe()
                == statistics.interval_report(parsed).describe())
        assert scan(mapped) == scan(parsed)
        assert np.array_equal(
            statistics.communication_matrix(mapped),
            statistics.communication_matrix(parsed))

    def test_window_slice_equals_split_time_window(self, random_trace,
                                                   tmp_path):
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        read_trace(path, cache=True)            # writes the sidecar
        mapped = read_trace(path, cache=True)   # the actual memmap
        base = mapped.states.lane(0).base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base          # views chain through plain ndarrays
        assert base is not None
        span = random_trace.end - random_trace.begin
        for lo_num, hi_num in ((0, 4), (1, 3), (2, 4), (0, 1)):
            start = random_trace.begin + span * lo_num // 4
            end = random_trace.begin + max(span * hi_num // 4,
                                           span * lo_num // 4 + 1)
            window = split_time_window(path, start, end)
            assert traces_equal(mapped.slice_time_window(start, end),
                                window)
            assert traces_equal(
                split_time_window(path, start, end, cache=True), window)
