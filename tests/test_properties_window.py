"""Property tests for windowed queries on the trace store.

For random windows on seeded random traces (``trace_gen.py``):

* the statistics panel of a window,
  :func:`repro.core.statistics.interval_report`, equals the panel
  computed on the zero-copy sub-trace
  :meth:`~repro.core.trace.Trace.slice_time_window` of that window;
* the out-of-core window extraction
  :func:`repro.trace_format.split_time_window` holds exactly the
  records of ``read_trace(path).slice_time_window(start, end)`` —
  for chunk-indexed files, unindexed files and files served from a
  fresh ``.ostc`` sidecar.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import traces_equal
from repro.core.statistics import interval_report
from repro.trace_format import (ScanStats, read_trace, split_time_window,
                                write_trace)
from trace_gen import make_random_trace

#: (seed, sparse) of the traces the properties draw from.
TRACES = [(seed, False) for seed in range(4)] + [(7, True), (8, True)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per trace: the in-memory store plus an indexed, an unindexed
    and a sidecar-cached copy on disk."""
    directory = tmp_path_factory.mktemp("windows")
    entries = []
    for seed, sparse in TRACES:
        trace = make_random_trace(seed, events_per_core=30, sparse=sparse)
        paths = {}
        for layout, index in (("indexed", True), ("unindexed", False),
                              ("cached", True)):
            path = str(directory / "{}_{}.ost".format(layout, seed))
            write_trace(trace, path, index=index, chunk_records=32)
            paths[layout] = path
        read_trace(paths["cached"], cache=True)     # writes the sidecar
        entries.append((trace, paths))
    return entries


def window_of(trace, lo, length):
    """A window from fractions of the trace span; it may start before
    the trace and run past its end."""
    span = max(trace.end - trace.begin, 1)
    start = trace.begin + int(lo * span)
    return start, start + max(1, int(length * span))


WINDOWS = dict(
    which=st.integers(0, len(TRACES) - 1),
    lo=st.floats(-0.2, 1.1, allow_nan=False),
    length=st.floats(0.0, 1.3, allow_nan=False))


@given(**WINDOWS)
@settings(max_examples=80, deadline=None)
def test_interval_report_equals_report_on_slice(files, which, lo, length):
    trace, __ = files[which]
    start, end = window_of(trace, lo, length)
    assert (interval_report(trace, start, end)
            == interval_report(trace.slice_time_window(start, end),
                               start, end))


@given(layout=st.sampled_from(("indexed", "unindexed", "cached")),
       **WINDOWS)
@settings(max_examples=80, deadline=None)
def test_split_time_window_equals_slice(files, layout, which, lo, length):
    trace, paths = files[which]
    path = paths[layout]
    start, end = window_of(trace, lo, length)
    stats = ScanStats()
    window = split_time_window(path, start, end, stats=stats,
                               cache=layout == "cached")
    assert traces_equal(window,
                        read_trace(path).slice_time_window(start, end))
    # The sidecar serves the window without reading the trace file.
    assert (stats.bytes_read == 0) == (layout == "cached")
