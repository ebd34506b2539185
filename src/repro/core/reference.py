"""Object-model reference implementations of the statistics views.

Every function here computes a statistic by iterating the per-event
dataclasses (:meth:`Trace.state_intervals`,
:meth:`Trace.task_executions`, ...) in plain Python — no vectorization,
no cleverness.  They are the *executable specification* of the
vectorized implementations in :mod:`repro.core.statistics`:

* the parity tests (``tests/test_columnar_parity.py``) assert the
  vectorized results are exactly equal to these, on in-memory and
  memory-mapped :class:`~repro.core.trace.Trace` stores;
* the benchmarks use them as the object-model baseline the lane-store
  hot paths are measured against
  (``benchmarks/bench_ext_outofcore.py``).

All aggregates are integer sums, so "exactly equal" means bit-identical
— including the final float divisions, which divide the same integers
in the same order as the vectorized code.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def state_time_summary(trace, start=None, end=None):
    """Per-state cycle totals, one dataclass at a time (the reference
    for :func:`repro.core.statistics.state_time_summary`)."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    totals: Dict[int, int] = {}
    for interval in trace.state_intervals():
        overlap = min(interval.end, end) - max(interval.start, start)
        if overlap > 0:
            totals[interval.state] = (totals.get(interval.state, 0)
                                      + overlap)
    return totals


def per_core_state_time(trace, state, start=None, end=None):
    """Reference for :func:`repro.core.statistics.per_core_state_time`."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    result = np.zeros(trace.num_cores, dtype=np.int64)
    for interval in trace.state_intervals():
        if interval.state != int(state):
            continue
        overlap = min(interval.end, end) - max(interval.start, start)
        if overlap > 0:
            result[interval.core] += overlap
    return result


def average_parallelism(trace, start=None, end=None):
    """Reference for :func:`repro.core.statistics.average_parallelism`."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    if end <= start:
        return 0.0
    busy = 0
    for execution in trace.task_executions():
        overlap = min(execution.end, end) - max(execution.start, start)
        if overlap > 0:
            busy += overlap
    return float(busy) / float(end - start)


def task_duration_histogram(trace, bins=20, start=None, end=None,
                            value_range=None):
    """Reference for
    :func:`repro.core.statistics.task_duration_histogram` (without the
    filter combinators: the window is the plain interval overlap).

    Durations are gathered per task object; the binning itself reuses
    ``np.histogram`` on the gathered array, so the comparison isolates
    the event-iteration cost and the results stay bit-identical.
    """
    window = None
    if start is not None or end is not None:
        window = (trace.begin if start is None else start,
                  trace.end if end is None else end)
    durations = []
    for execution in trace.task_executions():
        if window is not None and not (execution.start < window[1]
                                       and execution.end > window[0]):
            continue
        durations.append(execution.duration)
    durations = np.asarray(durations, dtype=np.float64)
    counts, edges = np.histogram(durations, bins=bins, range=value_range)
    total = counts.sum()
    fractions = counts / total if total else counts.astype(np.float64)
    return edges, fractions


def task_duration_stats(trace):
    """Reference for :func:`repro.core.metrics.task_duration_stats`
    (unfiltered)."""
    durations = np.asarray(
        [execution.duration for execution in trace.task_executions()],
        dtype=np.float64)
    if len(durations) == 0:
        return 0.0, 0.0
    return float(durations.mean()), float(durations.std())


def steal_matrix(trace, start=None, end=None):
    """Reference for :func:`repro.core.statistics.steal_matrix`."""
    cores = trace.num_cores
    matrix = np.zeros((cores, cores), dtype=np.int64)
    for event in trace.comm_events():
        if start is not None and event.timestamp < start:
            continue
        if end is not None and event.timestamp >= end:
            continue
        matrix[event.src_core, event.dst_core] += 1
    return matrix


def counter_increase_per_task(trace, counter, task_filter=None):
    """Reference for
    :func:`repro.core.correlation.counter_increase_per_task`: one
    scalar ``searchsorted`` pair per task, exactly the original
    per-task loop."""
    from .filters import filtered_tasks
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    columns = filtered_tasks(trace, task_filter)
    increases = np.zeros(len(columns["task_id"]), dtype=np.float64)
    per_core = {}
    for index in range(len(increases)):
        core = int(columns["core"][index])
        series = per_core.get(core)
        if series is None:
            series = per_core[core] = trace.counter_samples(core,
                                                            counter_id)
        timestamps, values = series
        if len(timestamps) == 0:
            continue
        lo = np.searchsorted(timestamps, columns["start"][index],
                             side="left")
        hi = np.searchsorted(timestamps, columns["end"][index],
                             side="right") - 1
        lo = min(max(lo, 0), len(values) - 1)
        hi = min(max(hi, lo), len(values) - 1)
        increases[index] = values[hi] - values[lo]
    return columns, increases


def counter_value_bounds(trace, counter_id, cores=None):
    """Reference for :func:`repro.render.counter_overlay.value_bounds`:
    rescan every sample of every requested core on each call (the
    per-frame waste the memoized min/max trees eliminate)."""
    cores = range(trace.num_cores) if cores is None else cores
    minimum, maximum = np.inf, -np.inf
    for core in cores:
        __, values = trace.counter_samples(core, counter_id)
        if len(values):
            minimum = min(minimum, float(values.min()))
            maximum = max(maximum, float(values.max()))
    if not np.isfinite(minimum):
        return 0.0, 1.0
    if maximum <= minimum:
        maximum = minimum + 1.0
    return minimum, maximum


def detect_locality_anomalies(trace, num_intervals=20, threshold=0.4):
    """Reference for
    :func:`repro.core.anomalies.detect_locality_anomalies`: one full
    :func:`~repro.core.numa.average_remote_fraction` pass per bin."""
    from .anomalies import Anomaly
    from .metrics import interval_edges
    from .numa import average_remote_fraction
    edges = interval_edges(trace, num_intervals)
    anomalies = []
    for index in range(num_intervals):
        start, end = int(edges[index]), int(edges[index + 1])
        remote = average_remote_fraction(trace, start=start, end=end)
        if remote >= threshold:
            anomalies.append(Anomaly(
                kind="poor-locality", severity=remote, start=start,
                end=end,
                description="{:.0%} of accessed bytes are remote"
                .format(remote)))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def detect_load_imbalance(trace, num_intervals=10, threshold=0.25):
    """Reference for
    :func:`repro.core.anomalies.detect_load_imbalance`: one full
    :func:`~repro.core.statistics.per_core_state_time` scan per bin."""
    from .anomalies import Anomaly
    from .events import WorkerState
    from .metrics import interval_edges
    from .statistics import per_core_state_time
    edges = interval_edges(trace, num_intervals)
    anomalies = []
    for index in range(num_intervals):
        start, end = int(edges[index]), int(edges[index + 1])
        busy = per_core_state_time(trace, WorkerState.RUNNING, start,
                                   end).astype(np.float64)
        if busy.sum() == 0:
            continue
        cv = float(busy.std() / busy.mean()) if busy.mean() else 0.0
        if cv >= threshold:
            laggards = [int(core) for core in
                        np.flatnonzero(busy < busy.mean() / 2)]
            anomalies.append(Anomaly(
                kind="load-imbalance", severity=cv, start=start, end=end,
                cores=laggards or None,
                description="per-core busy time varies (CV {:.2f}); "
                "{} cores under half the mean".format(cv,
                                                      len(laggards))))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def communication_matrix(trace, start=None, end=None, normalize=True,
                         kind="any"):
    """Reference for
    :func:`repro.core.statistics.communication_matrix`: one
    :meth:`node_of_address` lookup per access."""
    nodes = trace.topology.num_nodes
    matrix = np.zeros((nodes, nodes), dtype=np.float64)
    for access in trace.memory_accesses():
        if kind == "read" and access.is_write:
            continue
        if kind == "write" and not access.is_write:
            continue
        if start is not None and access.timestamp < start:
            continue
        if end is not None and access.timestamp >= end:
            continue
        src = trace.node_of_address(access.address)
        if src is None:
            continue
        dst = access.core // trace.topology.cores_per_node
        matrix[src, dst] += access.size
    if normalize and matrix.sum() > 0:
        matrix /= matrix.sum()
    return matrix
