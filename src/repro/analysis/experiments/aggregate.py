"""Cross-trace aggregation: merge N traces' statistics into one view.

Two complementary aggregations over a suite of trace files:

* **merged accumulators** — :func:`merged_statistics`,
  :func:`merged_task_histogram` and :func:`merged_comm_matrix` fold
  every file through the existing out-of-core accumulators
  (:class:`~repro.trace_format.streaming.StreamingStatistics`,
  :class:`~repro.trace_format.streaming.TaskHistogramAccumulator`,
  :class:`~repro.analysis.parallel.CommMatrixAccumulator`) and reduce
  the per-trace partials with their exact ``merge``, so the result
  equals one pass over the concatenation of all files;
* **summary tables** — :class:`SweepTable` arranges per-trace
  :class:`~repro.analysis.experiments.suite.TraceSummary` rows by a
  swept parameter (block size, scheduler, ...), the textual form of
  the paper's cross-run comparisons (Figs. 12–16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...core.events import WorkerState
from ...trace_format.streaming import (StreamingStatistics,
                                       TaskHistogramAccumulator,
                                       streaming_statistics)


def merged_statistics(paths):
    """One :class:`StreamingStatistics` over the union of N files.

    Each file is folded into its own accumulator and the partials are
    merged in order — every aggregate is a sum, min/max or union, so
    the result is exactly a single pass over all records.
    """
    merged = StreamingStatistics()
    for path in paths:
        merged.merge(streaming_statistics(str(path)))
    return merged


def merged_task_histogram(paths, bins, value_range):
    """Task-duration histogram over the union of N files; returns
    ``(edges, counts)`` with the fixed edges shared by every file.
    Each file goes through :func:`repro.trace_format.streaming.
    streaming_task_histogram` — one definition of the binning — and
    the integer counts add exactly."""
    from ...trace_format.streaming import streaming_task_histogram
    merged = TaskHistogramAccumulator(bins, value_range)
    for path in paths:
        __, counts = streaming_task_histogram(str(path), bins,
                                              value_range)
        merged.counts += counts
    return merged.edges, merged.counts


def merged_comm_matrix(paths):
    """Summed core-to-core communication-byte matrix over N files.

    Every file must share one topology (the matrices are added
    entrywise); a core-count mismatch raises ``ValueError``.
    """
    from ..parallel import parallel_comm_matrix
    matrix = None
    for path in paths:
        partial = parallel_comm_matrix(str(path), workers=1)
        if matrix is None:
            matrix = partial.copy()
        elif partial.shape != matrix.shape:
            raise ValueError(
                "cannot merge comm matrices of different topologies: "
                "{} vs {}".format(matrix.shape, partial.shape))
        else:
            matrix += partial
    return matrix


@dataclass
class SweepRow:
    """One trace's line of a :class:`SweepTable`."""

    name: str
    param: object
    tasks: int
    duration: int
    average_parallelism: float
    locality_fraction: float
    idle_fraction: float


class SweepTable:
    """Per-parameter summary table over a suite's trace summaries.

    Rows keep the sweep order; :meth:`describe` renders the textual
    table the CLI prints, :meth:`to_dict` the machine-readable form.
    """

    def __init__(self, rows, param_name="param"):
        self.rows: List[SweepRow] = list(rows)
        self.param_name = param_name

    def __len__(self):
        return len(self.rows)

    def best(self, key=lambda row: row.duration):
        """The row minimizing ``key`` (default: wall-clock duration)."""
        if not self.rows:
            raise ValueError("empty sweep table")
        return min(self.rows, key=key)

    def describe(self):
        """Human-readable table, one line per trace."""
        header = ("{:>20} {:>12} {:>8} {:>14} {:>8} {:>8} {:>6}"
                  .format("name", self.param_name, "tasks", "duration",
                          "par", "local", "idle"))
        lines = [header]
        for row in self.rows:
            lines.append(
                "{:>20} {:>12} {:>8d} {:>14d} {:>8.2f} {:>7.1%} "
                "{:>5.1%}".format(
                    row.name, str(row.param), row.tasks, row.duration,
                    row.average_parallelism, row.locality_fraction,
                    row.idle_fraction))
        return "\n".join(lines)

    def to_dict(self):
        """JSON-friendly form of the table."""
        return {
            "param": self.param_name,
            "rows": [{
                "name": row.name, "param": row.param,
                "tasks": row.tasks, "duration": row.duration,
                "average_parallelism": row.average_parallelism,
                "locality_fraction": row.locality_fraction,
                "idle_fraction": row.idle_fraction,
            } for row in self.rows],
        }


def sweep_table(summaries, param=None):
    """Arrange per-trace summaries into a :class:`SweepTable`.

    ``param`` names the swept parameter to surface as the table's key
    column; when omitted, the first parameter present in any summary is
    used (falling back to the trace name).
    """
    summaries = list(summaries)
    if param is None:
        for summary in summaries:
            if summary.params:
                param = next(iter(summary.params))
                break
    rows = [SweepRow(
        name=summary.name,
        param=(summary.params.get(param) if param else summary.name),
        tasks=summary.tasks,
        duration=summary.duration,
        average_parallelism=summary.average_parallelism,
        locality_fraction=summary.locality_fraction,
        idle_fraction=summary.state_fraction(WorkerState.IDLE))
        for summary in summaries]
    return SweepTable(rows, param_name=param or "name")


def speedup_curve(summaries, baseline=None):
    """Durations normalized to a baseline summary (default: first).

    Returns a ``(names, speedups)`` pair where ``speedups[i]`` is
    ``baseline.duration / summaries[i].duration`` — the cross-run
    normalization behind the paper's block-size and scheduler
    comparisons.
    """
    summaries = list(summaries)
    if not summaries:
        return [], np.empty(0, dtype=np.float64)
    baseline = summaries[0] if baseline is None else baseline
    names = [summary.name for summary in summaries]
    durations = np.asarray([summary.duration for summary in summaries],
                           dtype=np.float64)
    reference = float(baseline.duration)
    with np.errstate(divide="ignore", invalid="ignore"):
        speedups = np.where(durations > 0, reference / durations, 0.0)
    return names, speedups
