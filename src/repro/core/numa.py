"""Per-task NUMA locality analysis (Section IV).

The NUMA timeline modes color every task by the node containing the
largest fraction of the data it reads (or writes), and the NUMA heatmap
shades tasks by their fraction of remote accesses.  Both quantities are
derived from the trace's memory accesses and the per-region placement
table; this module computes them for all tasks at once, vectorized.
"""

from __future__ import annotations

import numpy as np


def _task_positions(trace, access_task_ids):
    """Row index in the canonical task table for each access.

    Returns ``(positions, known)``: accesses whose task id has no row
    in the task table (a dangling reference — the format does not
    forbid them) are flagged ``False`` in ``known`` and carry an
    arbitrary in-range position that callers must mask out.
    """
    all_ids = trace.tasks.columns["task_id"]
    order = np.argsort(all_ids)
    sorted_ids = all_ids[order]
    found = np.searchsorted(sorted_ids, access_task_ids)
    clipped = np.minimum(found, len(sorted_ids) - 1)
    known = sorted_ids[clipped] == access_task_ids
    return order[clipped], known


def task_node_bytes(trace, kind="read"):
    """Bytes accessed per (task, NUMA node).

    Returns a ``(num_tasks, num_nodes)`` matrix aligned with the trace's
    canonical task order.  ``kind`` is ``"read"``, ``"write"`` or
    ``"any"``.
    """
    num_tasks = len(trace.tasks)
    num_nodes = trace.topology.num_nodes
    matrix = np.zeros((num_tasks, num_nodes), dtype=np.float64)
    accesses = trace.accesses
    if len(accesses["task_id"]) == 0 or num_tasks == 0:
        return matrix
    keep = np.ones(len(accesses["task_id"]), dtype=bool)
    if kind == "read":
        keep = accesses["is_write"] == 0
    elif kind == "write":
        keep = accesses["is_write"] == 1
    nodes = trace.nodes_of_addresses(accesses["address"][keep])
    valid = nodes >= 0
    positions, known = _task_positions(trace,
                                       accesses["task_id"][keep][valid])
    flat_keys = positions[known] * num_nodes + nodes[valid][known]
    totals = np.bincount(flat_keys,
                         weights=accesses["size"][keep][valid][known],
                         minlength=num_tasks * num_nodes)
    return totals.reshape(num_tasks, num_nodes)


def task_predominant_nodes(trace, kind="read"):
    """The NUMA node holding most of each task's accessed data.

    Array aligned with the canonical task order; -1 for tasks without
    accesses of the requested kind (rendered as background).
    """
    matrix = task_node_bytes(trace, kind)
    result = np.argmax(matrix, axis=1)
    result[matrix.sum(axis=1) == 0] = -1
    return result


def task_remote_fractions(trace, kind="any"):
    """Fraction of each task's accessed bytes served by remote nodes,
    relative to the node of the executing core (Fig. 14e/f).

    Tasks without accesses report 0 (all-local).
    """
    matrix = task_node_bytes(trace, kind)
    executing_node = (trace.tasks.columns["core"]
                      // trace.topology.cores_per_node)
    total = matrix.sum(axis=1)
    local = matrix[np.arange(len(matrix)), executing_node]
    remote = total - local
    # ``out`` is float64 even when no access maps to a node and
    # task_node_bytes' bincount hands back an int64 matrix.
    return np.divide(remote, total, out=np.zeros(len(total)),
                     where=total > 0)


def average_remote_fraction(trace, kind="any", start=None, end=None):
    """Traffic-weighted remote-access fraction over an interval."""
    matrix = task_node_bytes(trace, kind)
    executing_node = (trace.tasks.columns["core"]
                      // trace.topology.cores_per_node)
    keep = np.ones(len(matrix), dtype=bool)
    if start is not None:
        keep &= trace.tasks.columns["end"] > start
    if end is not None:
        keep &= trace.tasks.columns["start"] < end
    matrix = matrix[keep]
    if matrix.sum() == 0:
        return 0.0
    local = matrix[np.arange(len(matrix)), executing_node[keep]].sum()
    return float(1.0 - local / matrix.sum())
