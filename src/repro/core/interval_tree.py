"""N-ary min/max search tree for performance counters (Section VI-B-c).

For each performance counter and each core, Aftermath builds an n-ary
search tree that answers "minimum and maximum counter value in any
interval" without scanning every sample — the key optimization behind
fast counter rendering (each horizontal pixel needs exactly the min and
max of its time sub-interval, Fig. 21).

The paper uses a default arity of 100, which keeps the tree's memory
overhead below 5 % of the sample data itself (the node count of a
geometric series with ratio 1/100 is ~1.01 % of the leaves).
"""

from __future__ import annotations

import numpy as np

DEFAULT_ARITY = 100


def segment_minmax(values, boundaries):
    """Batched (min, max) over a contiguous partition of ``values``.

    ``boundaries`` is a nondecreasing integer array of length ``n + 1``
    with entries in ``[0, len(values)]``; segment ``i`` is
    ``values[boundaries[i]:boundaries[i + 1]]`` — exactly the sample
    ranges the pixel columns of a zoomed view cut out of a sorted
    counter lane.  Returns ``(mins, maxs)`` float arrays of length
    ``n`` with ``NaN`` for empty segments.  One vectorized pass over
    the covered range (``np.minimum.reduceat``) replaces ``n`` scalar
    slice reductions — the batched kernel of the interactive counter
    render.
    """
    values = np.asarray(values, dtype=np.float64)
    boundaries = np.asarray(boundaries, dtype=np.int64)
    count = len(boundaries) - 1
    mins = np.full(count, np.nan, dtype=np.float64)
    maxs = np.full(count, np.nan, dtype=np.float64)
    if count < 1 or len(values) == 0:
        return mins, maxs
    covered = np.diff(boundaries) > 0
    if not covered.any():
        return mins, maxs
    # Restrict to the covered range so reduceat's implicit final
    # segment ends exactly at the last boundary.
    window = values[boundaries[0]:boundaries[-1]]
    offsets = boundaries - boundaries[0]
    last = int(np.nonzero(covered)[0][-1])
    indices = offsets[:last + 1]
    seg_min = np.minimum.reduceat(window, indices)
    seg_max = np.maximum.reduceat(window, indices)
    head = covered[:last + 1]
    mins[:last + 1][head] = seg_min[head]
    maxs[:last + 1][head] = seg_max[head]
    return mins, maxs


class MinMaxTree:
    """Range-min/max over a fixed array of samples.

    ``values`` is the leaf level; each internal level stores the min and
    max of ``arity`` children.  Queries run in O(arity * log_arity(n)).
    """

    def __init__(self, values, arity=DEFAULT_ARITY):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        self.arity = arity
        # Contiguous leaves: strided column views (structured lanes)
        # would push every leaf-level ``reduceat`` onto numpy's slow
        # buffered path — 3-4x the per-frame kernel cost.
        leaves = np.ascontiguousarray(values, dtype=np.float64)
        self._mins = [leaves]
        self._maxs = [leaves]
        while len(self._mins[-1]) > 1:
            self._mins.append(self._reduce(self._mins[-1], np.fmin))
            self._maxs.append(self._reduce(self._maxs[-1], np.fmax))

    @classmethod
    def from_levels(cls, values, mins_levels, maxs_levels,
                    arity=DEFAULT_ARITY):
        """A tree whose internal levels were computed earlier (e.g.
        persisted in the ``.ostc`` sidecar and memory-mapped back).

        ``mins_levels`` / ``maxs_levels`` are the internal levels above
        the leaves, finest first — exactly ``tree._mins[1:]`` /
        ``tree._maxs[1:]`` of the tree :meth:`__init__` would build
        over ``values`` with the same ``arity``.  Level shapes are
        validated (including that the last level is a single root), so
        a sidecar whose pyramid does not match its lane raises instead
        of answering queries wrongly.  No internal level is copied:
        mapped views stay mapped, and none of their pages is faulted
        until a query folds over it.  The leaves are compacted into
        one contiguous float64 array (like :meth:`__init__`): every
        leaf-path query folds over them, and a strided column view
        would put that fold on numpy's slow buffered path.
        """
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if len(mins_levels) != len(maxs_levels):
            raise ValueError("mismatched min/max pyramid levels")
        tree = cls.__new__(cls)
        tree.arity = arity
        leaves = np.ascontiguousarray(values, dtype=np.float64)
        tree._mins = [leaves]
        tree._maxs = [leaves]
        expected = len(leaves)
        for level_mins, level_maxs in zip(mins_levels, maxs_levels):
            expected = (expected + arity - 1) // arity
            if len(level_mins) != expected \
                    or len(level_maxs) != expected:
                raise ValueError(
                    "pyramid level sizes do not match the leaves")
            tree._mins.append(np.asarray(level_mins,
                                         dtype=np.float64))
            tree._maxs.append(np.asarray(level_maxs,
                                         dtype=np.float64))
        if len(tree._mins[-1]) > 1:
            raise ValueError("pyramid is missing its root level")
        return tree

    def _reduce(self, level, combine):
        count = len(level)
        parents = (count + self.arity - 1) // self.arity
        padded = np.full(parents * self.arity, level[0], dtype=np.float64)
        padded[:count] = level
        # Pad the tail with the last value so padding never wins min/max.
        padded[count:] = level[-1]
        reshaped = padded.reshape(parents, self.arity)
        return combine.reduce(reshaped, axis=1)

    def __len__(self):
        return len(self._mins[0])

    @property
    def levels(self):
        """Number of reduction levels above the leaves."""
        return len(self._mins)

    def overhead_fraction(self):
        """Tree nodes as a fraction of the leaf count (paper: <= 5 %)."""
        leaves = len(self._mins[0])
        if leaves == 0:
            return 0.0
        internal = sum(len(level) for level in self._mins[1:])
        return internal / leaves

    def bounds(self):
        """Global (min, max) over all samples in O(1) — the tree root —
        or ``None`` for an empty tree.  This is what makes per-frame
        axis scaling (:func:`repro.render.counter_overlay.value_bounds`)
        free once the tree is memoized on the trace store."""
        if len(self) == 0:
            return None
        return float(self._mins[-1][0]), float(self._maxs[-1][0])

    def _fold_ranges(self, level, lo, hi, acc_min, acc_max):
        """Fold min/max of per-segment ranges ``[lo_k, hi_k)`` of one
        tree level into the accumulators (empty ranges contribute
        nothing).  The ranges' elements are gathered first, so the
        cost is the number of gathered elements, not their span."""
        lengths = hi - lo
        keep = lengths > 0
        if not keep.any():
            return
        range_lo = lo[keep]
        range_len = lengths[keep]
        first = np.cumsum(range_len) - range_len
        flat = (np.arange(int(range_len.sum()))
                - np.repeat(first - range_lo, range_len))
        seg_min = np.minimum.reduceat(self._mins[level][flat], first)
        seg_max = np.maximum.reduceat(self._maxs[level][flat], first)
        acc_min[keep] = np.minimum(acc_min[keep], seg_min)
        acc_max[keep] = np.maximum(acc_max[keep], seg_max)

    def query_segments(self, boundaries):
        """Batched (min, max) over a contiguous partition of the leaves.

        ``boundaries`` is a nondecreasing integer array of length
        ``n + 1`` with values in ``[0, len(self)]``; segment ``i`` is
        ``values[boundaries[i]:boundaries[i + 1]]`` — exactly the
        sample ranges the pixel columns of a zoomed view cut out of a
        sorted counter lane.  Returns ``(mins, maxs)`` float arrays of
        length ``n`` with ``NaN`` for empty segments.

        Small ranges go through one :func:`segment_minmax` pass over
        the leaves; wide ranges walk the tree levels instead — per
        level, each segment contributes at most ``arity - 1`` leading
        and trailing elements (batched through one gather + reduceat)
        and the aligned middle ascends a level, so a zoomed-out frame
        over a huge lane costs O(segments * arity * levels) rather
        than a rescan of every visible sample.
        """
        boundaries = np.asarray(boundaries, dtype=np.int64)
        count = len(boundaries) - 1
        if count < 1 or len(self) == 0:
            return (np.full(max(count, 0), np.nan),
                    np.full(max(count, 0), np.nan))
        span = int(boundaries[-1] - boundaries[0])
        if span <= 2 * count * self.arity:
            # Touching the leaves directly is cheaper than the walk.
            return segment_minmax(self._mins[0], boundaries)
        lo = boundaries[:-1].copy()
        hi = boundaries[1:].copy()
        covered = hi > lo
        acc_min = np.full(count, np.inf, dtype=np.float64)
        acc_max = np.full(count, -np.inf, dtype=np.float64)
        arity = self.arity
        for level in range(self.levels):
            if level == self.levels - 1:
                self._fold_ranges(level, lo, hi, acc_min, acc_max)
                break
            lo_aligned = -(-lo // arity) * arity
            hi_aligned = (hi // arity) * arity
            has_middle = lo_aligned < hi_aligned
            # Unaligned leading/trailing elements stay at this level;
            # the aligned middle becomes whole blocks one level up.
            self._fold_ranges(level, lo,
                              np.where(has_middle, lo_aligned, hi),
                              acc_min, acc_max)
            self._fold_ranges(level, np.where(has_middle, hi_aligned,
                                              hi),
                              hi, acc_min, acc_max)
            if not has_middle.any():
                break
            lo = np.where(has_middle, lo_aligned // arity, 0)
            hi = np.where(has_middle, hi_aligned // arity, 0)
        mins = np.full(count, np.nan, dtype=np.float64)
        maxs = np.full(count, np.nan, dtype=np.float64)
        mins[covered] = acc_min[covered]
        maxs[covered] = acc_max[covered]
        return mins, maxs

    def query(self, lo, hi):
        """(min, max) of ``values[lo:hi]``; raises on an empty range."""
        if lo < 0 or hi > len(self) or lo >= hi:
            raise ValueError("invalid query range [{}, {})".format(lo, hi))
        minimum = np.inf
        maximum = -np.inf
        level = 0
        arity = self.arity
        while lo < hi:
            mins = self._mins[level]
            maxs = self._maxs[level]
            # Consume leading elements until lo is block-aligned.
            while lo % arity != 0 and lo < hi:
                minimum = min(minimum, mins[lo])
                maximum = max(maximum, maxs[lo])
                lo += 1
            # Consume trailing elements until hi is block-aligned.
            while hi % arity != 0 and lo < hi:
                hi -= 1
                minimum = min(minimum, mins[hi])
                maximum = max(maximum, maxs[hi])
            lo //= arity
            hi //= arity
            level += 1
        return float(minimum), float(maximum)


class CounterIndex:
    """Per-(core, counter) min/max trees for a whole trace, built lazily
    on first use (the paper builds them at load time; lazy construction
    gives the same complexity without penalizing unused counters)."""

    def __init__(self, trace, arity=DEFAULT_ARITY):
        self.trace = trace
        self.arity = arity

    def tree(self, core, counter_id):
        """The (lazily built) min/max tree of one (core, counter).

        The trees are the ones memoized on the trace store, so repeated
        zoom/pan frames (and every other CounterIndex over the same
        trace) reuse one tree.
        """
        return self.trace.minmax_tree(core, counter_id, arity=self.arity)

    def query_time_range(self, core, counter_id, start, end):
        """(min, max) of a counter on a core within the half-open time
        interval [start, end), or ``None`` if it contains no samples."""
        timestamps, __ = self.trace.counter_samples(core, counter_id)
        lo = int(np.searchsorted(timestamps, start, side="left"))
        hi = int(np.searchsorted(timestamps, end, side="left"))
        if lo >= hi:
            return None
        return self.tree(core, counter_id).query(lo, hi)
