"""The timeline component: view model, modes and optimized rendering.

The timeline shows the activity of each processor over time (Fig. 1).
Five main modes specialize it (Section II-B): worker *states*, the task
duration *heatmap*, the *typemap*, the *NUMA* read/write maps and the
*NUMA heatmap*.  Rendering follows Section VI-B:

(a) every pixel is drawn only once: each horizontal pixel covers a time
    sub-interval, and the color rendered is that of the *predominant*
    item within it (Fig. 20);
(b) adjacent pixels with identical colors are aggregated into a single
    rectangle-fill call;
(c) the per-core event slice for the visible window is obtained with a
    binary search over the sorted per-core arrays.

Every mode paints through one pipeline: the view's pixel grid
(:meth:`TimelineView.pixel_bins`, computed once per frame) → per-pixel
integer keys for each lane (:meth:`TimelineMode.pixel_keys`) → one
run-merged rectangle per run of equal keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import numa as numa_analysis
from ..core.index import interval_slice
from ..core.metrics import overlap_per_bin
from . import colors as palettes
from .framebuffer import Framebuffer


@dataclass(frozen=True)
class TimelineView:
    """Zoom/scroll state: the visible time window and the pixel grid.

    Views are immutable; :meth:`zoom` and :meth:`scroll` return new
    views, which is what makes navigation history trivial.
    """

    start: int
    end: int
    width: int = 800
    height: int = 256

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("view must span a non-empty time range")
        if self.width < 1 or self.height < 1:
            raise ValueError("view must span at least one pixel")

    @classmethod
    def fit(cls, trace, width=800, height=256):
        """A view covering the whole trace."""
        end = trace.end if trace.end > trace.begin else trace.begin + 1
        return cls(start=trace.begin, end=end, width=width, height=height)

    @property
    def duration(self):
        """Cycles spanned by the view window."""
        return self.end - self.start

    @property
    def cycles_per_pixel(self):
        """Trace cycles covered by one pixel column."""
        return self.duration / self.width

    def pixel_interval(self, x):
        """Time interval [t0, t1) covered by pixel column ``x``."""
        t0 = self.start + self.duration * x // self.width
        t1 = self.start + self.duration * (x + 1) // self.width
        return int(t0), int(max(t1, t0 + 1))

    def pixel_bins(self):
        """The pixel grid as ``(edges, column)``.

        ``edges`` strictly increase from ``start`` to ``end``: the
        distinct pixel start times plus ``end``, so consecutive edges
        partition the view into bins.  ``column[x]`` is the bin pixel
        ``x`` shows: ``pixel_interval(x) == (edges[column[x]],
        edges[column[x] + 1])``.  At one cycle per pixel or more every
        pixel is its own bin; below that every bin is one cycle and
        neighbouring pixels share it.  Per-pixel kernels compute one
        value per bin and gather ``[column]``.
        """
        x = np.arange(self.width + 1, dtype=np.int64)
        starts = self.start + self.duration * x // self.width
        new = np.empty(len(starts), dtype=bool)
        new[0] = True
        np.not_equal(starts[1:], starts[:-1], out=new[1:])
        return starts[new], np.cumsum(new[:-1]) - 1

    def time_to_pixel(self, time):
        """Pixel column of a timestamp (unclipped)."""
        return int((time - self.start) * self.width // self.duration)

    def zoom(self, factor, center=None):
        """Zoom by ``factor`` (> 1 zooms in) around ``center``."""
        if factor <= 0:
            raise ValueError("zoom factor must be positive")
        center = (self.start + self.end) // 2 if center is None else center
        span = max(1, int(self.duration / factor))
        start = int(center - span // 2)
        return replace(self, start=start, end=start + span)

    def scroll(self, fraction):
        """Scroll by a fraction of the visible span (negative = left)."""
        delta = int(self.duration * fraction)
        return replace(self, start=self.start + delta,
                       end=self.end + delta)

    def lane_geometry(self, num_cores):
        """(lane_height, list of lane top offsets), one lane per core."""
        lane = max(1, self.height // max(num_cores, 1))
        return lane, [core * lane for core in range(num_cores)]


class TimelineMode:
    """A timeline specialization: supplies per-core colored intervals.

    ``lane_events`` returns ``(starts, ends, keys)`` for one core;
    :meth:`pixel_keys` turns a lane into one integer key per pixel and
    ``color_of`` maps a key to its color.
    """

    def prepare(self, trace):
        """Hook: precompute per-trace tables before rendering."""

    def lane_events(self, trace, core):
        """``(starts, ends, keys)`` of one core's drawable events."""
        raise NotImplementedError

    def pixel_keys(self, trace, core, grid):
        """One int64 key per pixel of one lane, -1 where nothing is
        painted.  ``grid`` is the view's ``(edges, column)`` pixel
        grid (:meth:`TimelineView.pixel_bins`).  By default each pixel
        shows the predominant key of :meth:`lane_events` in its bin."""
        edges, column = grid
        starts, ends, keys = _visible_lane(self, trace, core, edges)
        return _predominant_keys(starts, ends, keys, edges)[column]

    def color_of(self, key):
        """RGB color of one event key."""
        raise NotImplementedError


class StateMode(TimelineMode):
    """Default mode: the state of each worker over time (Fig. 2)."""

    name = "state"

    def lane_events(self, trace, core):
        """One core's state intervals keyed by state id."""
        return (trace.states.core_column(core, "start"),
                trace.states.core_column(core, "end"),
                trace.states.core_column(core, "state"))

    def pixel_keys(self, trace, core, grid):
        """Per-pixel dominant states served by the state pyramid
        (persisted in the ``.ostc`` sidecar on mapped stores, memoized
        in memory otherwise): exact coverage via per-state prefix
        sums, O(width log n) per lane at any zoom, equal to the
        default lane scan, which serves lanes that cannot be
        indexed."""
        index = trace.state_index(core)
        if index is None:
            return super().pixel_keys(trace, core, grid)
        edges, column = grid
        return index.dominant_in_edges(edges)[column]

    def color_of(self, key):
        """The state palette color of one state id."""
        return palettes.state_color(key)


class _TaskMode(TimelineMode):
    """Common base of the modes that color task executions."""

    def lane_events(self, trace, core):
        starts = trace.tasks.core_column(core, "start")
        ends = trace.tasks.core_column(core, "end")
        keys = self.task_keys(trace, core)
        return starts, ends, keys

    def task_keys(self, trace, core):
        raise NotImplementedError


class HeatmapMode(_TaskMode):
    """Task durations as shades of red, darker = longer (Fig. 7/17).

    Durations are normalized either to a user-defined [minimum,
    maximum] interval or, by default, to the shortest and longest task
    in the trace (the paper normalizes to the currently displayed
    range; pass explicit bounds for that behaviour).
    """

    name = "heatmap"

    def __init__(self, shades=10, minimum=None, maximum=None,
                 task_filter=None):
        self.shades = palettes.heatmap_shades(shades)
        self.minimum = minimum
        self.maximum = maximum
        self.task_filter = task_filter
        self._mask = None

    def prepare(self, trace):
        """Compute the duration decile bounds over the whole trace."""
        columns = trace.tasks.columns
        durations = columns["end"] - columns["start"]
        if self.task_filter is not None:
            self._mask = self.task_filter.mask(trace)
            visible = durations[self._mask]
        else:
            visible = durations
        if len(visible) == 0:
            self._lo, self._hi = 0.0, 1.0
        else:
            self._lo = (float(visible.min()) if self.minimum is None
                        else float(self.minimum))
            self._hi = (float(visible.max()) if self.maximum is None
                        else float(self.maximum))
        if self._hi <= self._lo:
            self._hi = self._lo + 1.0

    def task_keys(self, trace, core):
        """One core's task intervals keyed by duration decile."""
        starts = trace.tasks.core_column(core, "start")
        ends = trace.tasks.core_column(core, "end")
        fractions = (ends - starts - self._lo) / (self._hi - self._lo)
        keys = np.clip((fractions * len(self.shades)).astype(np.int64),
                       0, len(self.shades) - 1)
        if self._mask is not None:
            lane = trace.tasks.core_slice(core)
            keys = np.where(self._mask[lane], keys, -1)
        return keys

    def color_of(self, key):
        """The red shade of one duration decile."""
        return self.shades[int(key)]


class TypeMode(_TaskMode):
    """One color per task type: which work function runs where (Fig. 9)."""

    name = "typemap"

    def prepare(self, trace):
        """Assign every task type a palette slot."""
        self._palette = palettes.type_palette(max(len(trace.task_types), 1))

    def task_keys(self, trace, core):
        """One core's task intervals keyed by type id."""
        return trace.tasks.core_column(core, "type_id")

    def color_of(self, key):
        """The palette color of one task type."""
        return self._palette[int(key) % len(self._palette)]


class NumaMode(_TaskMode):
    """NUMA node targeted by each task's reads or writes (Fig. 14a-d)."""

    def __init__(self, kind="read"):
        if kind not in ("read", "write"):
            raise ValueError("kind must be 'read' or 'write'")
        self.kind = kind
        self.name = "numa_{}".format(kind)

    def prepare(self, trace):
        """Precompute per-task NUMA byte tallies for the access kind."""
        self._palette = palettes.numa_palette(trace.topology.num_nodes)
        self._nodes = numa_analysis.task_predominant_nodes(trace,
                                                           self.kind)

    def task_keys(self, trace, core):
        """One core's task intervals keyed by dominant remote node."""
        return self._nodes[trace.tasks.core_slice(core)]

    def color_of(self, key):
        """The node palette color (gray for no data)."""
        return self._palette[int(key) % len(self._palette)]


class NumaHeatmapMode(_TaskMode):
    """Average fraction of remote accesses, blue to pink (Fig. 14e/f)."""

    name = "numa_heatmap"

    def prepare(self, trace):
        """Precompute per-task remote-access fractions."""
        self._fractions = numa_analysis.task_remote_fractions(trace)

    def task_keys(self, trace, core):
        """One core's task intervals with their remote fractions."""
        return self._fractions[trace.tasks.core_slice(core)]

    def pixel_keys(self, trace, core, grid):
        """Per pixel, the heat-ramp color of the coverage-weighted
        mean remote fraction, packed as ``0xRRGGBB`` (-1 where no task
        runs): runs of equal keys are exactly runs of equal color."""
        edges, column = grid
        starts, ends, fractions = _visible_lane(self, trace, core, edges)
        means = _mean_values(starts, ends, fractions, edges)
        keys = np.full(len(means), -1, dtype=np.int64)
        covered = ~np.isnan(means)
        rgb = palettes.numa_heat_colors(means[covered])
        keys[covered] = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
        return keys[column]

    def color_of(self, key):
        """The RGB color packed in one pixel key."""
        key = int(key)
        return (key >> 16, (key >> 8) & 0xFF, key & 0xFF)


#: Public mode names -> zero-argument factories.  These are the
#: strings the CLI ``--mode`` flag and the service ``render`` endpoint
#: accept; :func:`timeline_mode` turns one into a ready mode object.
TIMELINE_MODES = {
    "state": StateMode,
    "heatmap": HeatmapMode,
    "typemap": TypeMode,
    "numa-read": lambda: NumaMode("read"),
    "numa-write": lambda: NumaMode("write"),
    "numa-heatmap": NumaHeatmapMode,
}


def timeline_mode(name):
    """Instantiate a timeline mode from its public name.

    Accepts any key of :data:`TIMELINE_MODES`; raises ``ValueError``
    (listing the valid names) otherwise, so callers that forward
    user-supplied strings get a clean diagnostic.
    """
    try:
        factory = TIMELINE_MODES[str(name)]
    except KeyError:
        raise ValueError("unknown timeline mode {!r}; valid: {}".format(
            name, ", ".join(sorted(TIMELINE_MODES)))) from None
    return factory()


def _visible_lane(mode, trace, core, edges):
    """``mode``'s events on ``core`` overlapping ``[edges[0],
    edges[-1])``, found by binary search (Section VI-B-c)."""
    starts, ends, keys = mode.lane_events(trace, core)
    visible = interval_slice(starts, ends, edges[0], edges[-1])
    return starts[visible], ends[visible], keys[visible]


def _predominant_keys(starts, ends, keys, edges):
    """Predominant key per bin of ``edges`` (-1 where nothing is
    visible).

    Per-key bin coverage is accumulated vectorized — partial first and
    last bins by scatter-add, fully covered interior bins by a per-key
    difference array — and the key with the largest coverage wins the
    bin: Section VI-B's "every pixel is drawn only once".
    """
    width = len(edges) - 1
    result = np.full(width, -1, dtype=np.int64)
    if len(starts) == 0:
        return result
    start, end = edges[0], edges[-1]
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    visible = (ends > start) & (starts < end) & (keys >= 0)
    if not visible.any():
        return result
    starts = np.clip(starts[visible], start, end)
    ends = np.clip(ends[visible], start, end)
    uniq, inverse = np.unique(keys[visible], return_inverse=True)
    first = np.clip(np.searchsorted(edges, starts, side="right") - 1,
                    0, width - 1)
    last = np.clip(np.searchsorted(edges, ends, side="left") - 1,
                   0, width - 1)
    coverage = np.zeros((width, len(uniq)), dtype=np.int64)
    head = (np.minimum(ends, edges[first + 1])
            - np.maximum(starts, edges[first]))
    np.add.at(coverage, (first, inverse), np.clip(head, 0, None))
    multi = last > first
    if multi.any():
        tail = (np.minimum(ends[multi], edges[last[multi] + 1])
                - edges[last[multi]])
        np.add.at(coverage, (last[multi], inverse[multi]),
                  np.clip(tail, 0, None))
        covering = np.zeros((width + 1, len(uniq)), dtype=np.int64)
        np.add.at(covering, (first[multi] + 1, inverse[multi]), 1)
        np.add.at(covering, (last[multi], inverse[multi]), -1)
        coverage += (np.cumsum(covering[:width], axis=0)
                     * np.diff(edges)[:, None])
    # argmax picks the first (smallest) key on coverage ties, matching
    # the reference walk's max(coverage, key=(coverage, -key)).
    best = np.argmax(coverage, axis=1)
    covered = coverage[np.arange(width), best] > 0
    result[covered] = uniq[best[covered]]
    return result


def _mean_values(starts, ends, values, edges):
    """Coverage-weighted mean value per bin of ``edges`` (NaN where
    nothing is visible): two value-weighted/unweighted overlap-binning
    passes (the difference-array kernel the derived metrics use,
    :func:`repro.core.metrics.overlap_per_bin`) and a divide."""
    edges = np.asarray(edges, dtype=np.float64)
    weighted = overlap_per_bin(starts, ends, edges,
                               weights=np.asarray(values,
                                                  dtype=np.float64))
    coverage = overlap_per_bin(starts, ends, edges)
    result = np.full(len(coverage), np.nan, dtype=np.float64)
    covered = coverage > 0
    result[covered] = weighted[covered] / coverage[covered]
    return result


def _paint_background(framebuffer, lane_height, lane_tops):
    for index, top in enumerate(lane_tops):
        color = (palettes.BACKGROUND_EVEN if index % 2 == 0
                 else palettes.BACKGROUND_ODD)
        framebuffer.fill_rect(0, top, framebuffer.width, lane_height,
                              color)


def render_timeline(trace, mode, view=None, framebuffer=None):
    """Render one timeline mode into a framebuffer.

    Each lane's per-pixel keys (:meth:`TimelineMode.pixel_keys`, on
    the pixel grid computed once for the frame) are painted with one
    rectangle per run of equal keys: predominant-pixel rendering with
    rectangle aggregation.  :mod:`repro.render.reference` holds the
    per-pixel specification and the one-rectangle-per-event baseline
    of Fig. 20.
    """
    view = TimelineView.fit(trace) if view is None else view
    if framebuffer is None:
        framebuffer = Framebuffer(view.width, view.height)
    mode.prepare(trace)
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    _paint_background(framebuffer, lane_height, lane_tops)
    framebuffer.reset_counters()
    grid = view.pixel_bins()
    for core, top in enumerate(lane_tops):
        _fill_key_runs(framebuffer, mode,
                       mode.pixel_keys(trace, core, grid), top,
                       lane_height)
    return framebuffer


def _fill_key_runs(framebuffer, mode, pixel_keys, top, lane_height):
    """Aggregate equal-key pixel runs into single rectangle fills
    (Section VI-B's draw-call aggregation); -1 runs stay unpainted."""
    change = np.flatnonzero(pixel_keys[1:] != pixel_keys[:-1]) + 1
    run_starts = np.concatenate(([0], change))
    run_ends = np.concatenate((change, [len(pixel_keys)]))
    keys = pixel_keys[run_starts]
    painted = keys >= 0
    for x0, x1, key in zip(run_starts[painted].tolist(),
                           run_ends[painted].tolist(),
                           keys[painted].tolist()):
        framebuffer.fill_rect(x0, top, x1 - x0, lane_height,
                              mode.color_of(key))
