"""Scalar reference renderers: the executable specification of the
vectorized drawing kernels.

Each function here draws with the plain per-pixel / per-event /
per-cell loop the batched kernel in :mod:`repro.render` replaced, and
must paint bit-identical pixels with identical draw-call counts:

* :func:`render_counter` — per-pixel-column min/max search for
  :func:`repro.render.counter_overlay.render_counter` (Fig. 21b);
* :func:`render_derived_series` — the same loop over a materialized
  :class:`~repro.core.derived.DerivedSeries`;
* :func:`render_discrete_events` — one marker per event for
  :func:`repro.render.event_overlay.render_discrete_events`;
* :func:`render_matrix` — one :func:`~repro.render.colors.matrix_red`
  call per cell for :func:`repro.render.matrix.render_matrix`.

The parity tests compare the kernels against these, and
``benchmarks/bench_ext_interactive.py`` uses them as the baseline of
its frame-loop speedup gate.  Like :mod:`repro.core.reference`, this
module favours obviousness over speed.
"""

from __future__ import annotations

import numpy as np

from ..core.index import discrete_in_interval
from . import colors as palettes
from .counter_overlay import _value_to_y, value_bounds
from .event_overlay import EVENT_COLORS
from .framebuffer import Framebuffer


def _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color, extremes_of):
    """Draw one vertical line per pixel column spanning the column's
    (min, max), interpolating empty columns at the pixel center."""
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        extremes = extremes_of(t0, t1)
        if extremes is None:
            center = (t0 + t1) // 2
            if center < timestamps[0] or center > timestamps[-1]:
                continue
            value = float(np.interp(center, timestamps, values))
            extremes = (value, value)
        y_max = _value_to_y(extremes[0], bounds, top, height)
        y_min = _value_to_y(extremes[1], bounds, top, height)
        framebuffer.vertical_line(x, y_min, y_max, color)


def _scan_extremes(timestamps, values):
    """``(t0, t1) -> (min, max) | None`` by binary search + slice."""
    def extremes_of(t0, t1):
        lo = int(np.searchsorted(timestamps, t0, side="left"))
        hi = int(np.searchsorted(timestamps, t1, side="left"))
        if hi <= lo:
            return None
        window = values[lo:hi]
        return float(window.min()), float(window.max())
    return extremes_of


def render_counter(trace, counter, view, framebuffer, core=0,
                   color=(255, 60, 60), top=None, height=None,
                   bounds=None, counter_index=None):
    """Reference for the optimized mode of
    :func:`repro.render.counter_overlay.render_counter`: per pixel
    column, the extremes come from ``counter_index`` (a
    :class:`~repro.core.interval_tree.CounterIndex`) when given, else
    from a binary-searched slice of the samples."""
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    bounds = value_bounds(trace, counter_id, cores=(core,)) \
        if bounds is None else bounds
    timestamps, values = trace.counter_samples(core, counter_id)
    if len(timestamps) == 0:
        return 0
    if counter_index is not None:
        def extremes_of(t0, t1):
            return counter_index.query_time_range(core, counter_id,
                                                  t0, t1)
    else:
        extremes_of = _scan_extremes(timestamps, values)
    before = framebuffer.draw_calls
    _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color, extremes_of)
    return framebuffer.draw_calls - before


def render_derived_series(series, view, framebuffer, color=(90, 220, 90),
                          top=None, height=None):
    """Reference for
    :func:`repro.render.counter_overlay.render_derived_series`."""
    timestamps, values = series.sample_points()
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    if len(timestamps) == 0:
        return 0
    lo = float(np.min(values))
    hi = float(np.max(values))
    bounds = (lo, hi if hi > lo else lo + 1.0)
    before = framebuffer.draw_calls
    _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color,
                          _scan_extremes(timestamps, values))
    return framebuffer.draw_calls - before


def render_discrete_events(trace, view, framebuffer, kind=None,
                           marker_height=3):
    """Reference for
    :func:`repro.render.event_overlay.render_discrete_events`: one
    marker per event, skipping events on the column just drawn."""
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    height = min(marker_height, lane_height)
    markers = 0
    for core in range(trace.num_cores):
        columns = discrete_in_interval(trace, core, view.start, view.end,
                                       kind=kind)
        timestamps = columns["timestamp"]
        kinds = columns["kind"]
        pixels = ((timestamps - view.start) * view.width
                  // view.duration)
        seen = None
        for index in range(len(pixels)):
            x = int(pixels[index])
            if x == seen or x < 0 or x >= view.width:
                continue
            seen = x
            color = EVENT_COLORS.get(int(kinds[index]), (200, 200, 200))
            framebuffer.vertical_line(x, lane_tops[core],
                                      lane_tops[core] + height - 1,
                                      color)
            markers += 1
    return markers


def render_matrix(matrix, cell_size=16, framebuffer=None, gap=1,
                  peak=None):
    """Reference for :func:`repro.render.matrix.render_matrix`: one
    :func:`~repro.render.colors.matrix_red` shade per cell."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = matrix.shape
    if peak is None:
        peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    elif peak <= 0:
        peak = 1.0
    if framebuffer is None:
        framebuffer = Framebuffer(cols * (cell_size + gap) + gap,
                                  rows * (cell_size + gap) + gap,
                                  background=(255, 255, 255))
    for row in range(rows):
        for col in range(cols):
            framebuffer.fill_rect(gap + col * (cell_size + gap),
                                  gap + row * (cell_size + gap),
                                  cell_size, cell_size,
                                  palettes.matrix_red(matrix[row, col]
                                                      / peak))
    return framebuffer
