"""Matrix and histogram views (Fig. 15 / Fig. 16).

The communication incidence matrix renders the node-to-node traffic
proportions as shades of red (deeper = more traffic); a near-uniform
deep-red matrix means every node talks to every node, while a sharp
diagonal indicates near-optimal locality.  The histogram view renders
the task-duration distribution of the selected interval.
"""

from __future__ import annotations

import numpy as np

from . import colors as palettes
from .framebuffer import Framebuffer


def render_matrix(matrix, cell_size=16, framebuffer=None, gap=1,
                  peak=None):
    """Render a square matrix of fractions as a red-shaded grid.

    All cell shades come from one vectorized ramp evaluation
    (:func:`repro.render.colors.matrix_red_array`); the per-cell
    rectangle fills — the drawing operations the benchmarks count —
    are unchanged, and the pixels equal those of the per-cell
    :func:`~repro.render.colors.matrix_red` loop kept in
    :func:`repro.render.reference.render_matrix`.  ``peak`` overrides
    the normalization reference (default: this matrix's own maximum)
    so several panels can share one shade scale.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = matrix.shape
    if peak is None:
        peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    elif peak <= 0:
        peak = 1.0
    side_y = rows * (cell_size + gap) + gap
    side_x = cols * (cell_size + gap) + gap
    if framebuffer is None:
        framebuffer = Framebuffer(side_x, side_y, background=(255, 255, 255))
    shades = palettes.matrix_red_array(matrix / peak)
    for row in range(rows):
        for col in range(cols):
            framebuffer.fill_rect(gap + col * (cell_size + gap),
                                  gap + row * (cell_size + gap),
                                  cell_size, cell_size, shades[row, col])
    return framebuffer


def matrix_to_text(matrix, labels=None, width=6):
    """ASCII rendering of a matrix — what the benches print."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    labels = [str(index) for index in range(rows)] \
        if labels is None else labels
    header = " " * 5 + "".join(str(col).rjust(width) for col in range(cols))
    lines = [header]
    for row in range(rows):
        cells = "".join("{:{w}.3f}".format(matrix[row, col], w=width)
                        for col in range(cols))
        lines.append(str(labels[row]).rjust(4) + " " + cells)
    return "\n".join(lines)


def render_histogram(edges, fractions, width=400, height=160,
                     framebuffer=None, color=(60, 100, 200)):
    """Render a histogram (fractions per bin) as vertical bars."""
    fractions = np.asarray(fractions, dtype=np.float64)
    bins = len(fractions)
    if framebuffer is None:
        framebuffer = Framebuffer(width, height,
                                  background=(250, 250, 250))
    if bins == 0:
        return framebuffer
    peak = fractions.max() if fractions.max() > 0 else 1.0
    bar_width = max(1, framebuffer.width // bins)
    for index in range(bins):
        bar_height = int((fractions[index] / peak)
                         * (framebuffer.height - 2))
        framebuffer.fill_rect(index * bar_width,
                              framebuffer.height - 1 - bar_height,
                              bar_width - 1 if bar_width > 1 else 1,
                              bar_height, color)
    return framebuffer


def histogram_to_text(edges, fractions, bar_width=50, label="duration"):
    """ASCII histogram — one row per bin with a proportional bar."""
    fractions = np.asarray(fractions, dtype=np.float64)
    peak = fractions.max() if len(fractions) and fractions.max() > 0 \
        else 1.0
    lines = []
    for index in range(len(fractions)):
        bar = "#" * int(round(bar_width * fractions[index] / peak))
        lines.append("{:>14.4g} .. {:<14.4g} {:6.2%} {}".format(
            edges[index], edges[index + 1], fractions[index], bar))
    return "\n".join(lines)
