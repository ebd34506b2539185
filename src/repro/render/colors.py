"""Color palettes of the timeline modes (Section II-B).

* State mode: dark blue for task execution, light blue for idle, plus
  distinct colors for creation, synchronization, broadcasts and steals.
* Heatmap mode: shades of red, darker for longer tasks (configurable
  shade count).
* Typemap: one distinct color per task type.
* NUMA modes: one distinct color per NUMA node, automatically assigned;
  the NUMA heatmap grades from blue (mostly local accesses) to pink
  (mostly remote).
"""

from __future__ import annotations

import colorsys

import numpy as np

from ..core.events import WorkerState

#: Timeline background: alternating dark rows so empty lanes are visible
#: ("the black and gray colors of the timeline's background become
#: visible", Section III-B).
BACKGROUND_EVEN = (16, 16, 16)
BACKGROUND_ODD = (40, 40, 40)

STATE_COLORS = {
    int(WorkerState.RUNNING): (22, 58, 123),      # dark blue
    int(WorkerState.IDLE): (150, 195, 235),       # light blue
    int(WorkerState.CREATE): (70, 160, 70),       # green
    int(WorkerState.SYNC): (230, 160, 40),        # orange
    int(WorkerState.BROADCAST): (150, 80, 170),   # purple
    int(WorkerState.STEAL): (210, 210, 70),       # yellow
}


def state_color(state):
    """RGB color of one worker state (the paper's state palette)."""
    return STATE_COLORS.get(int(state), (200, 200, 200))


def heatmap_shades(count=10):
    """``count`` shades of red, light (short tasks) to dark (long)."""
    if count < 2:
        raise ValueError("need at least two shades")
    shades = []
    for index in range(count):
        fraction = index / (count - 1)
        red = int(255 - 60 * fraction)
        green_blue = int(235 * (1 - fraction))
        shades.append((red, green_blue, green_blue))
    return shades


def heatmap_color(fraction, shades):
    """Shade for a normalized duration in [0, 1]."""
    fraction = min(max(fraction, 0.0), 1.0)
    index = min(int(fraction * len(shades)), len(shades) - 1)
    return shades[index]


def distinct_colors(count, saturation=0.65, value=0.9):
    """``count`` visually distinct colors (golden-angle hue walk)."""
    colors = []
    hue = 0.15
    for __ in range(max(count, 0)):
        rgb = colorsys.hsv_to_rgb(hue % 1.0, saturation, value)
        colors.append(tuple(int(channel * 255) for channel in rgb))
        hue += 0.61803398875
    return colors


def type_palette(num_types):
    """One color per task type (typemap mode)."""
    return distinct_colors(num_types)


def numa_palette(num_nodes):
    """One color per NUMA node, automatically assigned (Section IV)."""
    return distinct_colors(num_nodes, saturation=0.8, value=0.95)


_NUMA_LOCAL = np.array((60, 90, 220), dtype=np.float64)      # blue
_NUMA_REMOTE = np.array((240, 105, 180), dtype=np.float64)    # pink


def numa_heat_colors(remote_fractions):
    """Blue (all local) to pink (all remote) gradient (Fig. 14e/f):
    an ``(..., 3)`` int64 array of RGB channels, one per fraction
    (clamped to [0, 1], channels truncated)."""
    fractions = np.clip(np.asarray(remote_fractions, dtype=np.float64),
                        0.0, 1.0)
    mixed = (_NUMA_LOCAL
             + (_NUMA_REMOTE - _NUMA_LOCAL) * fractions[..., None])
    return mixed.astype(np.int64)


def numa_heat_color(remote_fraction):
    """The :func:`numa_heat_colors` ramp color of one fraction."""
    return tuple(int(channel)
                 for channel in numa_heat_colors(float(remote_fraction)))


def matrix_red(fraction):
    """White-to-deep-red ramp of the communication matrix (Fig. 15)."""
    fraction = min(max(float(fraction), 0.0), 1.0)
    return (255 - int(75 * fraction), int(255 * (1 - fraction)),
            int(255 * (1 - fraction)))


def matrix_red_array(fractions):
    """Vectorized :func:`matrix_red`: an ``(..., 3)`` uint8 array with
    exactly the same clamping and truncation, cell for cell."""
    fractions = np.clip(np.asarray(fractions, dtype=np.float64),
                        0.0, 1.0)
    red = 255 - (75 * fractions).astype(np.int64)
    green_blue = (255 * (1 - fractions)).astype(np.int64)
    return np.stack((red, green_blue, green_blue),
                    axis=-1).astype(np.uint8)
