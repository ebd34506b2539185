"""Tests for counter overlays and matrix/histogram views."""

import numpy as np
import pytest

from repro.core import CounterIndex, TopologyInfo, TraceBuilder
from repro.render import (Framebuffer, TimelineView, histogram_to_text,
                          matrix_to_text, render_counter,
                          render_counter_rate, render_histogram,
                          render_matrix, value_bounds)
from repro.render import reference as render_reference


def counter_trace(samples):
    builder = TraceBuilder(TopologyInfo(1, 1))
    counter = builder.describe_counter("c")
    for timestamp, value in samples:
        builder.counter_sample(0, counter, timestamp, value)
    return builder.build()


class TestValueBounds:
    def test_bounds_span_samples(self):
        trace = counter_trace([(0, 2.0), (10, 8.0), (20, 5.0)])
        assert value_bounds(trace, 0) == (2.0, 8.0)

    def test_empty_counter(self):
        trace = counter_trace([])
        assert value_bounds(trace, 0) == (0.0, 1.0)

    def test_constant_counter_padded(self):
        trace = counter_trace([(0, 5.0), (10, 5.0)])
        lo, hi = value_bounds(trace, 0)
        assert hi > lo


class TestRenderCounter:
    def test_optimized_one_line_per_column(self):
        samples = [(t, float(t % 17)) for t in range(0, 1000, 5)]
        trace = counter_trace(samples)
        view = TimelineView(0, 1000, width=40, height=30)
        fb = Framebuffer(40, 30)
        calls = render_counter(trace, 0, view, fb)
        assert calls == 40    # exactly one vertical line per column

    def test_naive_one_line_per_sample_pair(self):
        samples = [(t, float(t)) for t in range(0, 100, 10)]
        trace = counter_trace(samples)
        view = TimelineView(0, 100, width=50, height=20)
        fb = Framebuffer(50, 20)
        calls = render_reference.render_counter_per_sample(trace, 0, view,
                                                           fb)
        assert calls == len(samples) - 1

    def test_optimized_cheaper_when_samples_dense(self):
        samples = [(t, float((t * 7) % 23)) for t in range(2000)]
        trace = counter_trace(samples)
        view = TimelineView(0, 2000, width=100, height=40)
        naive_fb = Framebuffer(100, 40)
        naive = render_reference.render_counter_per_sample(trace, 0, view,
                                                           naive_fb)
        fast_fb = Framebuffer(100, 40)
        fast = render_counter(trace, 0, view, fast_fb)
        assert fast < naive

    def test_tree_index_gives_same_extremes(self):
        samples = [(t, float((t * 13) % 101)) for t in range(0, 3000, 3)]
        trace = counter_trace(samples)
        view = TimelineView(0, 3000, width=64, height=48)
        plain_fb = Framebuffer(64, 48)
        render_counter(trace, 0, view, plain_fb)
        tree_fb = Framebuffer(64, 48)
        render_counter(trace, 0, view, tree_fb,
                       counter_index=CounterIndex(trace))
        assert (plain_fb.pixels == tree_fb.pixels).all()

    def test_empty_counter_draws_nothing(self):
        trace = counter_trace([])
        view = TimelineView(0, 100, width=10, height=10)
        fb = Framebuffer(10, 10)
        assert render_counter(trace, 0, view, fb) == 0

    def test_sparse_columns_interpolated(self):
        trace = counter_trace([(0, 0.0), (1000, 10.0)])
        view = TimelineView(0, 1000, width=20, height=20)
        fb = Framebuffer(20, 20)
        calls = render_counter(trace, 0, view, fb)
        assert calls >= 18     # middle columns interpolate

    def test_render_by_name(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 60, 40)
        fb = Framebuffer(60, 40)
        calls = render_counter(seidel_trace_small, "cache_misses", view,
                               fb, core=1)
        assert calls > 0


class TestRenderCounterRate:
    def test_rate_rendering_draws(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 80, 40)
        fb = Framebuffer(80, 40)
        calls = render_counter_rate(seidel_trace_small,
                                    "branch_mispredictions", view, fb,
                                    core=2)
        assert calls >= 0
        assert fb.pixels_drawn > 0

    def test_too_few_samples(self):
        trace = counter_trace([(0, 1.0)])
        view = TimelineView(0, 10, width=5, height=5)
        fb = Framebuffer(5, 5)
        assert render_counter_rate(trace, 0, view, fb) == 0


class TestMatrixRendering:
    def test_render_matrix_dimensions(self):
        matrix = np.asarray([[1.0, 0.0], [0.25, 0.5]])
        fb = render_matrix(matrix, cell_size=8, gap=1)
        assert fb.width == 2 * 9 + 1
        assert fb.height == 2 * 9 + 1

    def test_deeper_red_for_larger_values(self):
        matrix = np.asarray([[1.0, 0.0], [0.0, 0.0]])
        fb = render_matrix(matrix, cell_size=4, gap=0)
        hot = fb.pixels[0, 0]
        cold = fb.pixels[0, 7]
        assert hot[1] < cold[1]   # less green = deeper red

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_matrix(np.zeros(4))

    def test_matrix_to_text(self):
        text = matrix_to_text(np.asarray([[0.5, 0.5], [0.0, 1.0]]))
        assert "0.500" in text
        assert len(text.splitlines()) == 3


class TestHistogramRendering:
    def test_bars_scale_with_fraction(self):
        edges = np.asarray([0.0, 1.0, 2.0])
        fb = render_histogram(edges, [0.25, 0.75], width=20, height=40)
        assert fb.pixels_drawn > 0

    def test_empty_histogram(self):
        fb = render_histogram(np.asarray([0.0]), [])
        assert fb.pixels_drawn == 0

    def test_histogram_to_text(self):
        edges = np.asarray([0.0, 10.0, 20.0])
        text = histogram_to_text(edges, [0.4, 0.6])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "#" in lines[0]
