"""Spans recorded around the program's public entry points.

The benchmark never edits the program: in a traced run it replaces a
handful of public functions and methods with thin wrappers that time
each call into a :class:`Tracer`.  A span is ``(id, parent, request,
name, start_ns, end_ns, attrs)``; spans stay in memory and are written
out as JSON when the process ends.  :func:`layer_stats` turns spans
into per-name durations and self times (a span's duration minus the
time its direct children cover).
"""

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """An in-memory span recorder, safe to share between threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name, **attrs):
        """Time the ``with`` body as one span; yields its attribute
        dict so the body can add attributes (e.g. a result size)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (0, span_id)
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield attrs
        except BaseException as error:
            attrs["error"] = type(error).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, request, name, start,
                               end, attrs))

    def dump(self, path):
        """Write every span recorded so far to ``path`` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def view_depth(trace, start, end):
    """``fit`` for a whole-trace window, ``zoom`` for one under 1% of
    the trace, ``mid`` otherwise."""
    share = (int(end) - int(start)) / max(int(trace.end)
                                          - int(trace.begin), 1)
    if share >= 0.99:
        return "fit"
    return "zoom" if share < 0.01 else "mid"


def install(tracer):
    """Wrap the public entry points of every layer so each call
    records a span in ``tracer``.  Returns a callable that undoes the
    wrapping."""
    import repro.analysis.experiments as experiments
    import repro.core as core
    import repro.render.framebuffer as framebuffer
    import repro.service.api as api
    import repro.service.pool as pool
    import repro.session as session
    import repro.trace_format as trace_format
    import repro.trace_format.cache as cache
    import repro.trace_format.reader as reader

    undo = []

    def patch(owners, attr, make):
        original = getattr(owners[0], attr)
        wrapper = functools.wraps(original)(make(original))
        for owner in owners:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def timed(name):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def read_trace(original):
        # The package-level and the module-level name are both patched:
        # read_trace(cache=True) re-enters through the module global
        # for its parse, which therefore records a nested span.
        def wrapper(path, columnar=False, cache=None):
            name = ("trace_format.open_cached" if cache
                    else "trace_format.parse")
            with tracer.span(name):
                return original(path, columnar=columnar, cache=cache)
        return wrapper

    def write_cache(original):
        def wrapper(*args, **kwargs):
            with tracer.span("trace_format.write_cache") as attrs:
                written = original(*args, **kwargs)
                attrs["bytes"] = int(written)
                return written
        return wrapper

    def interval_report(original):
        def wrapper(trace, start=None, end=None):
            depth = view_depth(trace,
                               trace.begin if start is None else start,
                               trace.end if end is None else end)
            with tracer.span("core.interval_report", depth=depth):
                return original(trace, start, end)
        return wrapper

    def render_frame(original):
        def wrapper(self, mode="state"):
            view = self.view
            with tracer.span("session.render_frame", mode=str(mode),
                             depth=view_depth(self.trace, view.start,
                                              view.end)) as attrs:
                frame = original(self, mode)
                attrs["draw_calls"] = int(frame.draw_calls)
                return frame
        return wrapper

    def handle(original):
        def wrapper(self, endpoint, params):
            with tracer.span("service.handle", endpoint=str(endpoint)):
                return original(self, endpoint, params)
        return wrapper

    patch([trace_format, reader], "read_trace", read_trace)
    patch([cache], "write_cache", write_cache)
    patch([cache], "load_cache", timed("trace_format.load_cache"))
    patch([core], "interval_report", interval_report)
    patch([session.AnalysisSession], "navigate",
          timed("session.navigate"))
    patch([session.AnalysisSession], "statistics",
          timed("session.statistics"))
    patch([session.AnalysisSession], "render_frame", render_frame)
    patch([framebuffer.Framebuffer], "png_bytes", timed("render.png"))
    patch([framebuffer.Framebuffer], "to_ascii", timed("render.ascii"))
    patch([api.TraceService], "handle", handle)
    patch([pool.MappedCachePool], "entry", timed("service.pool.entry"))
    patch([experiments], "diff_traces", timed("analysis.diff_traces"))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def layer_stats(span_lists):
    """Per-name call records from several processes' span lists.

    Returns ``{name: [(duration_ms, self_ms, attrs), ...]}``.  Span ids
    are unique only within one process, so children are matched
    inside each list.
    """
    out = {}
    for spans in span_lists:
        children = {}
        for span in spans:
            children[span[1]] = (children.get(span[1], 0)
                                 + span[5] - span[4])
        for span_id, __, __, name, start, end, attrs in spans:
            duration = end - start
            own = duration - children.get(span_id, 0)
            out.setdefault(name, []).append(
                (duration / 1e6, own / 1e6, attrs))
    return out
