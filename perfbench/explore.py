"""``explore``: one analyst, in-process, on a mapped 1M-event trace.

The analyst reopens the trace's ``.ostc`` sidecar at the last detail
view of the previous visit (a reopen: the map, then the first PNG
frame of that window) and takes a few navigation steps before
reopening it.  Each step navigates (zoom, scroll, goto or reset),
renders the view in the next of the six timeline modes in
round-robin, encodes it as PNG and computes the statistics panel of
the view.  Most steps sit at windows under 1% of the trace, one in
six at the fit view.  The first open of a pass has no view to return
to; it is the pass's warm-up and is not timed.

The first frame returns to a detail view rather than the fit view
because a whole-trace frame of 1M events reads tens of MB, and its
time follows the host's shared-cache load in phases of seconds to
minutes (on a shared 2-CPU host the same frame took 37 ms or 60 ms
within one run): its run medians spread past any usable bound.  Fit-view frames are still measured,
among the steps (``frame_ms_*``) and per mode in the traced pass.

No HTTP, pool or parse runs in the timed phase, so the render and
core kernels do nearly all the work: a render or statistics gain
shows here, a transport gain must not.  Outputs are checked against
a store that a separate process parsed from the trace file, not
mapped from the sidecar.
"""

import os
import random
import time

import common
import tracing

SIZES = {"full": {"events": 1_000_000, "setup_reps": 2},
         "tiny": {"events": 20_000, "setup_reps": 1}}

#: Navigation steps between two opens of the trace.
STEPS_PER_VISIT = 2

#: Share of steps that return to the whole-trace view.
FIT_SHARE = 1 / 6

#: Every PNG_CHECK-th step's frame is compared with the reference
#: (every statistics panel and every first frame are).
PNG_CHECK = 5


def run(ctx):
    size = SIZES[ctx.scale]
    path = os.path.join(ctx.workdir, "explore.ost")
    common.generate([(path, size["events"], ctx.seed)])
    ctx.mark("generate")
    from repro.trace_format import default_cache_path
    setups, oracle = [], None
    try:
        for rep in range(size["setup_reps"]):
            if oracle is not None:
                oracle.close()
                os.remove(default_cache_path(path))
            oracle = common.SetupProcess([path], ctx.spans_path(
                "setup{}".format(rep)))
            setups.append(oracle.seconds)
        setup_s = common.median(setups)
        ctx.mark("setup")
        untraced = _timed_pass(ctx, path, oracle, None)
        rss = common.peak_rss_mb()
        e2e = common.end_to_end(setup_s, untraced["samples"], rss)
        common.report("explore", {
            "end_to_end": e2e, "setup_s": setups,
            "counts": untraced["counts"].table,
            "samples": untraced["samples"].counts(), "peak_rss_mb": rss})
        if not ctx.trace:
            return common.result(untraced["ok"], untraced["counts"], e2e)
        tracer = tracing.Tracer()
        traced = _timed_pass(ctx, path, oracle, tracer)
        traced_e2e = common.end_to_end(setup_s, traced["samples"], rss)
        spans = [tracer.spans] + ctx.load_spans()
        layers = common.per_layer(
            tracing.layer_stats(spans), size["events"],
            untraced=e2e, traced=traced_e2e)
        untraced["counts"].merge(traced["counts"])
        return common.result(untraced["ok"] and traced["ok"],
                             untraced["counts"], layers)
    finally:
        if oracle is not None:
            oracle.close()


def _timed_pass(ctx, path, oracle, tracer):
    """Run the navigation loop for ``ctx.seconds``; returns samples,
    operation counts and whether every checked output was right."""
    from repro.session import AnalysisSession
    from repro.trace_format import read_trace
    uninstall = tracing.install(tracer) if tracer is not None else None
    rng = random.Random(ctx.seed * 7919 + (tracer is not None))
    records, step = [], 0
    script = restore = None
    deadline = time.perf_counter() + ctx.seconds
    try:
        while time.perf_counter() < deadline:
            session = None          # close the previous visit untimed
            started = time.perf_counter()
            session = AnalysisSession(read_trace(path, cache=True),
                                      width=common.WIDTH,
                                      height=common.HEIGHT)
            if restore is not None:
                session.goto(*restore)
            png = session.render_frame("state").png_bytes()
            first_ms = (time.perf_counter() - started) * 1e3
            if restore is not None:
                records.append({"kind": "open", "mode": "state",
                                "first_ms": first_ms,
                                "view": _view(session),
                                "png": common.digest(png)})
            if script is None:
                trace = session.trace
                script = common.NavigationScript(rng, trace.begin,
                                                 trace.end, FIT_SHARE)
            for __ in range(STEPS_PER_VISIT):
                if time.perf_counter() >= deadline:
                    break
                mode = common.MODES[step % len(common.MODES)]
                action, params = script.next(session.view.start,
                                             session.view.end)
                records.append(_step(session, mode, action, params,
                                     tracer, step % PNG_CHECK == 0))
                step += 1
                if _is_detail(session):
                    restore = _view(session)
    finally:
        if uninstall is not None:
            uninstall()
    ctx.mark("timed")
    outcome = _verify(records, path, oracle)
    ctx.mark("verify")
    return outcome


def _view(session):
    return (int(session.view.start), int(session.view.end))


def _is_detail(session):
    """Whether the view is a window under 1% of the trace."""
    trace = session.trace
    return (session.view.end - session.view.start
            < 0.01 * (trace.end - trace.begin))


def _step(session, mode, action, params, tracer, keep_png):
    if tracer is not None:
        with tracer.span("explore.step"):
            return _step(session, mode, action, params, None, keep_png)
    started = time.perf_counter()
    session.navigate(action, **params)
    png = session.render_frame(mode).png_bytes()
    framed = time.perf_counter()
    stats = session.statistics()
    done = time.perf_counter()
    return {"kind": "step", "mode": mode, "view": _view(session),
            "frame_ms": (framed - started) * 1e3,
            "stats_ms": (done - framed) * 1e3,
            "request_ms": (done - started) * 1e3,
            "png": common.digest(png) if keep_png else None,
            "stats": stats}


def _verify(records, path, oracle):
    """Compare outputs with the parsed-store references; wrong outputs
    count as failed operations and miss every latency limit."""
    requests, index = [], {}
    for record in records:
        view = record["view"]
        if view not in index:
            index[view] = len(requests)
            requests.append({"path": path, "start": view[0],
                             "end": view[1], "stats": False,
                             "modes": []})
        request = requests[index[view]]
        request["stats"] |= record["kind"] == "step"
        if record["png"] and record["mode"] not in request["modes"]:
            request["modes"].append(record["mode"])
    replies = oracle.references(requests)
    counts, samples, ok = common.Counts(), common.Samples(), True
    for record in records:
        reply = replies[index[record["view"]]]
        good_png = (record["png"] is None
                    or record["png"] == reply["png"][record["mode"]])
        if record["kind"] == "open":
            counts.add("open", good_png)
            samples.add("first_frame", record["first_ms"] if good_png
                        else common.FAILED_MS)
            ok = ok and good_png
            continue
        good_stats = (common.canonical(record["stats"])
                      == common.canonical(reply["stats"]))
        counts.add("navigate", True)
        counts.add("render", good_png)
        counts.add("stats", good_stats)
        ok = ok and good_png and good_stats
        failed = common.FAILED_MS
        samples.add("frame", record["frame_ms"] if good_png else failed)
        samples.add("stats", record["stats_ms"] if good_stats else failed)
        samples.add("request", record["request_ms"]
                    if good_png and good_stats else failed)
    return {"samples": samples, "counts": counts, "ok": ok}
