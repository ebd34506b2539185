"""``serve``: many remote analysts over HTTP against two pooled traces.

The trace service runs in its own process, so the load generator does
not share its interpreter lock, and holds two 1M-event traces in its
pool.  Requests arrive open-loop at one fixed rate over two
connections (one per CPU), each carrying a stream of analyst
sessions: ``open``, the first frame (PNG, or ASCII art in one session
in four) and the statistics panel at the fit view, then eight
interactions that each ``navigate`` (to windows under 1% of the
trace, one in six back to the fit view) and refresh ``stats``, and
``close``.  Each request is timed from when it was due, so a stall
also delays the requests queued behind it.

Transport, JSON, the per-trace lock and the statistics kernel do most
of the work here while rendering does little: a slowdown shows as
queueing in ``request_ms_p90``.  Every reply is checked against the
same call made in-process on the same trace.

``BENCHMARK.json`` does not list this workload yet: its latency
percentiles are not steady from run to run (see ``README.md``).
"""

import base64
import os
import random
import threading
import time
from http.client import HTTPException

import common
import tracing

#: ``rate`` (requests/s over both connections) keeps the connections
#: of today's server about half busy on a 2-CPU machine.
SIZES = {"full": {"events": 1_000_000, "rate": 20.0},
         "tiny": {"events": 20_000, "rate": 10.0}}

#: Connections (one load-generator thread each): one per CPU.
LANES = 2

#: Interactions per session; each navigates and refreshes the
#: statistics panel.
INTERACTIONS = 8

#: Every ASCII_EVERY-th session of a connection asks for its first
#: frame as ASCII art, the others as PNG.
ASCII_EVERY = 4

FIT_SHARE = 1 / 6


def run(ctx):
    size = SIZES[ctx.scale]
    paths = [os.path.join(ctx.workdir, "serve-{}.ost".format(name))
             for name in "ab"]
    common.generate([(path, size["events"], ctx.seed * 2 + i)
                     for i, path in enumerate(paths)])
    ctx.mark("generate")
    setup = common.SetupProcess(paths, ctx.spans_path("setup"))
    setup.close()
    from repro.trace_format import read_trace
    stores = {path: read_trace(path, cache=True) for path in paths}
    server = common.Server(ctx.workdir)
    try:
        setup_s = setup.seconds + server.start_s
        ctx.mark("setup")
        untraced = _timed_pass(ctx, server, stores, None, size["rate"])
        rss = server.peak_rss_mb()
    finally:
        server.close()
    e2e = common.end_to_end(setup_s, untraced["samples"], rss)
    common.report("serve", {
        "end_to_end": e2e, "setup_s": [setup.seconds, server.start_s],
        "counts": untraced["counts"].table,
        "samples": untraced["samples"].counts(),
        "busy": untraced["busy"], "peak_rss_mb": rss})
    if not ctx.trace:
        return common.result(untraced["ok"], untraced["counts"], e2e)
    server = common.Server(ctx.workdir, ctx.spans_path("server"))
    tracer = tracing.Tracer()
    try:
        traced = _timed_pass(ctx, server, stores, tracer, size["rate"])
    finally:
        server.close()
    layers = common.per_layer(
        tracing.layer_stats([tracer.spans] + ctx.load_spans()),
        size["events"], pool=traced["pool"], client=traced["client"],
        late_ms=traced["late_ms"], untraced=e2e,
        traced=common.end_to_end(setup_s, traced["samples"], rss))
    untraced["counts"].merge(traced["counts"])
    return common.result(untraced["ok"] and traced["ok"],
                         untraced["counts"], layers)


class _Lane(threading.Thread):
    """One connection: a stream of sessions, each request sent when
    due (or as soon as the previous reply arrives, if later)."""

    def __init__(self, index, ctx, url, stores, rate, start, tracer):
        super().__init__(name="lane{}".format(index))
        self.rng = random.Random(ctx.seed * 101 + index
                                 + 7 * (tracer is not None))
        self.url, self.stores, self.tracer = url, stores, tracer
        self.gap = LANES / rate
        self.start_at, self.end_at = start, start + ctx.seconds
        self.sessions = 0
        self.records = []

    def _session_plan(self):
        """``(endpoint, params, expected view)`` requests of one
        session; ``session`` parameters are filled in when sent."""
        from repro.session import AnalysisSession
        rng = self.rng
        path = rng.choice(sorted(self.stores))
        trace = self.stores[path]
        mirror = AnalysisSession(trace, width=common.WIDTH,
                                 height=common.HEIGHT)
        script = common.NavigationScript(rng, trace.begin, trace.end,
                                         FIT_SHARE)

        def view():
            return (int(mirror.view.start), int(mirror.view.end))

        encoding = "ascii" if self.sessions % ASCII_EVERY == 0 else "png"
        self.sessions += 1
        plan = [("open", {"path": path}, view()),
                ("render", {"mode": "state", "format": encoding}, view()),
                ("stats", {}, view())]
        for __ in range(INTERACTIONS):
            action, params = script.next(*view())
            mirror.navigate(action, **params)
            plan.append(("navigate", dict(params, action=action), view()))
            plan.append(("stats", {}, view()))
        plan.append(("close", {}, None))
        return path, plan

    def run(self):
        from repro.service import ServiceClient, ServiceError
        client = ServiceClient(self.url, timeout=30.0)
        due = self.start_at + self.rng.uniform(0, self.gap)
        last_done = self.start_at
        try:
            while due < self.end_at:
                path, plan = self._session_plan()
                sid = None
                for endpoint, params, view in plan:
                    if due >= self.end_at:
                        break
                    if endpoint != "open":
                        if sid is None:
                            break           # the open failed
                        params = dict(params, session=sid)
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    sent = time.perf_counter()
                    try:
                        if self.tracer is not None:
                            with self.tracer.span("client.roundtrip",
                                                  endpoint=endpoint):
                                reply = client.call(endpoint, **params)
                        else:
                            reply = client.call(endpoint, **params)
                    except (ServiceError, OSError, HTTPException,
                            ValueError) as error:
                        reply = error
                    done = time.perf_counter()
                    self.records.append({
                        "path": path, "endpoint": endpoint,
                        "params": params, "view": view, "due": due,
                        "sent": sent, "done": done, "reply": reply,
                        "late": sent - max(due, last_done)})
                    if endpoint == "open" and isinstance(reply, dict):
                        sid = reply["session"]
                    last_done = done
                    due += self.gap * self.rng.uniform(0.9, 1.1)
        finally:
            client.close_connection()


def _timed_pass(ctx, server, stores, tracer, rate):
    """Drive the service for ``ctx.seconds``.  With a ``tracer`` the
    load generator records one span per round trip (the server process
    records its own spans)."""
    start = time.perf_counter() + 0.1
    lanes = [_Lane(i, ctx, server.url, stores, rate, start, tracer)
             for i in range(LANES)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join(timeout=ctx.seconds + 120)
        if lane.is_alive():
            raise RuntimeError("load generator did not finish")
    ctx.mark("timed")
    pool = server.health()["pool"]
    outcome = _verify([lane.records for lane in lanes], stores, pool)
    ctx.mark("verify")
    outcome["pool"] = pool
    outcome["busy"] = sum(r["done"] - r["sent"] for lane in lanes
                          for r in lane.records) / (LANES * ctx.seconds)
    records = [r for lane in lanes for r in lane.records]
    outcome["late_ms"] = [r["late"] * 1e3 for r in records]
    outcome["client"] = [(r["endpoint"], (r["done"] - r["sent"]) * 1e3,
                          len(common.canonical(r["reply"]))
                          if isinstance(r["reply"], dict) else 0)
                         for r in records]
    return outcome


class References:
    """In-process answers for the same calls, memoized per view."""

    def __init__(self, stores):
        self.stores = stores
        self._cache = {}

    def session(self, path, view):
        from repro.session import AnalysisSession
        session = AnalysisSession(self.stores[path], width=common.WIDTH,
                                  height=common.HEIGHT)
        session.goto(*view)
        return session

    def stats(self, path, view):
        key = ("stats", path, view)
        if key not in self._cache:
            self._cache[key] = common.canonical(
                self.session(path, view).statistics())
        return self._cache[key]

    def frame(self, path, view, mode, encoding):
        key = ("frame", path, view, mode, encoding)
        if key not in self._cache:
            frame = self.session(path, view).render_frame(mode)
            self._cache[key] = (common.digest(frame.png_bytes())
                                if encoding == "png" else frame.to_ascii())
        return self._cache[key]


def _check(record, refs):
    """Whether one reply equals the in-process answer."""
    reply, path, view = record["reply"], record["path"], record["view"]
    endpoint, params = record["endpoint"], record["params"]
    if not isinstance(reply, dict):
        return False
    if endpoint == "open":
        trace = refs.stores[path]
        return (reply["cores"] == trace.num_cores
                and reply["duration"] == trace.duration
                and (reply["view"]["start"], reply["view"]["end"])
                == view)
    if endpoint == "navigate":
        return (reply["view"]["start"], reply["view"]["end"]) == view
    if endpoint == "stats":
        reply = {k: v for k, v in reply.items() if k != "session"}
        return common.canonical(reply) == refs.stats(path, view)
    if endpoint == "render":
        expected = refs.frame(path, view, params["mode"],
                              params["format"])
        if params["format"] == "png":
            return common.digest(base64.b64decode(
                reply["png_base64"])) == expected
        return reply["rows"] == expected
    return reply.get("closed") == params["session"]


def _verify(lanes, stores, pool):
    """Check every reply and the pool counters; build the samples."""
    refs = References(stores)
    counts, samples, ok = common.Counts(), common.Samples(), True
    for records in lanes:
        opened_due = None
        for record in records:
            good = _check(record, refs)
            ok = ok and good
            endpoint = record["endpoint"]
            counts.add(endpoint, good)
            ms = ((record["done"] - record["due"]) * 1e3 if good
                  else common.FAILED_MS)
            samples.add("request", ms)
            if endpoint == "open":
                opened_due = record["due"]
            elif endpoint == "stats":
                samples.add("stats", ms)
            elif endpoint == "render":
                samples.add("frame", ms)
                if opened_due is not None:
                    samples.add("first_frame", common.FAILED_MS if not good
                                else (record["done"] - opened_due) * 1e3)
                    opened_due = None
    # Every open/navigate/render/stats acquires its trace from the
    # pool once; two traces fit, so only their first acquisitions miss.
    records = [r for lane in lanes for r in lane]
    lookups = sum(r["endpoint"] != "close" for r in records)
    misses = len({r["path"] for r in records})
    good_pool = (pool["misses"] == misses and pool["evictions"] == 0
                 and pool["hits"] == lookups - misses)
    counts.add("pool_counters", good_pool)
    return {"samples": samples, "counts": counts,
            "ok": ok and good_pool}
