"""``triage``: one analyst works through a library of smaller traces.

A closed loop on one connection visits traces of a seeded library:
``open``, the first PNG frame at the fit view, ``stats``, a ``diff``
against the library's baseline trace, ``close``.  The library holds
more traces than the service's pool capacity (8), so reopens are
either pool hits or pool misses that map the ``.ostc`` sidecar; three
visits in twenty open a trace that has no sidecar yet, so the service
parses it and writes the sidecar, and one in twenty diffs the
baseline against itself.

This is the workload where writes sit beside reads: the trace-format
parse, write and map paths, pool eviction and the experiment engine's
diff do the work.  A change that persists more in the sidecar to
speed up ``explore`` pays for it here.  Every reply is checked
against the same call made in-process, a self-diff must be empty and
the pool's counters must match an LRU replay of the visits.
"""

import base64
import math
import os
import random
import time
from collections import OrderedDict
from http.client import HTTPException

import common
import tracing

#: ``warm`` traces get a sidecar in set-up, ``cold`` ones (per pass)
#: are first opened during the timed phase.
SIZES = {"full": {"events": 50_000, "warm": 8, "setup_reps": 2},
         "tiny": {"events": 4_000, "warm": 8, "setup_reps": 1}}

#: Visits per second the cold-trace supply is sized for (today's
#: service manages about three).
MAX_VISIT_RATE = 5

#: Per block of BLOCK visits: COLD open a trace without a sidecar and
#: one diffs the baseline against itself.
BLOCK, COLD = 20, 3

#: Half of the other visits return to one of the RECENT traces
#: visited last; the rest pick any trace opened before.
RECENT = 4


def run(ctx):
    size = SIZES[ctx.scale]

    def path(name):
        return os.path.join(ctx.workdir, name + ".ost")

    base = path("base")
    warm = [path("warm{}".format(i)) for i in range(size["warm"])]
    passes = 2 if ctx.trace else 1
    cold_count = math.ceil(ctx.seconds * MAX_VISIT_RATE * COLD / BLOCK)
    cold = [[path("cold{}-{}".format(p, i)) for i in range(cold_count)]
            for p in range(passes)]
    library = [base] + warm + [c for pass_cold in cold for c in pass_cold]
    common.generate([(p, size["events"], ctx.seed * 1000 + i)
                     for i, p in enumerate(library)])
    ctx.mark("generate")
    from repro.trace_format import default_cache_path
    setups, server = [], None
    try:
        for rep in range(size["setup_reps"]):
            if server is not None:
                server.close()
                for p in [base] + warm:
                    os.remove(default_cache_path(p))
            setup = common.SetupProcess([base] + warm, ctx.spans_path(
                "setup{}".format(rep)))
            setup.close()
            server = common.Server(ctx.workdir)
            setups.append(setup.seconds + server.start_s)
        ctx.mark("setup")
        untraced = _timed_pass(ctx, server, base, warm, cold[0], None)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.close()
    setup_s = common.median(setups)
    e2e = common.end_to_end(setup_s, untraced["samples"], rss)
    common.report("triage", {
        "end_to_end": e2e, "setup_s": setups,
        "counts": untraced["counts"].table,
        "samples": untraced["samples"].counts(), "pool": untraced["pool"],
        "cold_opens": untraced["cold_opens"], "peak_rss_mb": rss})
    if not ctx.trace:
        return common.result(untraced["ok"], untraced["counts"], e2e)
    server = common.Server(ctx.workdir, ctx.spans_path("server"))
    tracer = tracing.Tracer()
    try:
        traced = _timed_pass(ctx, server, base, warm, cold[1], tracer)
    finally:
        server.close()
    layers = common.per_layer(
        tracing.layer_stats([tracer.spans] + ctx.load_spans()),
        size["events"], pool=traced["pool"], client=traced["client"],
        untraced=e2e,
        traced=common.end_to_end(setup_s, traced["samples"], rss))
    untraced["counts"].merge(traced["counts"])
    return common.result(untraced["ok"] and traced["ok"],
                         untraced["counts"], layers)


class _Visits:
    """The seeded sequence of traces to visit."""

    def __init__(self, rng, base, warm, cold):
        self.rng, self.base = rng, base
        self.known = list(warm)
        self.cold = list(cold)
        self.recent = []
        self.count = 0
        self.slots = []

    def next(self):
        rng = self.rng
        if self.count % BLOCK == 0:
            self.slots = rng.sample(range(BLOCK), COLD + 1)
        slot = self.count % BLOCK
        self.count += 1
        if slot in self.slots[:COLD] and self.cold:
            target = self.cold.pop(0)
            self.known.append(target)
        elif slot == self.slots[COLD]:
            target = self.base
        elif self.recent and rng.random() < 0.5:
            target = rng.choice(self.recent)
        else:
            target = rng.choice(self.known)
        if target in self.recent:
            self.recent.remove(target)
        self.recent = (self.recent + [target])[-RECENT:]
        return target


def _timed_pass(ctx, server, base, warm, cold, tracer):
    """Visit traces for ``ctx.seconds``.  With a ``tracer`` the client
    records one span per round trip (the server process records its
    own spans)."""
    from repro.service import ServiceClient, ServiceError
    visits = _Visits(random.Random(ctx.seed * 31 + (tracer is not None)),
                     base, warm, cold)
    client = ServiceClient(server.url, timeout=60.0)
    records = []
    deadline = time.perf_counter() + ctx.seconds
    try:
        while time.perf_counter() < deadline:
            target = visits.next()
            plan = [("open", {"path": target}),
                    ("render", {"mode": "state", "format": "png"}),
                    ("stats", {}),
                    ("diff", {"baseline": base, "candidate": target}),
                    ("close", {})]
            sid = None
            for endpoint, params in plan:
                if endpoint not in ("open", "diff"):
                    if sid is None:
                        break
                    params = dict(params, session=sid)
                sent = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("client.roundtrip",
                                         endpoint=endpoint):
                            reply = client.call(endpoint, **params)
                    else:
                        reply = client.call(endpoint, **params)
                except (ServiceError, OSError, HTTPException,
                        ValueError) as error:
                    reply = error
                records.append({"path": target, "endpoint": endpoint,
                                "params": params, "sent": sent,
                                "done": time.perf_counter(),
                                "reply": reply})
                if endpoint == "open" and isinstance(reply, dict):
                    sid = reply["session"]
    finally:
        client.close_connection()
    ctx.mark("timed")
    pool = server.health()["pool"]
    outcome = _verify(records, base, pool)
    ctx.mark("verify")
    outcome["pool"] = pool
    outcome["cold_opens"] = len(set(cold)) - len(visits.cold)
    outcome["client"] = [(r["endpoint"], (r["done"] - r["sent"]) * 1e3,
                          len(common.canonical(r["reply"]))
                          if isinstance(r["reply"], dict) else 0)
                         for r in records]
    return outcome


def _expected_pool(records, base):
    """Pool counters an LRU of the service's capacity gives for the
    trace acquisitions these requests make."""
    resident = OrderedDict()
    hits = misses = evictions = 0
    for record in records:
        endpoint = record["endpoint"]
        if endpoint == "close":
            continue
        for path in ([base, record["path"]] if endpoint == "diff"
                     else [record["path"]]):
            if path in resident:
                hits += 1
                resident.move_to_end(path)
                continue
            misses += 1
            resident[path] = True
            if len(resident) > common.POOL_CAPACITY:
                resident.popitem(last=False)
                evictions += 1
    return {"hits": hits, "misses": misses, "evictions": evictions}


def _verify(records, base, pool):
    from repro.analysis.experiments import diff_traces
    from repro.trace_format import read_trace
    stores, refs = {}, {}

    def store(path):
        if path not in stores:
            stores[path] = read_trace(path, cache=True)
        return stores[path]

    def reference(path):
        if path not in refs:
            from repro.session import AnalysisSession
            session = AnalysisSession(store(path), width=common.WIDTH,
                                      height=common.HEIGHT)
            report = diff_traces(store(base), store(path))
            diff = report.to_dict()
            diff.update({"empty": report.is_empty,
                         "deviations": len(report)})
            refs[path] = {
                "png": common.digest(
                    session.render_frame("state").png_bytes()),
                "stats": common.canonical(session.statistics()),
                "diff": common.canonical(diff)}
        return refs[path]

    def check(record):
        reply, endpoint = record["reply"], record["endpoint"]
        if not isinstance(reply, dict):
            return False
        path = record["path"]
        if endpoint == "open":
            trace = store(path)
            return (reply["cores"] == trace.num_cores
                    and reply["duration"] == trace.duration)
        if endpoint == "render":
            return (common.digest(base64.b64decode(reply["png_base64"]))
                    == reference(path)["png"])
        if endpoint == "stats":
            reply = {k: v for k, v in reply.items() if k != "session"}
            return common.canonical(reply) == reference(path)["stats"]
        if endpoint == "diff":
            return (common.canonical(reply) == reference(path)["diff"]
                    and (path != base or reply["empty"]))
        return reply.get("closed") == record["params"]["session"]

    counts, samples, ok = common.Counts(), common.Samples(), True
    opened = None
    for record in records:
        good = check(record)
        ok = ok and good
        counts.add(record["endpoint"], good)
        ms = ((record["done"] - record["sent"]) * 1e3 if good
              else common.FAILED_MS)
        samples.add("request", ms)
        if record["endpoint"] == "open":
            opened = record["sent"]
        elif record["endpoint"] == "render":
            samples.add("frame", ms)
            samples.add("first_frame", (record["done"] - opened) * 1e3
                        if good else common.FAILED_MS)
        elif record["endpoint"] == "stats":
            samples.add("stats", ms)
    expected = _expected_pool(records, base)
    good_pool = all(pool[key] == value for key, value in expected.items())
    counts.add("pool_counters", good_pool)
    return {"samples": samples, "counts": counts, "ok": ok and good_pool}
