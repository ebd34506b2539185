"""Shared plumbing: child processes, samples, navigation scripts and
the metric tables every workload reports."""

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: Latency recorded for a failed or wrong operation: it misses every
#: latency limit, but stays a finite JSON number.
FAILED_MS = 1e9

#: The pool capacity the service runs with (its default).
POOL_CAPACITY = 8

#: Geometry of every session: the service's default view.
WIDTH, HEIGHT = 1024, 256

MODES = ("state", "heatmap", "typemap", "numa-read", "numa-write",
         "numa-heatmap")
ENDPOINTS = ("open", "navigate", "render", "stats", "diff", "close")


def child_env():
    """Environment for child processes: the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class SetupProcess:
    """``child.py setup``: a fresh process times the first open of
    each trace (parse plus sidecar write), then answers reference
    requests from the stores it parsed until :meth:`close`."""

    def __init__(self, paths, spans_path=None):
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "setup", spans_path or "-"]
            + list(paths), env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("setup process failed")
        #: Seconds the program took to make the traces ready.
        self.seconds = json.loads(line)["seconds"]

    def references(self, requests):
        """Replies of ``child.references`` for ``requests``."""
        self.proc.stdin.write(json.dumps(requests) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            stop(self.proc)
            self.proc.stdout.close()


def generate(specs, timeout=170):
    """Write synthetic traces ``[(path, events, seed), ...]``, split
    over two generator processes (one per CPU)."""
    procs = [subprocess.Popen([sys.executable, CHILD, "gen"]
                              + [str(field) for spec in half
                                 for field in spec],
                              env=child_env(), stdout=subprocess.DEVNULL)
             for half in (specs[0::2], specs[1::2]) if half]
    try:
        for proc in procs:
            if proc.wait(timeout=timeout) != 0:
                raise RuntimeError("trace generation failed")
    finally:
        for proc in procs:
            stop(proc)


def stop(proc, timeout=20):
    """Terminate a child process (if still running) and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process {}".format(pid))


class Server:
    """The trace service in its own process (``child.py server``)."""

    def __init__(self, root, spans_path=None):
        started = time.perf_counter()
        args = [sys.executable, CHILD, "server", root, spans_path or "-"]
        self.proc = subprocess.Popen(args, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.url = self.proc.stdout.readline().strip()
            if not self.url.startswith("http://"):
                raise RuntimeError("trace service did not start")
            self.health()
        except BaseException:
            stop(self.proc)
            raise
        #: Seconds from process launch to the first answered request.
        self.start_s = time.perf_counter() - started

    def health(self):
        """The ``GET /health`` body (pool and session counters)."""
        with urllib.request.urlopen(self.url + "/health",
                                    timeout=30) as reply:
            return json.loads(reply.read())

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def close(self):
        stop(self.proc)
        self.proc.stdout.close()


def digest(data):
    """A short content hash for comparing frames across processes."""
    return hashlib.sha256(data).hexdigest()


def canonical(payload):
    """A reply as a canonical string: equal strings, equal replies."""
    return json.dumps(payload, sort_keys=True)


class Samples:
    """Latency samples (ms) per end-to-end series."""

    def __init__(self):
        self.series = {"frame": [], "stats": [], "request": [],
                       "first_frame": []}

    def add(self, name, ms):
        self.series[name].append(ms)

    def metrics(self):
        """``{name_p50: ms, name_p90: ms}`` for every series."""
        out = {}
        for name, values in self.series.items():
            for q in (50, 90):
                out["{}_ms_p{}".format(name, q)] = percentile(values, q)
        return out

    def counts(self):
        return {name: len(values) for name, values in self.series.items()}


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return statistics.median(values) if values else 0.0


class Counts:
    """Operations attempted, succeeded and failed, per kind."""

    def __init__(self):
        self.table = {}

    def add(self, kind, ok):
        row = self.table.setdefault(kind, {"attempted": 0, "ok": 0,
                                           "failed": 0})
        row["attempted"] += 1
        row["ok" if ok else "failed"] += 1

    def merge(self, other):
        """Add another pass's counts to these."""
        for kind, row in other.table.items():
            mine = self.table.setdefault(kind, dict.fromkeys(row, 0))
            for key, value in row.items():
                mine[key] += value

    @property
    def attempted(self):
        return sum(row["attempted"] for row in self.table.values())

    @property
    def failed(self):
        return sum(row["failed"] for row in self.table.values())


class Deck:
    """Seeded draws with exact proportions: each round of
    ``sum(counts.values())`` draws yields every item ``counts[item]``
    times, in shuffled order, so runs differ in order, not in mix."""

    def __init__(self, rng, counts):
        self.rng = rng
        self.cards = [item for item, n in counts.items()
                      for __ in range(n)]
        self.hand = []

    def draw(self):
        if not self.hand:
            self.hand = list(self.cards)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


class NavigationScript:
    """A seeded stream of navigation actions over one trace.

    ``fit_share`` (one in a whole number ``n``) of the steps return to
    the whole-trace view: one step in each round of ``n``, at a place in
    the round that takes every value once per ``n`` rounds, so a caller
    cycling through ``n`` modes renders each at the fit view equally
    often.  The rest sit at windows between 0.05% and 0.9% of the
    trace, reached by a deep zoom or a goto from the fit view, then
    moved by scrolling, zooming by two or a new goto.  Every window
    stays inside the trace.
    """

    def __init__(self, rng, begin, end, fit_share):
        self.rng = rng
        self.begin = int(begin)
        self.end = int(end)
        self.period = round(1 / fit_share)
        self.fit_places = Deck(rng, {i: 1 for i in range(self.period)})
        self.fit_at = self.steps = 0

    def _span(self, share):
        return max(1, int((self.end - self.begin) * share))

    def _deep_share(self):
        return math.exp(self.rng.uniform(math.log(0.0005),
                                         math.log(0.009)))

    def next(self, view_start, view_end):
        """One ``(action, params)`` from the view ``[start, end)``."""
        rng = self.rng
        duration = self.end - self.begin
        width = view_end - view_start
        place = self.steps % self.period
        if place == 0:
            self.fit_at = self.fit_places.draw()
        self.steps += 1
        if place == self.fit_at:
            return "reset", {}
        if width >= 0.01 * duration:            # at the fit view: dive
            share = self._deep_share()
            span = self._span(share)
            center = rng.randrange(self.begin + span,
                                   self.end - span)
            if rng.random() < 0.5:
                return "zoom", {"factor": width / span,
                                "center": center}
            return "goto", {"start": center - span // 2,
                            "end": center - span // 2 + span}
        choice = rng.random()
        if choice < 0.4:                        # scroll, staying inside
            fraction = rng.uniform(0.25, 1.0)
            room_right = self.end - view_end
            room_left = view_start - self.begin
            if room_right < fraction * width or (
                    room_left >= fraction * width and rng.random() < 0.5):
                fraction = -fraction
            return "scroll", {"fraction": round(fraction, 6)}
        if choice < 0.7:                        # zoom by two, in or out
            factor = rng.choice((2.0, 0.5))
            if width > 0.0045 * duration:
                factor = 2.0
            elif width < 0.001 * duration:
                factor = 0.5
            center = (view_start + view_end) // 2
            if factor == 0.5 and (center - width < self.begin
                                  or center + width > self.end):
                factor = 2.0
            return "zoom", {"factor": factor}
        share = self._deep_share()
        span = self._span(share)
        start = rng.randrange(self.begin, self.end - span)
        return "goto", {"start": start, "end": start + span}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, samples, rss_mb):
    """The end-to-end metric table of one untraced pass."""
    out = {"setup_s": metric(setup_s, "s")}
    for name, value in samples.metrics().items():
        out[name] = metric(value, "ms")
    out["peak_rss_mb"] = metric(rss_mb, "MB")
    return out


def per_layer(stats, events, pool=None, client=None, late_ms=(),
              untraced=None, traced=None):
    """The per-layer metric table from the traced pass.

    ``stats`` is :func:`tracing.layer_stats` output; ``events`` the
    events per trace file (for sidecar bytes per event); ``pool`` the
    service's pool counters; ``client`` a list of
    ``(endpoint, roundtrip_ms, reply_bytes)`` measured by the load
    generator; ``late_ms`` how late each request left the generator;
    ``untraced``/``traced`` the two passes' end-to-end tables, whose
    difference is the tracing overhead.
    """
    def calls(name, **match):
        return [record for record in stats.get(name, ())
                if all(record[2].get(k) == v for k, v in match.items())]

    def med(records, index=0):
        return median([record[index] for record in records])

    out = {
        "trace_format.parse_s":
            metric(med(calls("trace_format.parse"), 1) / 1e3, "s"),
        "trace_format.write_cache_s":
            metric(med(calls("trace_format.write_cache")) / 1e3, "s"),
        "trace_format.sidecar_bytes_per_event":
            metric(median([r[2]["bytes"] for r in
                           calls("trace_format.write_cache")]) / events,
                   "B/event"),
        "trace_format.load_cache_ms":
            metric(med(calls("trace_format.load_cache", error=None)),
                   "ms"),
        "service.pool.entry_ms":
            metric(med(calls("service.pool.entry")), "ms"),
    }
    pool = pool or {"hits": 0, "misses": 0, "evictions": 0}
    lookups = pool["hits"] + pool["misses"]
    out["service.pool.hit_ratio"] = metric(
        pool["hits"] / lookups if lookups else 0.0, "ratio")
    out["service.pool.evictions"] = metric(pool["evictions"], "count")
    for depth in ("fit", "zoom"):
        out["core.interval_report_ms." + depth] = metric(
            med(calls("core.interval_report", depth=depth)), "ms")
    for mode in MODES:
        for depth in ("fit", "zoom"):
            frames = calls("session.render_frame", mode=mode, depth=depth)
            out["render.frame_ms.{}.{}".format(mode, depth)] = metric(
                med(frames), "ms")
            out["render.draw_calls.{}.{}".format(mode, depth)] = metric(
                median([r[2]["draw_calls"] for r in frames]), "count")
    out["render.png_ms"] = metric(med(calls("render.png")), "ms")
    out["render.ascii_ms"] = metric(med(calls("render.ascii")), "ms")
    out["session.navigate_ms"] = metric(med(calls("session.navigate")),
                                        "ms")
    client = client or []
    for endpoint in ENDPOINTS:
        handled = calls("service.handle", endpoint=endpoint)
        trips = [row for row in client if row[0] == endpoint]
        out["service.handle_ms." + endpoint] = metric(med(handled), "ms")
        out["service.roundtrip_ms." + endpoint] = metric(
            median([row[1] for row in trips]), "ms")
        out["service.reply_bytes." + endpoint] = metric(
            median([row[2] for row in trips]), "B")
    handled = calls("service.handle")
    # Means add up where medians do not: mean(roundtrip - handle) is
    # mean(roundtrip) - mean(handle) without pairing the two sides.
    mean_trip = (statistics.fmean(row[1] for row in client)
                 if client else 0.0)
    mean_handle = (statistics.fmean(r[0] for r in handled)
                   if handled else 0.0)
    out["service.transport_ms"] = metric(
        mean_trip - mean_handle if client else 0.0, "ms")
    waited = [r for r in handled
              if r[2]["endpoint"] in ("navigate", "render", "stats")]
    out["service.lock_wait_ms"] = metric(
        statistics.fmean(r[1] for r in waited) if waited else 0.0, "ms")
    out["analysis.diff_traces_ms"] = metric(
        med(calls("analysis.diff_traces")), "ms")
    out["service.generator_late_ms_p90"] = metric(
        percentile(list(late_ms), 90), "ms")
    for name in ("request_ms_p50", "frame_ms_p50"):
        base = untraced[name]["value"]
        out["tracing.overhead_pct." + name[:-4]] = metric(
            100.0 * (traced[name]["value"] - base) / base if base else 0.0,
            "%")
    return out


def result(correct, counts, metrics):
    """The benchmark's final JSON line."""
    return {"correct": bool(correct), "attempted": counts.attempted,
            "failed": counts.failed, "metrics": metrics}


def report(label, payload):
    """One human-readable report line (not the final result)."""
    print("# {}: {}".format(label, json.dumps(payload, sort_keys=True)),
          flush=True)
