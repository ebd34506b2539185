"""Child processes of the benchmark.

``child.py gen PATH EVENTS SEED [PATH EVENTS SEED ...]``
    Write synthetic traces (16 cores: 4 nodes x 4 cores).
``child.py setup SPANS PATH [PATH ...]``
    Open each trace through the sidecar cache the way a first open
    does (parse, then write the ``.ostc``); print the seconds taken.
    ``SPANS`` is ``-`` or a file to write the spans of a traced run
    to.  The parsed stores stay in memory: the process then answers
    reference requests, one JSON list per stdin line (see
    :func:`references`), until stdin closes.
``child.py server ROOT SPANS``
    Serve the trace service on an ephemeral port confined to ROOT;
    print its URL, serve until SIGTERM, then write the spans.
"""

import json
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def traced(spans_path):
    """A tracer with the shims installed, or ``None`` when untraced."""
    if spans_path == "-":
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def gen(args):
    from repro.trace_format import write_synthetic_trace
    for path, events, seed in zip(args[0::3], args[1::3], args[2::3]):
        write_synthetic_trace(path, events=int(events), nodes=4,
                              cores_per_node=4, seed=int(seed))
    print(json.dumps({"ok": True}))


def references(stores, requests):
    """Reference outputs from this process's parsed stores.

    Each request is ``{"path", "start", "end", "stats", "modes"}``;
    the reply carries the statistics panel of that view (``null``
    unless ``stats``) and the PNG digest of each of ``modes`` there.
    """
    from common import HEIGHT, WIDTH, digest
    from repro.session import AnalysisSession
    out = []
    for request in requests:
        session = AnalysisSession(stores[request["path"]], width=WIDTH,
                                  height=HEIGHT)
        session.goto(request["start"], request["end"])
        stats = session.statistics() if request["stats"] else None
        out.append({"stats": stats, "png": {
            mode: digest(session.render_frame(mode).png_bytes())
            for mode in request["modes"]}})
    return out


def setup(args):
    from repro.trace_format import read_trace
    tracer = traced(args[0])
    stores = {}
    started = time.perf_counter()
    for path in args[1:]:
        stores[path] = read_trace(path, cache=True)
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.dump(args[0])
    print(json.dumps({"seconds": seconds}), flush=True)
    for line in sys.stdin:
        print(json.dumps(references(stores, json.loads(line))),
              flush=True)


def server(args):
    from repro.service import create_server
    tracer = traced(args[1])
    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *__: stopping.set())
    httpd = create_server(port=0, root=args[0])
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    print(httpd.url, flush=True)
    stopping.wait()
    httpd.shutdown()
    httpd.server_close()
    if tracer is not None:
        tracer.dump(args[1])


if __name__ == "__main__":
    {"gen": gen, "setup": setup, "server": server}[sys.argv[1]](
        sys.argv[2:])
