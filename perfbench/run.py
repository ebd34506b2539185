"""The repository benchmark: ``explore``, ``serve`` and ``triage``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, untraced then with spans
recorded around every layer's public entry points, and reports the
per-layer metrics plus the tracing overhead (the difference between
the two passes).  The last stdout line is the JSON result; earlier
lines starting with ``#`` report operation counts and sample counts.
``--scale tiny`` shrinks every input for the benchmark's own tests.

``perfbench/README.md`` explains the workloads and which end-to-end
metric each per-layer metric should move.
"""

import argparse
import glob
import importlib
import json
import os
import shutil
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


class Context:
    """One run's arguments plus its private work directory."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.workdir = os.path.join(
            common.ROOT, ".perfbench-work",
            "{}-{}-{}".format(args.workload, args.seed, os.getpid()))
        os.makedirs(self.workdir)
        self.phases = {}
        self._mark = time.perf_counter()

    def mark(self, phase):
        """Add the wall time since the previous mark to ``phase``."""
        now = time.perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + now - self._mark
        self._mark = now

    def spans_path(self, name):
        """Where a traced child writes its spans (``None`` untraced)."""
        if not self.trace:
            return None
        return os.path.join(self.workdir, name + ".spans.json")

    def load_spans(self):
        """The span lists every traced child has written."""
        spans = []
        for path in sorted(glob.glob(os.path.join(self.workdir,
                                                  "*.spans.json"))):
            with open(path) as handle:
                spans.append([tuple(span) for span in json.load(handle)])
        return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore", "serve", "triage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        sys.exit("perfbench: the program's sources are not at "
                 + common.SRC)
    sys.path.insert(0, common.SRC)
    # A terminated run still stops its child processes and removes its
    # inputs: the workloads release them in ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(1))
    workload = importlib.import_module(args.workload)
    ctx = Context(args)
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    common.report("phase seconds", ctx.phases)
    print(json.dumps(outcome), flush=True)


if __name__ == "__main__":
    main()
