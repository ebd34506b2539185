#!/usr/bin/env python3
"""Regenerate the golden-trace regression fixtures in ``tests/data/``.

Two small canonical traces — a seidel-like stencil run and a
kmeans-like clustering run — are simulated deterministically, written
as indexed trace files, and their analysis results pinned to JSON.
``tests/test_golden.py`` recomputes the same numbers from the committed
files (and through the mapped sidecar) and fails on any numeric drift.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src python tools/make_golden.py
"""

import json
import pathlib
import sys

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"

GOLDEN_TRACES = ("seidel", "kmeans")
#: Foreign-format fixture files and the registry source each must
#: dispatch to; both pin the same expectations (key "foreign").
FOREIGN_FIXTURES = {"golden_foreign.prv": "paraver",
                    "golden_foreign.json": "chrome"}
HISTOGRAM_BINS = 16


def build_golden_traces():
    """The two canonical traces, simulated deterministically."""
    from repro.runtime import (Machine, NumaAwareScheduler,
                               RandomStealScheduler, TraceCollector,
                               run_program)
    from repro.workloads import (KmeansConfig, SeidelConfig, build_kmeans,
                                 build_seidel)

    machine = Machine(4, 4, name="golden")
    __, seidel = run_program(
        build_seidel(machine, SeidelConfig(blocks=6, block_dim=16,
                                           steps=4)),
        RandomStealScheduler(machine, seed=7),
        collector=TraceCollector(machine))

    machine = Machine(4, 4, name="golden")
    __, kmeans = run_program(
        build_kmeans(machine, KmeansConfig(num_points=64_000,
                                           block_size=4_000,
                                           iterations=3)),
        NumaAwareScheduler(machine, seed=7),
        collector=TraceCollector(machine))
    return {"seidel": seidel, "kmeans": kmeans}


def build_foreign_trace():
    """A small hand-built trace for the foreign-format fixtures.

    Built directly through :class:`TraceBuilder` (no simulator), so the
    exact records are spelled out here.  Deliberately *without* memory
    accesses: the Paraver dialect cannot express them, and both foreign
    files must pin the same analysis numbers.
    """
    from repro.core import TaskTypeInfo, TopologyInfo, TraceBuilder

    topology = TopologyInfo(num_nodes=2, cores_per_node=2,
                            name="foreign")
    builder = TraceBuilder(topology)
    for type_id, name in enumerate(("compute", "reduce")):
        builder.describe_task_type(TaskTypeInfo(
            type_id=type_id, name=name, address=0,
            source_file="", source_line=0))
    cycles = builder.describe_counter("cycles")
    flops = builder.describe_counter("flops", monotone=False)
    task_id = 0
    for core in range(topology.num_cores):
        t = 1_000 * core
        for i in range(12):
            start, end = t, t + 400 + 37 * ((core + i) % 5)
            if i % 3 == 0:
                builder.state_interval(core, i % 6, start, end)
            else:
                builder.task_execution(task_id, task_id % 2, core,
                                       start, end)
                task_id += 1
            builder.counter_sample(core, cycles, start, float(start))
            builder.counter_sample(core, flops, start,
                                   float((i * 7) % 90))
            if i % 4 == 0:
                builder.discrete_event(core, i % 3, start, i)
            if i % 5 == 0:
                builder.comm_event(core,
                                   (core + 1) % topology.num_cores,
                                   start, size=64 * (i + 1),
                                   task_id=task_id - 1)
            t = end + 50
    return builder.build()


def golden_expectations(trace):
    """The pinned analysis results of one trace, as JSON-pure values.

    Every number here must be deterministic given the trace file's
    bytes — the regression test compares with exact equality.
    """
    from repro.core import metrics, statistics

    edges, fractions = statistics.task_duration_histogram(
        trace, bins=HISTOGRAM_BINS)
    mean, std = metrics.task_duration_stats(trace)
    return {
        "counts": {"states": len(trace.states),
                   "tasks": len(trace.tasks)},
        "time_range": [int(trace.begin), int(trace.end)],
        "state_time_summary": {
            str(state): int(cycles)
            for state, cycles in sorted(
                statistics.state_time_summary(trace).items())},
        "average_parallelism": float(
            statistics.average_parallelism(trace)),
        "locality_fraction": float(statistics.locality_fraction(trace)),
        "task_histogram_edges": [float(edge) for edge in edges],
        "task_histogram_fractions": [float(fraction)
                                     for fraction in fractions],
        "comm_matrix": statistics.communication_matrix(
            trace, normalize=False).tolist(),
        "steal_matrix": statistics.steal_matrix(trace).tolist(),
        "task_duration_stats": [float(mean), float(std)],
    }


def main():
    from repro.trace_format import export_chrome, export_paraver, \
        ingest_trace, write_trace

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    expectations = {}
    for name, trace in build_golden_traces().items():
        path = DATA_DIR / "golden_{}.ost".format(name)
        records = write_trace(trace, str(path), index=True)
        expectations[name] = golden_expectations(trace)
        print("wrote {} ({} records, {} bytes)".format(
            path, records, path.stat().st_size))
    foreign = build_foreign_trace()
    export_paraver(foreign, str(DATA_DIR / "golden_foreign.prv"))
    export_chrome(foreign, str(DATA_DIR / "golden_foreign.json"))
    expectations["foreign"] = golden_expectations(foreign)
    for filename in FOREIGN_FIXTURES:
        ingested = golden_expectations(
            ingest_trace(str(DATA_DIR / filename)))
        if ingested != expectations["foreign"]:
            raise SystemExit("{} does not reproduce the pinned "
                             "foreign expectations".format(filename))
        print("wrote {} (ingestion verified)".format(
            DATA_DIR / filename))
    json_path = DATA_DIR / "golden_expectations.json"
    with open(json_path, "w") as stream:
        json.dump(expectations, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print("wrote", json_path)


if __name__ == "__main__":
    sys.exit(main())
