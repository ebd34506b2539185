"""Tests for the OpenMP-style frontend and the Paraver round trip
(export, the import path and the CLI ``ingest`` subcommand)."""

import numpy as np
import pytest

from repro.core import graph_from_program, state_time_summary
from repro.runtime import (Machine, RandomStealScheduler, TraceCollector,
                           run_program)
from repro.trace_format import (FormatError, export_paraver,
                                import_paraver)
from repro.workloads import OpenMPProgram, build_fibonacci, \
    build_mergesort


@pytest.fixture
def omp_machine():
    return Machine(2, 4)


class TestOpenMPFrontend:
    def test_depend_in_after_out(self, omp_machine):
        omp = OpenMPProgram(omp_machine)
        producer = omp.task("produce", 100, depend_out=["x"])
        consumer = omp.task("consume", 100, depend_in=["x"])
        omp.finalize()
        assert consumer.dependencies == [producer]

    def test_depend_inout_chains(self, omp_machine):
        omp = OpenMPProgram(omp_machine)
        first = omp.task("init", 100, depend_out=["acc"])
        second = omp.task("add", 100, depend_inout=["acc"])
        third = omp.task("add", 100, depend_inout=["acc"])
        omp.finalize()
        assert second.dependencies == [first]
        assert third.dependencies == [second]

    def test_independent_variables_parallel(self, omp_machine):
        omp = OpenMPProgram(omp_machine)
        a = omp.task("a", 100, depend_out=["x"])
        b = omp.task("b", 100, depend_out=["y"])
        omp.finalize()
        assert a.dependencies == [] and b.dependencies == []

    def test_variable_sizes(self, omp_machine):
        omp = OpenMPProgram(omp_machine, variable_bytes=128)
        region = omp.variable("big", size=10_000)
        assert region.size == 10_000
        assert omp.variable("big") is region
        assert omp.variable("small").size == 128


class TestFibonacci:
    def test_structure_and_execution(self, omp_machine):
        program = build_fibonacci(omp_machine, n=8)
        graph = graph_from_program(program)
        # The combine chain forces depth ~n.
        assert graph.max_depth() >= 5
        collector = TraceCollector(omp_machine)
        result, trace = run_program(
            program, RandomStealScheduler(omp_machine, seed=1),
            collector=collector)
        assert result.tasks_executed == len(program.tasks)

    def test_dynamic_creation_chains(self, omp_machine):
        program = build_fibonacci(omp_machine, n=7)
        created_dynamically = [task for task in program.tasks
                               if task.creator is not None]
        assert len(created_dynamically) > len(program.tasks) // 2

    def test_task_types(self, omp_machine):
        program = build_fibonacci(omp_machine, n=6)
        names = {task_type.name for task_type in program.task_types}
        assert names == {"fib_leaf", "fib_spawn", "fib_combine"}


class TestMergesort:
    def test_structure(self, omp_machine):
        program = build_mergesort(omp_machine, elements=1 << 14,
                                  leaf_elements=1 << 11)
        leaves = [task for task in program.tasks
                  if task.task_type.name == "msort_leaf"]
        merges = [task for task in program.tasks
                  if task.task_type.name == "msort_merge"]
        assert len(leaves) == 8
        assert len(merges) == 7     # a balanced binary merge tree
        assert program.validate_acyclic()

    def test_executes_serial_merge_root_last(self, omp_machine):
        program = build_mergesort(omp_machine, elements=1 << 13,
                                  leaf_elements=1 << 11)
        collector = TraceCollector(omp_machine)
        __, trace = run_program(
            program, RandomStealScheduler(omp_machine, seed=2),
            collector=collector)
        last = max(trace.task_executions(), key=lambda e: e.end)
        assert trace.task_types[last.type_id].name == "msort_merge"


class TestParaverExport:
    def test_export_files(self, seidel_trace_small, tmp_path):
        path = tmp_path / "seidel.prv"
        records = export_paraver(seidel_trace_small, str(path))
        samples = sum(
            len(timestamps) for timestamps, __ in
            seidel_trace_small.counter_series.values())
        assert records == (len(seidel_trace_small.states)
                           + len(seidel_trace_small.tasks)
                           + len(seidel_trace_small.discrete)
                           + len(seidel_trace_small.comm["timestamp"])
                           + samples)
        prv = path.read_text().splitlines()
        assert prv[0].startswith("#Paraver")
        assert len(prv) == records + 1
        pcf = (tmp_path / "seidel.pcf").read_text()
        assert "task execution" in pcf
        assert "seidel_block" in pcf

    def test_records_time_sorted(self, seidel_trace_small, tmp_path):
        path = tmp_path / "sorted.prv"
        export_paraver(seidel_trace_small, str(path))
        times = []
        for line in path.read_text().splitlines()[1:]:
            fields = line.split(":")
            times.append(int(fields[5]))
        assert times == sorted(times)

    def test_state_ids_offset_by_one(self, seidel_trace_small,
                                     tmp_path):
        path = tmp_path / "states.prv"
        export_paraver(seidel_trace_small, str(path))
        state_values = {int(line.split(":")[-1])
                        for line in path.read_text().splitlines()[1:]
                        if line.startswith("1:")}
        assert 0 not in state_values     # 0 is reserved for idle

    def test_requires_prv_suffix(self, seidel_trace_small, tmp_path):
        with pytest.raises(ValueError):
            export_paraver(seidel_trace_small, str(tmp_path / "x.trace"))


class TestParaverImport:
    """The other half of the round trip (the latent gap: the exporter
    shipped for a full PR generation without any importer)."""

    @pytest.fixture(scope="class")
    def round_tripped(self, seidel_trace_small, tmp_path_factory):
        path = tmp_path_factory.mktemp("prv") / "seidel.prv"
        export_paraver(seidel_trace_small, str(path))
        return import_paraver(str(path))

    def test_topology_shape(self, seidel_trace_small, round_tripped):
        assert (round_tripped.topology.num_nodes,
                round_tripped.topology.cores_per_node) == \
            (seidel_trace_small.topology.num_nodes,
             seidel_trace_small.topology.cores_per_node)

    def test_states_exact(self, seidel_trace_small, round_tripped):
        for name, column in seidel_trace_small.states.columns.items():
            assert np.array_equal(column,
                                  round_tripped.states.columns[name])

    def test_tasks_exact(self, seidel_trace_small, round_tripped):
        for name, column in seidel_trace_small.tasks.columns.items():
            assert np.array_equal(column,
                                  round_tripped.tasks.columns[name])

    def test_counters_exact(self, seidel_trace_small, round_tripped):
        assert sorted(round_tripped.counter_series) == \
            sorted(seidel_trace_small.counter_series)
        for key, (times, values) in \
                seidel_trace_small.counter_series.items():
            got_times, got_values = round_tripped.counter_series[key]
            assert np.array_equal(times, got_times)
            assert np.array_equal(values, got_values)
        assert round_tripped.counter_descriptions == \
            seidel_trace_small.counter_descriptions

    def test_statistics_match(self, seidel_trace_small, round_tripped):
        assert state_time_summary(round_tripped) == \
            state_time_summary(seidel_trace_small)
        assert (round_tripped.begin, round_tripped.end) == \
            (seidel_trace_small.begin, seidel_trace_small.end)

    def test_pcf_names_survive(self, seidel_trace_small, round_tripped):
        assert [info.name for info in round_tripped.task_types] == \
            [info.name for info in seidel_trace_small.task_types]

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "bad.prv"
        path.write_text("#Paraver (x):100_ns:1(2):1:1(2:1)\n"
                        "1:not:a:valid:state:record\n")
        with pytest.raises(FormatError):
            import_paraver(str(path))

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "noheader.prv"
        path.write_text("2:1:1:1:1:0:60000001:1\n")
        with pytest.raises(FormatError):
            import_paraver(str(path))

    def test_import_without_pcf(self, seidel_trace_small, tmp_path):
        path = tmp_path / "nopcf.prv"
        export_paraver(seidel_trace_small, str(path))
        (tmp_path / "nopcf.pcf").unlink()
        trace = import_paraver(str(path))
        # Event data intact; names degrade to placeholders.
        assert len(trace.tasks) == len(seidel_trace_small.tasks)


class TestCliIngest:
    @pytest.fixture(scope="class")
    def cli(self):
        import importlib.util
        import pathlib
        cli_path = (pathlib.Path(__file__).parent.parent / "examples"
                    / "aftermath_cli.py")
        spec = importlib.util.spec_from_file_location("aftermath_cli",
                                                      cli_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_ingest_paraver_to_native(self, cli, seidel_trace_small,
                                      tmp_path, capsys):
        from repro.trace_format import read_trace
        prv = tmp_path / "in.prv"
        out = tmp_path / "out.ost"
        export_paraver(seidel_trace_small, str(prv))
        cli.main(["ingest", str(prv), str(out)])
        printed = capsys.readouterr().out
        assert "via paraver source" in printed
        native = read_trace(str(out))
        assert state_time_summary(native) == \
            state_time_summary(seidel_trace_small)

    def test_ingest_forced_format(self, cli, seidel_trace_small,
                                  tmp_path, capsys):
        from repro.trace_format import export_chrome
        source = tmp_path / "in.json"
        out = tmp_path / "out.ost"
        export_chrome(seidel_trace_small, str(source))
        cli.main(["ingest", str(source), str(out), "--format",
                  "chrome"])
        assert "via chrome source" in capsys.readouterr().out

    def test_subcommands_accept_foreign_traces(self, cli,
                                               seidel_trace_small,
                                               tmp_path, capsys):
        prv = tmp_path / "direct.prv"
        export_paraver(seidel_trace_small, str(prv))
        cli.main(["info", str(prv)])
        assert "seidel_block" in capsys.readouterr().out
        cli.main(["report", str(prv)])
        assert "average parallelism" in capsys.readouterr().out
