"""Tests for per-task NUMA locality analysis (Section IV)."""

import numpy as np
import pytest

from repro.core import (average_remote_fraction, task_node_bytes,
                        task_predominant_nodes, task_remote_fractions)


class TestTaskNodeBytes:
    def test_shape(self, seidel_trace_small):
        trace = seidel_trace_small
        matrix = task_node_bytes(trace)
        assert matrix.shape == (len(trace.tasks),
                                trace.topology.num_nodes)

    def test_read_plus_write_equals_any(self, seidel_trace_small):
        trace = seidel_trace_small
        reads = task_node_bytes(trace, "read")
        writes = task_node_bytes(trace, "write")
        combined = task_node_bytes(trace, "any")
        assert np.allclose(reads + writes, combined)

    def test_totals_match_access_sizes(self, seidel_trace_small):
        trace = seidel_trace_small
        matrix = task_node_bytes(trace, "any")
        accesses = trace.accesses
        nodes = trace.nodes_of_addresses(accesses["address"])
        expected = accesses["size"][nodes >= 0].sum()
        assert matrix.sum() == pytest.approx(float(expected))


    def test_accesses_outside_every_region(self):
        """Accesses that map to no NUMA node give all-zero tallies
        (np.bincount of nothing is int64); the remote fractions and the
        NUMA heatmap still work."""
        from repro.core import TopologyInfo, TraceBuilder
        from repro.render import NumaHeatmapMode, render_timeline
        builder = TraceBuilder(TopologyInfo(2, 1))
        builder.task_execution(0, 0, 0, 0, 100)
        builder.memory_access(0, 0, address=0x1234, size=64,
                              is_write=False, timestamp=10)
        trace = builder.build()
        assert (task_node_bytes(trace, "any") == 0).all()
        assert list(task_remote_fractions(trace)) == [0.0]
        assert render_timeline(trace, NumaHeatmapMode()).rect_calls == 1


class TestPredominantNodes:
    def test_aligned_with_task_table(self, seidel_trace_small):
        trace = seidel_trace_small
        nodes = task_predominant_nodes(trace, "read")
        assert len(nodes) == len(trace.tasks)

    def test_init_tasks_have_no_read_node(self, seidel_trace_small):
        """Initialization tasks only write; their read map slot is -1
        (rendered as background in the NUMA read map)."""
        trace = seidel_trace_small
        nodes = task_predominant_nodes(trace, "read")
        type_ids = trace.tasks.columns["type_id"]
        init_type = next(info.type_id for info in trace.task_types
                         if info.name == "seidel_init")
        assert (nodes[type_ids == init_type] == -1).all()

    def test_write_nodes_valid(self, seidel_trace_small):
        trace = seidel_trace_small
        nodes = task_predominant_nodes(trace, "write")
        assert (nodes >= 0).all()
        assert (nodes < trace.topology.num_nodes).all()

    def test_predominant_matches_argmax(self, seidel_trace_small):
        trace = seidel_trace_small
        matrix = task_node_bytes(trace, "read")
        nodes = task_predominant_nodes(trace, "read")
        for row in range(0, len(nodes), 7):
            if matrix[row].sum() > 0:
                assert nodes[row] == matrix[row].argmax()


class TestRemoteFractions:
    def test_in_unit_interval(self, seidel_trace_small):
        fractions = task_remote_fractions(seidel_trace_small)
        assert (fractions >= 0).all()
        assert (fractions <= 1).all()

    def test_average_weighted_by_traffic(self, seidel_trace_small):
        trace = seidel_trace_small
        value = average_remote_fraction(trace)
        from repro.core import locality_fraction
        assert value == pytest.approx(1.0 - locality_fraction(trace))

    def test_interval_restriction_changes_population(
            self, seidel_trace_small):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        early = average_remote_fraction(trace, end=mid)
        assert 0.0 <= early <= 1.0


class TestOptimizedVsNonOptimized:
    """The Section IV claim at unit-test scale: the NUMA-aware run-time
    yields dramatically better locality than the NUMA-oblivious one."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.analysis.experiments import seidel_trace
        from repro.workloads import SeidelConfig
        config = SeidelConfig(blocks=8, block_dim=16, steps=4)
        from repro.runtime import Machine
        machine = Machine(4, 4)
        __, non_opt = seidel_trace(optimized=False, machine=machine,
                                   config=config, collect_rusage=False,
                                   seed=1)
        __, opt = seidel_trace(optimized=True, machine=machine,
                               config=config, collect_rusage=False,
                               seed=1)
        return non_opt, opt

    def test_locality_gap(self, pair):
        from repro.core import locality_fraction
        non_opt, opt = pair
        assert locality_fraction(opt) > 0.75
        assert locality_fraction(non_opt) < 0.5

    def test_comm_matrix_diagonal_dominance(self, pair):
        from repro.core import communication_matrix
        __, opt = pair
        matrix = communication_matrix(opt)
        assert np.trace(matrix) > 0.75

    def test_non_optimized_matrix_spread(self, pair):
        from repro.core import communication_matrix
        non_opt, __ = pair
        matrix = communication_matrix(non_opt)
        # Off-diagonal traffic dominates: every node talks to others.
        off_diagonal = matrix.sum() - np.trace(matrix)
        assert off_diagonal > 0.5
