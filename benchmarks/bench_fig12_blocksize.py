"""Fig. 12 — k-means execution time as a function of block size.

Paper (40.96M points, 10 dims, 11 clusters, 64 cores): execution time
is high for very large blocks (too few tasks: 14.85s at 1.28M points
per block) and for very small blocks (task management overhead: 7.16s
at 2.5K), with a minimum of 6.22s at 10K points per block.

The sweep keeps the paper's block *counts* (m = points/block_size from
32 to 16384) on a scaled-down point set, and reports execution-time
ratios relative to the sweep minimum next to the paper's ratios.

Mapping: docs/paper-mapping.md.
"""


import pytest

from figutils import write_result
from repro.analysis import experiments

PAPER_SECONDS = {32: 14.85, 64: 8.20, 128: 8.06, 256: 7.89, 512: 7.49,
                 1024: 6.39, 2048: 6.25, 4096: 6.22, 8192: 6.33,
                 16384: 7.16}


@pytest.fixture(scope="module")
def sweep(scale):
    machine = experiments.kmeans_machine(scale)
    points = experiments.preset(scale).kmeans_points
    iterations = experiments.preset(scale).kmeans_iterations
    block_counts = sorted(PAPER_SECONDS)
    if scale == "small":
        block_counts = block_counts[:7]   # cap the task count
    makespans = {}
    for m in block_counts:
        makespans[m] = experiments.kmeans_makespan(
            max(points // m, 1), machine=machine, iterations=iterations,
            num_points=points, seed=1)
    return points, makespans


def test_fig12_blocksize_sweep(benchmark, sweep, scale):
    points, makespans = sweep
    # Benchmark one representative mid-size configuration.
    benchmark(experiments.kmeans_makespan, points // 512,
              iterations=2, num_points=points, seed=1)

    minimum = min(makespans.values())
    ratios = {m: makespan / minimum for m, makespan in makespans.items()}
    block_counts = sorted(makespans)
    best = min(ratios, key=ratios.get)

    if scale == "small":
        # The U-shape flattens on tiny inputs; only its direction
        # survives: the extremes never beat an interior block count.
        assert ratios[block_counts[0]] > 1.0
        assert best > block_counts[0]
    else:
        # Shape assertions: U-shape with both extremes penalized.
        assert ratios[block_counts[0]] > 1.5      # too few blocks
        assert ratios[block_counts[-1]] > 1.05    # overhead-bound
        assert block_counts[0] < best < block_counts[-1]

    paper_min = min(PAPER_SECONDS.values())
    lines = [
        "Fig. 12: k-means execution time vs block size "
        "({} points, {} cores)".format(
            points, experiments.kmeans_machine(scale).num_cores),
        "m=blocks  block_size  cycles        ratio   paper_ratio",
    ]
    for m in block_counts:
        lines.append("{:8d}  {:10d}  {:12d}  {:5.2f}   {:5.2f}".format(
            m, points // m, makespans[m], ratios[m],
            PAPER_SECONDS[m] / paper_min))
    lines.append("paper: min 6.22s at block size 10K (m=4096); "
                 "measured min at m={}".format(best))
    write_result("fig12_blocksize", lines)
