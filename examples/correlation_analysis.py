#!/usr/bin/env python3
"""The Section V walkthrough: correlating performance indicators.

Reproduces the branch-misprediction investigation in k-means:

1. the duration histogram of the main computation tasks shows several
   peaks although the workloads are identical (Fig. 16);
2. per-task attribution of the branch-misprediction counter (sampled
   at task boundaries) and export to CSV for external analysis;
3. least-squares regression of duration on misprediction rate — the
   paper reports a coefficient of determination of 0.83 (Fig. 19);
4. the fix (unconditional update, check hoisted out of the loop)
   collapses both the mean and the spread.

Run:  python examples/correlation_analysis.py [output-directory]
"""

import sys

from repro.core import (DurationFilter, TaskTypeFilter,
                        duration_vs_counter_rate, export_task_table,
                        task_duration_histogram, task_duration_stats)
from repro.analysis.experiments import kmeans_trace
from repro.render import histogram_to_text


def main(output_dir="."):
    compute = TaskTypeFilter("kmeans_distance")
    no_outliers = compute & DurationFilter(minimum=1_000_000)

    print("running k-means (conditional update in the inner loop) ...")
    __, baseline = kmeans_trace(block_size=10_000, seed=3)

    # 1. Duration histogram of the computation tasks (Fig. 16).
    edges, fractions = task_duration_histogram(baseline, bins=20,
                                               task_filter=compute)
    print("\nduration histogram of kmeans_distance tasks:")
    print(histogram_to_text(edges, fractions))

    # 2. Export per-task duration + counter increases (the paper feeds
    #    this file to SciPy; we do the same below).
    csv_path = "{}/kmeans_tasks.csv".format(output_dir)
    rows = export_task_table(baseline, csv_path,
                             counters=("branch_mispredictions",
                                       "cache_misses"),
                             task_filter=no_outliers)
    print("\nexported {} task rows to {}".format(rows, csv_path))

    # 3. Regression of duration on misprediction rate (Fig. 19).
    rates, durations, regression = duration_vs_counter_rate(
        baseline, "branch_mispredictions", no_outliers)
    print("regression:", regression.describe())
    print("(paper: R^2 = 0.83)")

    # 4. Apply the branch optimization and compare.
    print("\nrunning k-means with the unconditional-update fix ...")
    __, fixed = kmeans_trace(block_size=10_000, optimize_branches=True,
                             seed=3)
    base_mean, base_std = task_duration_stats(baseline, no_outliers)
    fix_mean, fix_std = task_duration_stats(fixed, no_outliers)
    print("mean task duration: {:.2f}M -> {:.2f}M cycles "
          "(paper: 9.76M -> 7.73M)".format(base_mean / 1e6,
                                           fix_mean / 1e6))
    print("standard deviation: {:.2f}M -> {:.0f}K cycles "
          "(paper: 1.18M -> 335K)".format(base_std / 1e6,
                                          fix_std / 1e3))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
