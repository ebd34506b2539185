#!/usr/bin/env python3
"""The Section IV walkthrough: NUMA locality, non-optimized vs optimized.

Runs seidel twice — once with the NUMA-oblivious run-time (random
work-stealing + random page placement) and once with the NUMA-aware one
(locality-first scheduling + first-touch placement) — and reproduces
the paper's locality views:

* NUMA read/write maps and the NUMA heatmap (Fig. 14), written as PPM
  images;
* the communication incidence matrix (Fig. 15), printed as ASCII;
* the end-to-end speedup (paper: 3.05x on the 24-node UV2000).

Run:  python examples/seidel_numa_study.py [output-directory]
"""

import sys

from repro.core import (average_remote_fraction, communication_matrix,
                        locality_fraction)
from repro.analysis.experiments import seidel_trace
from repro.render import (NumaHeatmapMode, NumaMode, TimelineView,
                          matrix_to_text, render_timeline)


def render_views(trace, label, output_dir):
    view = TimelineView.fit(trace, width=1024,
                            height=4 * trace.num_cores)
    for mode in (NumaMode("read"), NumaMode("write"), NumaHeatmapMode()):
        framebuffer = render_timeline(trace, mode, view)
        path = "{}/seidel_{}_{}.ppm".format(output_dir, label, mode.name)
        framebuffer.save_ppm(path)
        print("  wrote", path)


def main(output_dir="."):
    runs = {}
    for label, optimized in (("nonopt", False), ("opt", True)):
        print("running seidel,", "optimized" if optimized
              else "non-optimized", "run-time ...")
        result, trace = seidel_trace(optimized=optimized, seed=7,
                                     collect_rusage=False)
        runs[label] = (result, trace)
        render_views(trace, label, output_dir)

    non_result, non_trace = runs["nonopt"]
    opt_result, opt_trace = runs["opt"]

    print("\ncommunication incidence matrix, non-optimized "
          "(fraction of bytes):")
    print(matrix_to_text(communication_matrix(non_trace)))
    print("\ncommunication incidence matrix, optimized:")
    print(matrix_to_text(communication_matrix(opt_trace)))

    print("\nlocal-access fraction: {:.1%} -> {:.1%}".format(
        locality_fraction(non_trace), locality_fraction(opt_trace)))
    print("remote-access fraction: {:.1%} -> {:.1%}".format(
        average_remote_fraction(non_trace),
        average_remote_fraction(opt_trace)))
    print("execution time: {:.2f} -> {:.2f} Mcycles  "
          "(speedup {:.2f}x; paper: 3.05x)".format(
              non_result.makespan / 1e6, opt_result.makespan / 1e6,
              non_result.makespan / opt_result.makespan))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
