"""Shared fixtures for the per-figure benchmarks.

Each bench regenerates one figure/table of the paper's evaluation:
the traces behind them are simulated once per session here, at the
scale selected by ``REPRO_SCALE`` (default ``default``; use ``small``
for quick runs or ``paper`` for full-size — slow in pure Python).

Every bench writes its reproduced data series (and the paper's values
for comparison) to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

from repro.analysis import experiments

# Benchmarks record machine-readable timings through tools/bench_json.py
# (the perf trajectory uploaded by CI).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "tools"))


def pytest_addoption(parser):
    parser.addoption(
        "--self-test", action="store_true", default=False,
        help="Exercise every bench body quickly: pin the workload "
             "scale to 'small' and disable benchmark timing.  This is "
             "the CI smoke path that keeps benchmark code from "
             "rotting.")


def pytest_configure(config):
    if config.getoption("--self-test"):
        # Equivalent to --benchmark-disable: the benchmark fixture
        # calls the target once without timing rounds.
        config.option.benchmark_disable = True


@pytest.fixture(scope="session")
def scale(request):
    if request.config.getoption("--self-test"):
        return "small"
    return os.environ.get("REPRO_SCALE", "default")


@pytest.fixture(scope="session")
def seidel_opt(scale):
    """Optimized seidel run: (SimResult, Trace)."""
    return experiments.seidel_trace(optimized=True, scale=scale, seed=1)


@pytest.fixture(scope="session")
def seidel_nonopt(scale):
    """Non-optimized seidel run: (SimResult, Trace)."""
    return experiments.seidel_trace(optimized=False, scale=scale, seed=1)


@pytest.fixture(scope="session")
def kmeans_baseline(scale):
    """k-means with the conditional-update inner loop (the anomaly)."""
    return experiments.kmeans_trace(scale=scale, block_size=10_000,
                                    seed=2)


@pytest.fixture(scope="session")
def kmeans_fixed(scale):
    """k-means after the paper's branch optimization."""
    return experiments.kmeans_trace(scale=scale, block_size=10_000,
                                    optimize_branches=True, seed=2)
