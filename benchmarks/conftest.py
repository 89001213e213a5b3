"""Benchmark-suite configuration.

Each ``bench_*.py`` file regenerates one table or figure of the paper.
``pytest benchmarks/ --benchmark-only`` runs everything at the ``quick``
scale and prints the paper-shaped rows; set ``REPRO_SCALE=paper`` for the
published workload sizes (slow: hours on a pure-Python simulator).

pytest-benchmark is used in pedantic mode with a single round — each
"iteration" is a full multi-run experiment, and the interesting output is
the printed table, not the wall-clock of the harness itself.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.presets import get_scale
from repro.harness.runner import SweepRunner


def pytest_configure(config):
    config.addinivalue_line("markers", "figure(name): which paper figure a bench regenerates")


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_SCALE", "quick"))


@pytest.fixture(scope="session")
def runner():
    """Sweep runner for the bench suite.

    Parallelism uses all host cores; the
    on-disk result cache is force-disabled so the timed numbers always
    measure simulation, never a cache read.
    """
    return SweepRunner(use_cache=False)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
