"""Benchmark-suite configuration: the round bound below for the
pytest-benchmark speed gates (``bench_*.py``); ``e2e/`` is the
end-to-end benchmark."""

import pytest


def pytest_collection_modifyitems(items):
    """Bound benchmark rounds: the simulation-backed benchmarks run for
    tens of seconds per call, so the default 5-round policy would make
    the suite needlessly slow without improving the timing signal."""
    for item in items:
        item.add_marker(
            pytest.mark.benchmark(min_rounds=1, max_time=2.0, warmup=False)
        )
