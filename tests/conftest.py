import os
import tracemalloc

import pytest


def _allow_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def one_cpu(monkeypatch):
    """`fork_map` runs every item inline, so calls counted in this process see every fit."""
    _allow_cpus(monkeypatch, 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """`fork_map` forks two workers, whatever this machine's affinity mask."""
    _allow_cpus(monkeypatch, 2)


def _traced_peak(fn, rows: int, cols: int):
    """`fn()`'s result and its tracemalloc peak, in rows x cols float64 arrays."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (rows * cols * 8)


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, rows, cols)`: run `fn` under tracemalloc, return (result, peak in arrays)."""
    return _traced_peak
