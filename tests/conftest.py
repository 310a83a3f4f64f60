import os

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
