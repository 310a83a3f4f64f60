import os
import subprocess
import sys
import time

import pytest

from psp.parallel import fork_map


def pid_and_square(x):
    return os.getpid(), x * x


def early_items_last(x):
    time.sleep(0.01 * (6 - x))  # later items finish first
    return pid_and_square(x)


def refuse_two(x):
    if x == 2:
        raise ValueError(f"item {x} refused")
    return x


def refuse_fork():
    raise AssertionError("a process was started")


def exit_on_three(x):
    if x == 3:
        os._exit(1)
    return x


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_two_workers_return_results_in_item_order(two_cpus):
    results = list(fork_map(early_items_last, range(6)))
    assert [square for _, square in results] == [x * x for x in range(6)]
    assert len({pid for pid, _ in results}) == 2
    assert os.getpid() not in {pid for pid, _ in results}


def test_a_worker_exception_is_raised_in_the_parent(two_cpus):
    with pytest.raises(ValueError, match="item 2 refused"):
        list(fork_map(refuse_two, range(4)))


def test_a_worker_that_dies_is_reported_at_its_item(two_cpus):
    results = fork_map(exit_on_three, range(6))
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(RuntimeError, match="item 3 exited without its result"):
        next(results)


def test_workers_are_reaped_when_the_results_are_abandoned(two_cpus):
    results = fork_map(early_items_last, range(6))
    next(results)
    results.close()
    with pytest.raises(ChildProcessError):  # no child of this process is left, zombie or not
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("setting", ["one allowed cpu", "no affinity call, one cpu", "one item"])
def test_runs_inline_without_a_second_worker(monkeypatch, setting):
    items = [3] if setting == "one item" else range(4)
    if setting == "one allowed cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif setting == "no affinity call, one cpu":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert list(fork_map(pid_and_square, items)) == [(os.getpid(), x * x) for x in items]


def test_runs_inline_where_fork_is_unavailable(two_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(fork_map(pid_and_square, range(4))) == [(os.getpid(), x * x) for x in range(4)]


def test_one_task_reads_and_writes_without_multiprocessing(tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "import psp.cli\n"
        "from psp.data import _read_table, _write_table\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by psp.cli'\n"
        "path = Path(sys.argv[1])\n"
        "_write_table(path, np.arange(12.0).reshape(4, 3))\n"
        "assert _read_table(path, float, '\\t')[0].shape == (4, 3)\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by one-task table IO'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.tsv")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
