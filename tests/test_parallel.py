import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from psp.parallel import blas_threads, fork_map

from oracles import Tape, Tensor, add, backward, mul


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


def pids_of_a_nested_map(x):
    return os.getpid(), [pid for pid, _ in fork_map(pid_and_square, range(3))]


def named_tensor(x):
    return Tensor([[x]], requires_grad=True, name=f"t{x}")


def exit_on_three(x):
    if x == 3:
        os._exit(1)
    return x


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


def test_a_nested_call_runs_inline_in_its_worker(two_cpus):
    results = list(fork_map(pids_of_a_nested_map, range(2)))
    assert len({pid for pid, _ in results} | {os.getpid()}) == 3
    for pid, nested in results:
        assert nested == [pid] * 3


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "forked"])
def test_every_item_runs_with_one_blas_thread(monkeypatch, cpus):
    before = blas_threads()
    if before is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        # numpy's own OpenBLAS build must be found: a renamed symbol fails here
        assert blas != "scipy-openblas", "numpy links scipy-openblas, but its thread count was not found"
        pytest.skip(f"no BLAS thread count to read from {blas}")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    blas_threads(2)  # so that a missing cap shows even on one core
    try:
        assert list(fork_map(lambda _: blas_threads(), range(4))) == [1] * 4
        assert blas_threads() == 2  # restored once the map ends
    finally:
        blas_threads(before)


def test_tensors_from_workers_get_their_own_gradients(two_cpus):
    """Tensors piped back from workers and tensors made here meet in one
    backward sweep, and each leaf gets its own gradient; a pickle round trip
    keeps a tensor's data, requires_grad and name."""
    returned = list(fork_map(named_tensor, range(2)))
    assert [(t.item(), t.requires_grad, t.name) for t in returned] == [
        (0.0, True, "t0"), (1.0, True, "t1")]
    leaves = returned + [named_tensor(x) for x in range(2)]
    with Tape() as tape:
        loss = mul(leaves[0], Tensor([[1.0]]))
        for k, t in enumerate(leaves[1:], start=2):
            loss = add(loss, mul(t, Tensor([[float(k)]])))
    grads = backward(tape, loss)
    assert [grads[t].item() for t in leaves] == [1.0, 2.0, 3.0, 4.0]
    back = pickle.loads(pickle.dumps(leaves[3], pickle.HIGHEST_PROTOCOL))
    assert [(t.item(), t.requires_grad, t.name) for t in (back, leaves[3])] == [
        (1.0, True, "t1")] * 2


def test_runs_inline_where_fork_is_unavailable(two_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(fork_map(pid_and_square, range(4))) == [(os.getpid(), x * x) for x in range(4)]


def test_one_task_reads_and_writes_without_multiprocessing(tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "import psp.cli\n"
        "from psp.data import _read_table, write_table\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by psp.cli'\n"
        "path = Path(sys.argv[1])\n"
        "write_table(path, np.arange(12.0).reshape(4, 3))\n"
        "assert _read_table(path, float, '\\t')[0].shape == (4, 3)\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by one-task table IO'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.tsv")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
