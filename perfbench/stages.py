"""Child processes for the untraced run, output parsers and machine info.

Each stage runs as its own process, one at a time. Its peak RSS comes from
`os.wait4` on that child alone: `RUSAGE_CHILDREN` keeps the highest value
over every child ever reaped, so it cannot tell stages apart.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

STAGE_TIMEOUT_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    """The environment of every child: `src` on PYTHONPATH, BLAS capped at nproc."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


@dataclass
class StageRun:
    name: str
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_stage(name: str, argv: list[str], root: Path, logs: Path) -> StageRun:
    """Run one child to completion; wall time spans process start to reaping."""
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / f"{name}.stdout", logs / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=root, env=child_env(root), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(name=name, exit_code=proc.returncode, wall_s=wall,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
                    stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                    stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def psp_argv(*args) -> list:
    return [sys.executable, "-m", "psp.cli", *args]


# ---------------------------------------------------------------------------
# parsers for what the CLI prints and writes


def parse_metric_line(line: str) -> tuple[str, int, str, int, float]:
    """The 5-field stdout TSV `run_id seed task shots accuracy`."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise ValueError(f"metric line needs 5 tab-separated fields, got {len(parts)}: {line!r}")
    run_id, seed, task, shots, acc = parts
    if task not in ("node", "graph"):
        raise ValueError(f"metric line task must be node or graph, got {task!r}")
    accuracy = float(acc)
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy {accuracy} outside [0, 1]")
    return run_id, int(seed), task, int(shots), accuracy


def parse_summary_line(line: str) -> tuple[str, float, float]:
    """`summary  run_id  mean  std` from `psp sweep`."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 4 or parts[0] != "summary":
        raise ValueError(f"not a summary line: {line!r}")
    mean, std = float(parts[2]), float(parts[3])
    if not (0.0 <= mean <= 1.0 and std >= 0.0):
        raise ValueError(f"summary values out of range: {line!r}")
    return parts[1], mean, std


def parse_selected_line(line: str) -> dict[str, float]:
    """`selected  lr=..  wd=..  dropout=..` from `psp sweep`."""
    parts = line.rstrip("\n").split("\t")
    if parts[0] != "selected":
        raise ValueError(f"not a selected line: {line!r}")
    fields = dict(p.split("=", 1) for p in parts[1:])
    if set(fields) != {"lr", "wd", "dropout"}:
        raise ValueError(f"selected line needs lr, wd and dropout: {line!r}")
    return {k: float(v) for k, v in fields.items()}


def parse_sweep_stdout(text: str) -> tuple[dict, list[float], float]:
    """The selected config, per-seed test accuracies and the summary mean."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"sweep printed {len(lines)} lines, needs selected, metrics and summary")
    selected = parse_selected_line(lines[0])
    _, mean, _ = parse_summary_line(lines[-1])
    accs = [parse_metric_line(ln)[4] for ln in lines[1:-1]]
    if not math.isclose(mean, sum(accs) / len(accs), rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"summary mean {mean} is not the mean of {accs}")
    return selected, accs, mean


def read_loss_log(path) -> list[float]:
    """`epoch<TAB>loss` lines; epochs count up from 0 and every loss is finite."""
    losses = []
    for expected, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        epoch, value = line.split("\t")
        if int(epoch) != expected:
            raise ValueError(f"{path}: epoch {epoch} where {expected} was expected")
        loss = float(value)
        if not math.isfinite(loss):
            raise ValueError(f"{path}: non-finite loss {value} at epoch {epoch}")
        losses.append(loss)
    return losses


# ---------------------------------------------------------------------------
# machine info recorded with every result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from `.git` files; "unknown" outside a git checkout."""
    head_path = root / ".git" / "HEAD"
    if not head_path.is_file():
        return "unknown"
    head = head_path.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = root / ".git" / ref
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return "unknown"


def machine_info(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": nproc(),
        "git_sha": git_sha(root),
    }
