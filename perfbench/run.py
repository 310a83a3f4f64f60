"""The psp benchmark: three workloads run through the `psp` CLI as a user
would, on inputs generated from --seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

--trace 0 runs each stage as its own `python -m psp.cli` process, one at a
time from this script (a closed loop with one client). It repeats the chain
at least 3 times and while another repetition fits in S seconds, and prints
the medians of the end-to-end metrics. --trace 1 drives `psp.cli.run` in
this process on the same inputs: plain, with spans around psp's public
functions, and plain again; it prints the per-layer metrics. Human-readable lines come first; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. Result
files, with the machine info, and the span log go to .perfbench/results.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads, so the cap goes first
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(len(os.sched_getaffinity(0)))

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import loadgraph
import probes
from stages import (StageRun, machine_info, parse_metric_line, parse_sweep_stdout, psp_argv,
                    read_loss_log, run_stage)
from tracing import Tracer, coverage, patched

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_REPETITIONS = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("main_stage_per_s", "1/s"),
              ("second_stage_per_s", "1/s"), ("peak_rss_mb", "MB"))

# workload sizes
PIPELINE_N, PRETRAIN_EPOCHS, TUNE_EPOCHS = 3000, 2, 20
FEWSHOT_N, FEWSHOT_GRAPHS, FEWSHOT_GRAPH_NODES = 300, 60, 5
SETUP_PRETRAIN_EPOCHS, SWEEP_EPOCHS, SWEEP_SEEDS = 10, 10, 2
SWEEP_GRID = ("--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001,0.001",
              "--dropout-grid", "0.2,0.5")
SWEEP_FITS = 2 * 2 * 2 * SWEEP_SEEDS + SWEEP_SEEDS  # grid points x seeds, plus the re-tunes
INGEST_N = 50_000


class CheckFailed(Exception):
    pass


@dataclass
class Setup:
    """Benchmark-side input generation; its time is `setup_s`."""
    name: str
    fn: Callable[[], None]


@dataclass
class Stage:
    """One program run: `psp.cli` arguments, or loadgraph.py arguments when `script`.

    `check` reads the stage's stdout and files, raises CheckFailed or
    ValueError on a wrong output, and returns the outputs that must repeat
    exactly for the same seed.
    """
    name: str
    args: list
    check: Callable[[str], dict]
    script: bool = False


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# checks


def _no_stdout(out: str) -> None:
    if out.strip():
        raise CheckFailed(f"unexpected stdout {out[:200]!r}")


def _one_metric_line(out: str, run_id: str, seed: int, task: str, shots: int) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise CheckFailed(f"expected one metric line, got {len(lines)}")
    got = parse_metric_line(lines[0])
    if got[:4] != (run_id, seed, task, shots):
        raise CheckFailed(f"metric line {lines[0]!r} does not echo {(run_id, seed, task, shots)}")
    return {"acc": got[4]}


def _loss_epochs(path: Path, expected: int | None = None) -> dict:
    epochs = len(read_loss_log(path))
    if epochs == 0 or (expected is not None and epochs != expected):
        raise CheckFailed(f"{path.name} has {epochs} epochs, expected {expected or 'some'}")
    return {"epochs": epochs}


def _trains(loss_log: Path, expected: int | None = None) -> Callable[[str], dict]:
    """Check for a training stage: nothing on stdout, a finite loss per epoch."""
    def check(out: str) -> dict:
        _no_stdout(out)
        return _loss_epochs(loss_log, expected)
    return check


def _sweep(out: str, seeds: list[int], task: str) -> dict:
    selected, accs, mean = parse_sweep_stdout(out)
    lines = [ln for ln in out.splitlines() if ln.strip()][1:-1]
    if [parse_metric_line(ln)[1:3] for ln in lines] != [(s, task) for s in seeds]:
        raise CheckFailed(f"sweep metric lines do not cover seeds {seeds} for task {task}")
    return {"acc": mean, "selected": selected}


# ---------------------------------------------------------------------------
# workloads


def pipeline_steps(work: Path, seed: int, logs: Path) -> list:
    data, model, tuned, weights = (work / "data", work / "model.ckpt", work / "tuned.ckpt",
                                   work / "weights.tsv")
    split = ["--k-shot", 3, "--val-shots", 20, "--seed", seed]

    def export_check(out):
        _no_stdout(out)
        rows = weights.read_text(encoding="utf-8").count("\n") - 1
        if rows != PIPELINE_N:
            raise CheckFailed(f"weight export has {rows} rows for {PIPELINE_N} nodes")
        return {}

    return [
        Setup("inputs", lambda: inputs.write_sbm_dataset(data, PIPELINE_N, seed)),
        Stage("pretrain", ["pretrain", "--data", data, "--out", model,
                           "--epochs", PRETRAIN_EPOCHS, "--seed", seed],
              _trains(Path(f"{model}.loss.tsv"), PRETRAIN_EPOCHS)),
        Stage("tune", ["tune", "--data", data, "--ckpt", model, "--out", tuned,
                       "--epochs", TUNE_EPOCHS, *split],
              _trains(Path(f"{tuned}.loss.tsv"))),
        Stage("eval-psp", ["eval", "--data", data, "--ckpt", tuned, "--run-id", "psp", *split],
              lambda out: _one_metric_line(out, "psp", seed, "node", 3)),
        Stage("eval-np", ["eval", "--data", data, "--ckpt", model, "--variant", "psp-np",
                          "--run-id", "np", *split],
              lambda out: _one_metric_line(out, "np", seed, "node", 3)),
        Stage("export-w", ["export-w", "--ckpt", tuned, "--data", data, "--out", weights],
              export_check),
    ]


def pipeline_metrics(o: dict) -> dict:
    return {"pipeline_s": sum(r.wall_s for r, _ in o.values()),
            "pretrain_epochs_per_s": (o["pretrain"][1]["epochs"], o["pretrain"][0].wall_s),
            "tune_epochs_per_s": (o["tune"][1]["epochs"], o["tune"][0].wall_s),
            "test_acc": o["eval-psp"][1]["acc"], "np_test_acc": o["eval-np"][1]["acc"]}


def fewshot_steps(work: Path, seed: int, logs: Path) -> list:
    node, tu, model = work / "node", work / "tu", work / "model.ckpt"
    seeds = [seed + i for i in range(SWEEP_SEEDS)]
    common = ["--ckpt", model, *SWEEP_GRID, "--seeds", ",".join(map(str, seeds)),
              "--epochs", SWEEP_EPOCHS, "--k-shot", 3]

    def setup():
        inputs.write_sbm_dataset(node, FEWSHOT_N, seed)
        inputs.write_tu_batch(tu, "FEW", seed, FEWSHOT_GRAPHS, FEWSHOT_GRAPH_NODES)
        run = run_stage("setup-pretrain", psp_argv("pretrain", "--data", node, "--out", model,
                                                   "--epochs", SETUP_PRETRAIN_EPOCHS,
                                                   "--seed", seed), ROOT, logs)
        if run.exit_code != 0:
            raise CheckFailed(f"set-up pretrain exited {run.exit_code}: {run.stderr[-300:]}")
        _loss_epochs(Path(f"{model}.loss.tsv"), SETUP_PRETRAIN_EPOCHS)

    return [
        Setup("inputs+checkpoint", setup),
        Stage("sweep-node", ["sweep", "--data", node, *common, "--val-shots", 20,
                             "--run-id", "node"],
              lambda out: _sweep(out, seeds, "node")),
        Stage("sweep-graph", ["sweep", "--data", tu, "--tu-name", "FEW", "--task", "graph",
                              *common, "--val-shots", 5, "--run-id", "graph"],
              lambda out: _sweep(out, seeds, "graph")),
    ]


def fewshot_metrics(o: dict) -> dict:
    node, graph = o["sweep-node"][0].wall_s, o["sweep-graph"][0].wall_s
    return {"sweep_s": node + graph, "sweep_fits_per_s": (2 * SWEEP_FITS, node + graph),
            "node_sweep_fits_per_s": (SWEEP_FITS, node),
            "graph_sweep_fits_per_s": (SWEEP_FITS, graph),
            "test_acc": o["sweep-node"][1]["acc"], "graph_test_acc": o["sweep-graph"][1]["acc"]}


def ingest_steps(work: Path, seed: int, logs: Path) -> list:
    synth, tu = work / "synth", work / "tu"

    def synth_check(out):
        _no_stdout(out)
        for name in ("edges.tsv", "features.tsv", "labels.tsv"):
            if not (synth / name).is_file():
                raise CheckFailed(f"synth wrote no {name}")
        return {}

    def generated_digest():
        run = run_stage("reference", [sys.executable, ROOT / "perfbench" / "loadgraph.py",
                                      "reference", INGEST_N, seed], ROOT, logs)
        if run.exit_code != 0:
            raise CheckFailed(f"reference graph exited {run.exit_code}: {run.stderr[-300:]}")
        return json.loads(run.stdout.strip().splitlines()[-1])

    reference = {}

    def load_check(out):
        loaded = json.loads(out.strip().splitlines()[-1])
        if not reference:
            reference.update(generated_digest())
        for layout in ("node", "tu"):
            if loaded[layout] != reference:
                raise CheckFailed(f"{layout} load {loaded[layout]} != generated {reference}")
        if reference["n_nodes"] != INGEST_N:
            raise CheckFailed(f"generated {reference['n_nodes']} nodes, asked for {INGEST_N}")
        return {"graph": dict(reference)}

    return [
        Stage("synth", ["synth", "--n", INGEST_N, "--seed", seed, "--out", synth], synth_check),
        Setup("tu-layout", lambda: inputs.node_dataset_to_tu(synth, tu, "BIG")),
        Stage("load", ["load", synth, tu, "BIG"], load_check, script=True),
    ]


def ingest_metrics(o: dict) -> dict:
    synth = o["synth"][0].wall_s
    times = json.loads(o["load"][0].stdout.strip().splitlines()[-1])
    load = times["node_s"] + times["tu_s"]
    return {"ingest_s": synth + load, "synth_s": synth, "load_s": load,
            "synth_nodes_per_s": (INGEST_N, synth), "load_nodes_per_s": (2 * INGEST_N, load)}


@dataclass
class Workload:
    """`metrics` maps one repetition's outcomes to named values: a float is a
    timing or an output, a (work, seconds) pair a throughput. `e2e` names the
    value behind each end-to-end metric."""
    name: str
    steps: Callable[[Path, int, Path], list]
    metrics: Callable[[dict], dict]
    e2e: dict


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-n3000", pipeline_steps, pipeline_metrics,
             {"wall_s": "pipeline_s", "main_stage_per_s": "pretrain_epochs_per_s",
              "second_stage_per_s": "tune_epochs_per_s"}),
    Workload("fewshot-n300", fewshot_steps, fewshot_metrics,
             {"wall_s": "sweep_s", "main_stage_per_s": "node_sweep_fits_per_s",
              "second_stage_per_s": "graph_sweep_fits_per_s"}),
    Workload("ingest-n50k", ingest_steps, ingest_metrics,
             {"wall_s": "ingest_s", "main_stage_per_s": "synth_nodes_per_s",
              "second_stage_per_s": "load_nodes_per_s"}),
)}


def summarize(per_rep: list[dict]) -> dict:
    """Timings and outputs: the median over repetitions. Throughputs: all the
    work over all the time."""
    out = {}
    for key, first in per_rep[0].items():
        values = [r[key] for r in per_rep]
        if isinstance(first, tuple):
            out[key] = sum(w for w, _ in values) / sum(t for _, t in values)
        else:
            out[key] = statistics.median(values)
    return out


# ---------------------------------------------------------------------------
# running stages


def as_child(stage: Stage, logs: Path) -> StageRun:
    if stage.script:
        argv = [sys.executable, ROOT / "perfbench" / "loadgraph.py", *stage.args]
    else:
        argv = psp_argv(*stage.args)
    return run_stage(stage.name, argv, ROOT, logs)


def in_process(stage: Stage) -> StageRun:
    """Run a stage inside this process; its stdout and stderr are captured."""
    import psp.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = [str(a) for a in stage.args]
            code = loadgraph.main(args) if stage.script else psp.cli.run(args)
        except Exception:  # a crashing stage is reported as failed, not fatal
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return StageRun(stage.name, code, wall, 0.0, out.getvalue(), err.getvalue())


def run_chain(steps: list, run: Callable[[Stage], StageRun], ledger: Ledger) -> dict | None:
    """Run every step in order; stage name -> (StageRun, checked outputs), or
    None at the first failure."""
    outcomes = {}
    for step in steps:
        ledger.attempted += 1
        if isinstance(step, Setup):
            start = time.perf_counter()
            try:
                step.fn()
            except (CheckFailed, OSError, ValueError) as exc:
                ledger.fail(f"set-up {step.name}: {exc}")
                return None
            ledger.setup_s.append(time.perf_counter() - start)
            continue
        result = run(step)
        if result.exit_code != 0:
            ledger.fail(f"{step.name} exited {result.exit_code}: {result.stderr[-500:]}")
            return None
        try:
            outcomes[step.name] = (result, step.check(result.stdout))
        except (CheckFailed, ValueError, KeyError, OSError) as exc:
            ledger.fail(f"{step.name} output check: {exc}")
            return None
    return outcomes


def outputs_of(outcomes: dict) -> dict:
    return {name: values for name, (_, values) in outcomes.items()}


def check_repeat(ledger: Ledger, first: dict, again: dict, what: str) -> None:
    for name, values in again.items():
        if values != first.get(name):
            ledger.fail(f"{name} outputs changed {what}: {first.get(name)} -> {values}")


def check_expected(ledger: Ledger, path: Path, steps: list, outputs: dict) -> None:
    """Outputs must equal those of an earlier run with the same seed and stages."""
    key = [[s.name, *map(str, s.args)] for s in steps if isinstance(s, Stage)]
    if path.is_file():
        record = json.loads(path.read_text())
        if record["stages"] == key:
            check_repeat(ledger, record["outputs"], json.loads(json.dumps(outputs)),
                         "from an earlier run with this seed")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"stages": key, "outputs": outputs}))


# ---------------------------------------------------------------------------
# the two modes


def untraced_run(wl: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> dict:
    logs = work / "logs"
    steps = wl.steps(work, seed, logs)
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        outcomes = run_chain(steps, lambda s: as_child(s, logs), ledger)
        if outcomes is None:
            break
        if reps:
            check_repeat(ledger, outputs_of(reps[0]), outputs_of(outcomes), "between repetitions")
        reps.append(outcomes)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPETITIONS and elapsed + (time.perf_counter() - rep_start) > seconds:
            break
    if not reps:
        return {}
    check_expected(ledger, OUT / "expected" / f"{wl.name}-seed{seed}.json", steps,
                   outputs_of(reps[0]))
    named = summarize([wl.metrics(o) for o in reps])
    named["peak_rss_mb"] = statistics.median(max(run.peak_rss_mb for run, _ in o.values())
                                             for o in reps)
    named["setup_s"] = statistics.median(ledger.setup_s)
    named["failed_share"] = ledger.failed / ledger.attempted
    e2e = {k: named[wl.e2e.get(k, k)] for k, _ in END_TO_END}
    return {"stage_metrics": named, "metrics": e2e, "repetitions": len(reps),
            "stages": [{n: {"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb, "outputs": v}
                        for n, (r, v) in o.items()} for o in reps]}


def startup_s(logs: Path, repeats: int = 3) -> float:
    walls = [run_stage("startup", [sys.executable, "-c", "import psp.cli"], ROOT, logs).wall_s
             for _ in range(repeats)]
    return statistics.median(walls)


def traced_run(wl: Workload, seed: int, work: Path, ledger: Ledger, spans_path: Path) -> dict:
    """Plain, traced, plain again: the first pass warms the process, and the
    overhead compares the traced pass with the second plain pass."""
    sys.path.insert(0, str(ROOT / "src"))
    logs = work / "logs"
    steps = wl.steps(work, seed, logs)
    warm = run_chain(steps, in_process, ledger)
    if warm is None:
        return {}
    tracer = Tracer()

    def spanned(stage: Stage) -> StageRun:
        tracer.run_id = f"{wl.name}:{seed}:{stage.name}"
        with tracer.span(f"stage.{stage.name}"):
            return in_process(stage)

    with patched(probes.replacements(tracer)):
        traced_out = run_chain(steps, spanned, ledger)
    tracer.write(spans_path)
    plain = run_chain(steps, in_process, ledger) if traced_out is not None else None
    if plain is None:
        return {}
    check_repeat(ledger, outputs_of(warm), outputs_of(traced_out), "under tracing")
    check_repeat(ledger, outputs_of(warm), outputs_of(plain), "between repetitions")
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent is None and s.name.startswith("stage.")]
    metrics = probes.layer_metrics(spans)
    metrics["cli.startup_s"] = startup_s(logs)
    metrics["trace.coverage"] = coverage(spans, roots)
    metrics["trace.overhead_share"] = (sum(r.wall_s for r, _ in traced_out.values())
                                       / sum(r.wall_s for r, _ in plain.values()) - 1.0)
    return {"metrics": metrics, "spans": str(spans_path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# entry point


STAGE_UNITS = {"pipeline_s": "s", "pretrain_epochs_per_s": "1/s", "tune_epochs_per_s": "1/s",
               "sweep_s": "s", "sweep_fits_per_s": "1/s", "node_sweep_fits_per_s": "1/s",
               "graph_sweep_fits_per_s": "1/s", "ingest_s": "s", "synth_s": "s", "load_s": "s",
               "synth_nodes_per_s": "1/s", "load_nodes_per_s": "1/s", "peak_rss_mb": "MB",
               "test_acc": "fraction", "np_test_acc": "fraction", "graph_test_acc": "fraction",
               "failed_share": "ratio", "setup_s": "s"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        body = traced_run(wl, seed, work, ledger, results / f"{tag}.spans.jsonl")
        units = dict(probes.per_layer_names())
    else:
        body = untraced_run(wl, seed, seconds, work, ledger)
        units = dict(END_TO_END)
    correct = ledger.failed == 0 and bool(body)
    metrics = {k: {"value": body["metrics"][k], "unit": u}
               for k, u in units.items() if k in body.get("metrics", {})}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info(ROOT), "correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "errors": ledger.errors, "setup_s_samples": ledger.setup_s,
              **body}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(f"{name} seed {seed}: {ledger.attempted} operations, {ledger.failed} failed"
          + (f", {body['repetitions']} repetitions" if "repetitions" in body else ""))
    table = body.get("stage_metrics", {}) if not trace else body.get("metrics", {})
    for key, value in table.items():
        unit = units.get(key) or STAGE_UNITS.get(key, "")
        print(f"  {key:<40} {value:.6g} {unit}")
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "psp" / "cli.py").is_file():
        print(f"no psp sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
