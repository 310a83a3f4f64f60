import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psp
from psp.cli import run
from psp.data import (
    load_checkpoint,
    load_node_dataset,
    sample_k_shot,
    save_checkpoint,
)
from psp.graph import PromptedGraph

from graph_batches import write_ring_chord_batch

# `psp tune --tau 1e-308`'s refusal: the gradient's max-abs, then the epoch's loss
ADAM_REFUSAL = (r"^error: adam_step: a moment of parameter prompt_weights is non-finite, "
                r"gradient max-abs (\S+) at epoch 0, loss (\S+)$")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth -> pretrain -> tune chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    ckpt = root / "model.ckpt"
    tuned = root / "tuned.ckpt"
    assert run(["synth", "--n", "60", "--classes", "3", "--h", "0.8", "--avg-deg", "4",
                "--feat-dim", "8", "--noise", "0.5", "--seed", "1", "--out", str(data)]) == 0
    assert run(["pretrain", "--data", str(data), "--out", str(ckpt),
                "--epochs", "8", "--hidden-dim", "16", "--seed", "1"]) == 0
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(tuned),
                "--epochs", "6", "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
    return root, data, ckpt, tuned


def _refusal(code, stdout, stderr, out) -> str:
    """The one `error:` line of a CLI refusal, after the rest of its contract: exit 1,
    the config echo and then that line alone on stderr (no traceback), nothing on
    stdout and nothing written at `out`."""
    echo, *lines = stderr.splitlines()
    assert code == 1 and echo.startswith("config\t"), stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert stdout == "" and "Traceback" not in stderr and not out.exists()
    return lines[0]


def test_synth_writes_loadable_dataset(pipeline):
    _, data, _, _ = pipeline
    g = load_node_dataset(data)
    assert g.n_nodes == 60 and g.n_classes == 3


def test_pretrain_outputs_checkpoint_and_loss_log(pipeline):
    root, _, ckpt, _ = pipeline
    assert ckpt.is_file()
    log = (str(ckpt) + ".loss.tsv")
    lines = open(log).read().splitlines()
    assert len(lines) == 8 and lines[0].startswith("0\t")
    loaded = load_checkpoint(ckpt)
    assert loaded.params.hidden_dim == 16 and loaded.prompt is None


def test_tune_outputs_bundle_with_prompt(pipeline):
    _, _, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    assert bundle.prompt is not None
    assert bundle.prompt.weight_rows.shape == (60, 3)


def test_eval_psp_and_np_print_metric_lines(pipeline, capsys):
    _, data, ckpt, tuned = pipeline
    assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", "psp",
                "--k-shot", "3", "--val-shots", "3", "--seed", "1", "--run-id", "rid"]) == 0
    line = capsys.readouterr().out.strip()
    parts = line.split("\t")
    assert parts[0] == "rid" and parts[1] == "1" and parts[2] == "node" and parts[3] == "3"
    assert 0.0 <= float(parts[4]) <= 1.0
    assert run(["eval", "--data", str(data), "--ckpt", str(ckpt), "--variant", "psp-np",
                "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip()


def test_eval_metric_lines_are_deterministic(pipeline, capsys):
    _, data, _, tuned = pipeline
    args = ["eval", "--data", str(data), "--ckpt", str(tuned), "--k-shot", "3",
            "--val-shots", "3", "--seed", "1"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_eval_refuses_a_checkpoint_whose_header_width_disagrees(pipeline, tmp_path, capsys):
    import struct

    _, data, ckpt, _ = pipeline
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", blob, 12, 7)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    code = run(["eval", "--data", str(data), "--ckpt", str(bad), "--variant", "psp-np", "--seed", "1"])
    captured = capsys.readouterr()
    assert "error: checkpoint header gives hidden_dim 7, but its encoder blocks are 16 columns" \
        in _refusal(code, captured.out, captured.err, tmp_path / "out")


def test_export_w_roundtrip(pipeline, tmp_path):
    _, data, _, tuned = pipeline
    out = tmp_path / "w.tsv"
    assert run(["export-w", "--ckpt", str(tuned), "--data", str(data),
                "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter="\t", skiprows=1)
    assert table[:, 2:].shape == (60, 3)
    assert set(table[:, 1].tolist()) <= {0, 1, 2}


def test_export_w_rejects_data_with_more_nodes_than_weight_rows(pipeline, tmp_path, capsys):
    _, _, _, tuned = pipeline
    other = tmp_path / "n90"
    assert run(["synth", "--n", "90", "--feat-dim", "8", "--seed", "2", "--out", str(other)]) == 0
    capsys.readouterr()
    out = tmp_path / "w.tsv"
    code = run(["export-w", "--ckpt", str(tuned), "--data", str(other), "--out", str(out)])
    captured = capsys.readouterr()
    assert "90 labels for 60 weight rows" in _refusal(code, captured.out, captured.err, out)


def test_export_w_rejects_data_with_fewer_nodes_than_weight_rows(pipeline, tmp_path, capsys):
    _, data, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    bundle.prompt = PromptedGraph(task="node", proto_features=bundle.prompt.proto_features,
                                  weight_rows=np.zeros((90, 3)),
                                  trainable_row_mask=np.ones(90, dtype=bool))
    wide = tmp_path / "wide.ckpt"
    save_checkpoint(wide, bundle)
    out = tmp_path / "w.tsv"
    code = run(["export-w", "--ckpt", str(wide), "--data", str(data), "--out", str(out)])
    captured = capsys.readouterr()
    assert "60 labels for 90 weight rows" in _refusal(code, captured.out, captured.err, out)


@pytest.mark.parametrize("rows,cols", [(2, 8), (3, 5)], ids=["rows", "width"])
def test_export_w_refuses_a_bundle_whose_prompt_blocks_disagree(pipeline, tmp_path, capsys, rows, cols):
    _, _, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    bundle.prompt.proto_features = np.zeros((rows, cols))
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, bundle)
    out = tmp_path / "w.tsv"
    code = run(["export-w", "--ckpt", str(bad), "--out", str(out)])
    captured = capsys.readouterr()
    assert f"error: prompt prototype features are {rows}x{cols} for 60x3 weights and a 8x16 " \
           "encoder W1" in _refusal(code, captured.out, captured.err, out)


# tiny runs of each command; a row adds flags, and a flag given again overrides the base's
EVAL = "eval --data {data} --ckpt {tuned} --k-shot 3 --val-shots 3 --seed 1"
TUNE = "tune --data {data} --ckpt {ckpt} --out {out} --k-shot 3 --val-shots 3 --seed 1 --epochs 2"
SWEEP = ("sweep --data {data} --ckpt {ckpt} --k-shot 3 --val-shots 3 --epochs 2 --lr-grid 0.01 "
         "--weight-decay-grid 0.0001 --dropout-grid 0.2 --seeds 1")
PRETRAIN = "pretrain --data {data} --out {out} --epochs 1"
SYNTH = "synth --n 30 --out {out}"

# Every refusal the CLI makes of an argv alone, held to `_refusal`'s contract. Each row is
# (message, *argvs): every argv is refused with the message in its error line. {data},
# {ckpt} and {tuned} name the `pipeline` fixture's dataset, checkpoint and tuned bundle,
# and {out} a path that no refusal may write. A group of rows is one test, under the name
# (and parameter ids) it had as a test of its own; a lone row is a test without parameters.
REFUSALS = {
    "test_eval_psp_without_prompt_is_runtime_error": (
        "checkpoint holds no tuned prompt; run `tune` first",
        "eval --data {data} --ckpt {ckpt} --variant psp --seed 1"),
    "test_runtime_error_exit_code": (
        "missing dataset file", "pretrain --data {out}/missing --out {out}/m.ckpt"),
    "test_sweep_rejects_malformed_lists": {
        f"{flag}-{value}": (flag, f"{SWEEP} {flag} '{value}'")
        for flag, value in (("--seeds", ","), ("--seeds", "1,x"), ("--lr-grid", "0.01,x"),
                            ("--weight-decay-grid", ""), ("--dropout-grid", "0.2,,y"))},
    "test_eval_rejects_bad_tau": {
        tau: ("tau must be a positive finite number",
              *(f"{EVAL} --variant {variant} --tau {tau}" for variant in ("psp", "psp-np")))
        for tau in ("-0.5", "0", "nan", "inf")},
    "test_tune_and_pretrain_reject_nan_tau": {
        "tune": ("tau must be a positive finite number", f"{TUNE} --tau nan"),
        "pretrain": ("tau must be a positive finite number", f"{PRETRAIN} --tau nan")},
    "test_eval_rejects_negative_shot_counts": {
        flag: ("need k >= 1", f"{EVAL} {flag} -1") for flag in ("--k-shot", "--val-shots")},
    "test_sweep_rejects_zero_val_shots": ("--val-shots must be at least 1", f"{SWEEP} --val-shots 0"),
    "test_synth_rejects_bad_average_degree": {
        value: ("avg_deg must be a non-negative finite number", f"{SYNTH} --avg-deg {value}")
        for value in ("nan", "inf", "-4")},
    "test_pretrain_rejects_zero_hidden_dim": (
        "hidden_dim must be at least 1", f"{PRETRAIN} --hidden-dim 0"),
    "test_synth_rejects_average_degree_above_n_minus_one": {
        value: ("avg_deg must be at most n - 1 = 29", f"{SYNTH} --avg-deg {value}")
        for value in ("1e308", "1e9")},
    "test_split_commands_reject_bad_mask_ratio": {
        f"{command}-{value}": ("mask ratio must lie in [0, 1]", f"{base} --mask-ratio {value}")
        for command, base in (("tune", TUNE), ("eval", EVAL), ("sweep", SWEEP))
        for value in ("nan", "-0.5")},
    "test_tune_and_sweep_reject_negative_counts": {
        **{f"{command}---{field}-{field}": (f"{field} must be {bound}, got -1", f"{base} --{field} -1")
           for command, base in (("tune", TUNE), ("sweep", SWEEP))
           for field, bound in (("epochs", "non-negative"), ("patience", "at least 1"))},
        # a stale count starts at 1, so patience 0 would stop where patience 1 does
        **{f"{command}-patience-0": ("patience must be at least 1, got 0", f"{base} --patience 0")
           for command, base in (("tune", TUNE), ("sweep", SWEEP))}},
    "test_pretrain_rejects_bad_optimizer_flags": {
        f"{flag}-{value}": (message, f"{PRETRAIN} {flag} {value}")
        for flag, value, message in (("--lr", "nan", "lr must be a positive finite number, got"),
                                     ("--lr", "-1", "lr must be a positive finite number, got"),
                                     ("--weight-decay", "nan",
                                      "weight_decay must be a non-negative finite number, got"))},
    "test_synth_rejects_bad_noise": {
        value: ("noise must be a non-negative finite number", f"{SYNTH} --noise {value}")
        for value in ("nan", "inf", "-1")},
    "test_eval_refuses_a_task_other_than_the_bundles": (
        "--task graph does not match the bundle, whose prompt was tuned for task node",
        f"{EVAL} --task graph"),
    "test_export_w_refuses_a_tu_name_without_data": (
        "--tu-name needs --data", "export-w --ckpt {tuned} --tu-name X --out {out}"),
    # a checkpoint stores the seed as a signed 64-bit integer; sweep is refused before any fit too
    "test_seeded_commands_refuse_a_seed_a_checkpoint_cannot_store": {
        f"{command}-{seed}": (f"seed must lie in [-2^63, 2^63), got {seed}", argv)
        for command, seed, argv in (
            ("pretrain", 2 ** 63, f"{PRETRAIN} --seed {2 ** 63}"),
            ("pretrain", -2 ** 63 - 1, f"{PRETRAIN} --seed={-2 ** 63 - 1}"),
            ("tune", 2 ** 64 + 1, f"{TUNE} --seed {2 ** 64 + 1}"),
            ("sweep", 2 ** 64 + 1, f"{SWEEP} --seeds 0,{2 ** 64 + 1}"))},
    # seeded_rng reads a seed mod 2^64: 2^64 would silently write or score what seed 0 does
    "test_synth_and_eval_refuse_a_seed_that_aliases_another": {
        command: (f"seed must lie in [-2^63, 2^63), got {2 ** 64}", f"{base} --seed {2 ** 64}")
        for command, base in (("synth", SYNTH), ("eval", EVAL))},
    "test_synth_refuses_noise_that_overflows_the_features": (
        "noise must keep the features finite, got 1e+308", f"{SYNTH} --noise 1e308"),
    # a repeated seed or grid value would be fitted twice and weigh twice in the means
    "test_sweep_refuses_a_repeated_value": {
        "seeds": ("--seeds repeats the value 0, got '0,0'", f"{SWEEP} --seeds 0,0"),
        "lr-grid": ("--lr-grid repeats the value 0.01, got '0.01,1e-2'", f"{SWEEP} --lr-grid 0.01,1e-2")},
    # grid membership is relative to 1e-9: an absolute slack of 1e-8 would admit 0.0100000001
    "test_lr_flags_refuse_a_value_near_a_grid_point": {
        "tune": ("lr must come from (0.0001, 0.001, 0.01, 0.1), got 0.0100000001", f"{TUNE} --lr 0.0100000001"),
        "sweep": ("lr must come from (0.0001, 0.001, 0.01, 0.1), got 0.0100000001",
                  f"{SWEEP} --lr-grid 0.01,0.0100000001")},
    "test_count_refusals_name_the_value": {
        "pretrain-epochs": ("epochs must be non-negative, got -1", f"{PRETRAIN} --epochs -1"),
        "synth-classes": ("n_classes must be positive, got 0", f"{SYNTH} --classes 0")},
}


def _check_refusal(pipeline, tmp_path, capsys, row) -> None:
    message, *argvs = row
    _, data, ckpt, tuned = pipeline
    out = tmp_path / "out"
    for argv in argvs:
        args = [arg.format(data=data, ckpt=ckpt, tuned=tuned, out=out) for arg in shlex.split(argv)]
        code = run(args)
        captured = capsys.readouterr()
        assert message in _refusal(code, captured.out, captured.err, out), argv


def _refusal_test(rows):
    """One test of `_check_refusal`: over a group of rows by their ids, or over a lone row."""
    if isinstance(rows, tuple):
        return lambda pipeline, tmp_path, capsys: _check_refusal(pipeline, tmp_path, capsys, rows)

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(pipeline, tmp_path, capsys, row):
        _check_refusal(pipeline, tmp_path, capsys, row)

    return test


for _name, _rows in REFUSALS.items():
    globals()[_name] = _refusal_test(_rows)


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--bogus-flag", "1", "--out", "x"]) == 2
    assert "bogus-flag" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_config_echo_is_first_log_line(pipeline, capsys):
    _, data, ckpt, tuned = pipeline
    run(["eval", "--data", str(data), "--ckpt", str(tuned), "--seed", "1",
         "--val-shots", "3"])
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("config\t")


def test_tune_edge_ratio_zero_limits_nonzero_rows(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    tuned = tmp_path / "r0.ckpt"
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(tuned),
                "--epochs", "4", "--k-shot", "3", "--val-shots", "3", "--seed", "1",
                "--edge-ratio", "0"]) == 0
    out = tmp_path / "w.tsv"
    assert run(["export-w", "--ckpt", str(tuned), "--out", str(out)]) == 0
    values = np.loadtxt(out, delimiter="\t", skiprows=1)[:, 2:]
    g = load_node_dataset(data)
    split = sample_k_shot(g.labels, 3, 1, 3)
    nonzero_rows = set(np.flatnonzero(np.abs(values).sum(axis=1) > 0).tolist())
    assert nonzero_rows <= set(split.train.indices.tolist())
    assert len(nonzero_rows) == split.train.indices.size


def _write_two_class_tu(tu) -> None:
    """8 three-node graphs under the prefix TG: paths (class 1) and triangles (class -1)."""
    tu.mkdir()
    edges, indicator, labels = [], [], []
    node = 1
    for gid in range(1, 9):
        cls = gid % 2
        labels.append(1 if cls else -1)
        size = 3
        for i in range(size):
            indicator.append(gid)
        if cls:
            edges += [(node, node + 1), (node + 1, node), (node + 1, node + 2), (node + 2, node + 1)]
        else:
            edges += [(node, node + 1), (node + 1, node), (node + 1, node + 2),
                      (node + 2, node + 1), (node, node + 2), (node + 2, node)]
        node += size
    (tu / "TG_A.txt").write_text("".join(f"{a}, {b}\n" for a, b in edges))
    (tu / "TG_graph_indicator.txt").write_text("".join(f"{g}\n" for g in indicator))
    (tu / "TG_graph_labels.txt").write_text("".join(f"{v}\n" for v in labels))


def test_graph_task_pipeline_over_tu_layout(tmp_path, capsys):
    tu = tmp_path / "tu"
    _write_two_class_tu(tu)
    ckpt, tuned = tmp_path / "g.ckpt", tmp_path / "gt.ckpt"
    assert run(["pretrain", "--data", str(tu), "--tu-name", "TG", "--task", "graph",
                "--out", str(ckpt), "--epochs", "6", "--hidden-dim", "8", "--seed", "0"]) == 0
    assert run(["tune", "--data", str(tu), "--tu-name", "TG", "--task", "graph",
                "--ckpt", str(ckpt), "--out", str(tuned), "--epochs", "4",
                "--k-shot", "1", "--val-shots", "1", "--seed", "0"]) == 0
    bundle = load_checkpoint(tuned)
    assert bundle.prompt.task == "graph"
    assert bundle.prompt.weight_rows.shape == (8, 2)  # one row per graph
    assert run(["eval", "--data", str(tu), "--tu-name", "TG", "--task", "graph",
                "--ckpt", str(tuned), "--k-shot", "1", "--val-shots", "1",
                "--seed", "0"]) == 0
    line = capsys.readouterr().out.strip().split("\t")
    assert line[2] == "graph" and 0.0 <= float(line[4]) <= 1.0


def test_sweep_selects_on_validation(pipeline, capsys):
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt),
                "--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001",
                "--dropout-grid", "0.2", "--seeds", "1,2", "--epochs", "4",
                "--k-shot", "3", "--val-shots", "3", "--run-id", "sw"]) == 0
    captured = capsys.readouterr()
    out_lines = captured.out.splitlines()
    assert out_lines[0].startswith("selected\tlr=")
    metric_lines = [l for l in out_lines if l.startswith("sw\t")]
    assert len(metric_lines) == 2
    assert out_lines[-1].startswith("summary\tsw\t")
    # grid progress went to stderr, selection used validation accuracy there
    assert captured.err.count("grid\t") == 2


def test_sweep_tunes_each_grid_point_and_seed_once(pipeline, capsys, monkeypatch, one_cpu):
    import psp.cli

    calls = []
    tune = psp.cli.prompt_tune

    def counting_tune(*args, **kwargs):
        calls.append(args[2])
        return tune(*args, **kwargs)

    monkeypatch.setattr(psp.cli, "prompt_tune", counting_tune)
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt),
                "--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001",
                "--dropout-grid", "0.2", "--seeds", "1,2", "--epochs", "4",
                "--k-shot", "3", "--val-shots", "3"]) == 0
    assert len(calls) == 2 * 2
    assert [(c.lr, c.seed) for c in calls] == [(0.001, 1), (0.001, 2), (0.01, 1), (0.01, 2)]


def test_sweep_keeps_the_first_of_tied_grid_points(pipeline, capsys, monkeypatch, one_cpu):
    import psp.cli

    tune = psp.cli.prompt_tune

    def tied_tune(*args, **kwargs):  # real prototypes, one validation accuracy for every fit
        prompted, record = tune(*args, **kwargs)
        record.best_acc = 0.5
        return prompted, record

    monkeypatch.setattr(psp.cli, "prompt_tune", tied_tune)
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt),
                "--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001,0.001",
                "--dropout-grid", "0.2,0.5", "--seeds", "1,2", "--epochs", "2",
                "--k-shot", "3", "--val-shots", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("val_acc=0.5000") == 8
    assert captured.out.splitlines()[0] == "selected\tlr=0.001\twd=0.0001\tdropout=0.2"


def _count_calls(monkeypatch, names, modules):
    """Count calls to each function in `names` made through any of `modules`."""
    counts = dict.fromkeys(names, 0)
    for module in modules:
        for name in names:
            if hasattr(module, name):
                original = getattr(module, name)

                def counting(*args, _name=name, _original=original, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    return counts


def test_sweep_builds_the_frozen_views_once(pipeline, capsys, monkeypatch, two_cpus):
    import psp.cli
    import psp.prompt

    counts = _count_calls(monkeypatch, ["mlp_forward", "gcn_normalize"], (psp.cli, psp.prompt))
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt),
                "--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001",
                "--dropout-grid", "0.2", "--seeds", "1,2", "--epochs", "4",
                "--k-shot", "3", "--val-shots", "3"]) == 0
    assert counts == {"mlp_forward": 1, "gcn_normalize": 1}


@pytest.fixture(scope="module")
def tu_model(tmp_path_factory):
    """The two-class TU batch and encoders pre-trained on it for the graph task."""
    root = tmp_path_factory.mktemp("tu")
    _write_two_class_tu(root / "tu")
    assert run(["pretrain", "--data", str(root / "tu"), "--tu-name", "TG", "--task", "graph",
                "--out", str(root / "g.ckpt"), "--epochs", "6", "--hidden-dim", "8", "--seed", "0"]) == 0
    return root / "tu", root / "g.ckpt"


def _sweep_at_each_cpu_count(argv, monkeypatch, capsys) -> dict:
    """Exit code, stdout and stderr of `argv` with one and with two allowed CPUs."""
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        code = run(argv)
        captured = capsys.readouterr()
        outputs[cpus] = (code, captured.out, captured.err)
        with pytest.raises(ChildProcessError):  # no worker is left, zombie or not
            os.waitpid(-1, os.WNOHANG)
    return outputs


@pytest.mark.parametrize("task", ["node", "graph"])
def test_sweep_prints_the_same_at_one_and_two_cpus(pipeline, tu_model, monkeypatch, capsys, task):
    if task == "node":
        _, data, ckpt, _ = pipeline
        flags = ["--k-shot", "3", "--val-shots", "3"]
    else:
        data, ckpt = tu_model
        flags = ["--tu-name", "TG", "--task", "graph", "--k-shot", "1", "--val-shots", "1"]
    outputs = _sweep_at_each_cpu_count(
        ["sweep", "--data", str(data), "--ckpt", str(ckpt), *flags, "--lr-grid", "0.001,0.1",
         "--weight-decay-grid", "0.0001", "--dropout-grid", "0.0,0.5", "--seeds", "1,2,3",
         "--epochs", "5"], monkeypatch, capsys)
    assert outputs[1] == outputs[2]
    code, out, err = outputs[2]
    assert code == 0 and out.startswith("selected\t") and err.count("grid\t") == 4


def test_sweep_reports_an_error_in_a_worker_as_one_cpu_does(pipeline, monkeypatch, capsys):
    _, data, ckpt, _ = pipeline
    outputs = _sweep_at_each_cpu_count(
        ["sweep", "--data", str(data), "--ckpt", str(ckpt), "--lr-grid", "0.01",
         "--weight-decay-grid", "0.0001", "--dropout-grid", "0.2", "--seeds", "1,2",
         "--epochs", "3", "--k-shot", "3", "--val-shots", "3", "--tau", "1e-308"], monkeypatch, capsys)
    assert outputs[1] == outputs[2]
    code, out, err = outputs[2]
    assert code == 1 and out == "" and "Traceback" not in err
    _, *errors = err.splitlines()  # the config echo, then the refusal
    assert len(errors) == 1 and re.fullmatch(ADAM_REFUSAL, errors[0])


def test_eval_refuses_a_tau_with_an_infinite_reciprocal(pipeline, tmp_path, capsys):
    _, data, _, tuned = pipeline
    args = ["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", "psp-np",
            "--k-shot", "3", "--val-shots", "3", "--seed", "1", "--tau"]
    code = run(args + ["1e-320"])
    captured = capsys.readouterr()
    assert "tau must be a positive finite number with a finite reciprocal, got 1e-320" \
        in _refusal(code, captured.out, captured.err, tmp_path / "out")
    assert run(args + ["1e-308"]) == 0


def test_tune_refuses_a_tau_whose_gradients_overflow_adam(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    out = tmp_path / "out.ckpt"
    code = run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(out),
                "--epochs", "3", "--k-shot", "3", "--val-shots", "3", "--seed", "1",
                "--tau", "1e-308"])
    captured = capsys.readouterr()
    refusal = re.fullmatch(ADAM_REFUSAL, _refusal(code, captured.out, captured.err, out))
    # the gradient and the loss are finite; the gradient's square overflows the second moment
    assert refusal and np.isfinite([float(v) for v in refusal.groups()]).all()


def test_tune_with_zero_val_shots_tunes_every_epoch(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    # patience 1 would stop a validated run at its first epoch without a gain
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(tmp_path / "t.ckpt"),
                "--epochs", "5", "--patience", "1", "--k-shot", "3", "--val-shots", "0"]) == 0
    assert "tuned 5 epochs" in capsys.readouterr().err


@pytest.mark.parametrize("patience,stop", [(2, "patience"), (60, "epochs")])
def test_tune_says_why_it_stopped_and_which_epoch_it_kept(pipeline, tmp_path, capsys, patience, stop):
    _, data, ckpt, _ = pipeline
    out = tmp_path / "t.ckpt"
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(out), "--epochs", "20",
                "--patience", str(patience), "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    line = re.fullmatch(rf"tuned (\d+) epochs, stopped on {stop}, kept epoch (-?\d+), val acc (\S+), "
                        rf"bundle at {re.escape(str(out))}", captured.err.splitlines()[-1])
    assert line and captured.out == ""
    epochs, kept, acc = int(line[1]), int(line[2]), float(line[3])
    # patience p stops the first pass whose weights are p + 1 epochs past the kept ones
    assert (epochs < 20 and kept == epochs - 1 - patience) if stop == "patience" else epochs == 20
    g, bundle = load_node_dataset(data), load_checkpoint(out)
    ctx = psp.task_context(g, bundle.params, "node")
    val = sample_k_shot(g.labels, 3, 1, 3).val  # the kept weights' accuracy on it
    assert acc == round(psp.accuracy(ctx, psp.prototype_embeddings(ctx, bundle.prompt), val, bundle.tau), 4)


@pytest.fixture(scope="module")
def no_test_items(tmp_path_factory):
    """A graph whose 6 items per class all go to train and validation at 3 + 3 shots."""
    root = tmp_path_factory.mktemp("no-test")
    data, ckpt, tuned = root / "data", root / "model.ckpt", root / "tuned.ckpt"
    shots = ["--k-shot", "3", "--val-shots", "3"]
    assert run(["synth", "--n", "18", "--classes", "3", "--feat-dim", "8", "--out", str(data)]) == 0
    assert run(["pretrain", "--data", str(data), "--out", str(ckpt), "--epochs", "2",
                "--hidden-dim", "8"]) == 0
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(tuned),
                "--epochs", "2", *shots]) == 0
    return data, ckpt, tuned, shots


@pytest.mark.parametrize("command", ["eval-psp", "eval-psp-np", "sweep"])
def test_scoring_an_empty_test_split_is_a_runtime_error(no_test_items, capsys, command):
    data, ckpt, tuned, shots = no_test_items
    argv = {"eval-psp": ["eval", "--ckpt", str(tuned)],
            "eval-psp-np": ["eval", "--ckpt", str(ckpt), "--variant", "psp-np"],
            "sweep": ["sweep", "--ckpt", str(ckpt), "--lr-grid", "0.01", "--weight-decay-grid",
                      "0.0001", "--dropout-grid", "0.2", "--seeds", "0", "--epochs", "2"]}[command]
    capsys.readouterr()
    assert run([*argv, "--data", str(data), *shots]) == 1
    captured = capsys.readouterr()
    assert "error: accuracy needs at least one labeled item" in captured.err
    assert captured.out == ""


def test_sweep_refuses_an_empty_test_split_before_its_first_fit(no_test_items, capsys,
                                                                 monkeypatch, one_cpu):
    import psp.cli

    counts = _count_calls(monkeypatch, ["prompt_tune"], (psp.cli,))
    data, ckpt, _, shots = no_test_items
    capsys.readouterr()
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt), *shots]) == 1
    captured = capsys.readouterr()
    assert "error: accuracy needs at least one labeled item" in captured.err
    assert "grid\t" not in captured.err and captured.out == ""
    assert counts == {"prompt_tune": 0}


def test_each_eval_variant_builds_the_structural_view_once(pipeline, capsys, monkeypatch):
    import psp.cli
    import psp.prompt

    counts = _count_calls(monkeypatch, ["gcn_normalize"], (psp.cli, psp.prompt))
    _, data, _, tuned = pipeline
    for runs, variant in enumerate(("psp", "psp-np"), start=1):
        assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", variant,
                    "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
        assert counts == {"gcn_normalize": runs}


def test_synth_reports_the_realized_mean_degree(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--avg-deg", "10", "--out", str(out)]) == 0
    line = capsys.readouterr().err.splitlines()[-1]
    reported = float(line.rsplit("mean degree ", 1)[1])
    g = load_node_dataset(out)
    assert reported == pytest.approx(g.adjacency.nnz / g.n_nodes, abs=5e-4)
    assert reported < 10  # repeated draws were dropped


@pytest.mark.parametrize("flags,digests", [
    (["--n", "300", "--seed", "3"],
     {"edges.tsv": "b415fb3fbc19ed1ddf184cc8dc8f13ce53e9824eaec135f6772b7bfdd67e81f0",
      "features.tsv": "a7e7479814485d380f24b65fa9b8af8d037bb30cdc6b31332475509607bacbda",
      "labels.tsv": "77b6a0208757a1a94e406ca6d5ebfb8efa154134852f72412e9c61af04ce7193"}),
    (["--n", "301", "--classes", "4", "--h", "0.2", "--seed", "5"],
     {"edges.tsv": "896fa4b4ad08d4766b86487b424991026a7b2a554a9e36437668f835dbec4941",
      "features.tsv": "876a118af9a10506b67ea0e4e37bfe8e13c954ee04209f2a654c976cb1d48cf8",
      "labels.tsv": "11e66ee174d0f57ec5d16b81397d86ac4bf306905a5f332aa70d63ba3041afb5"}),
], ids=["n300-h0.8", "n301-c4-h0.2"])
def test_synth_writes_the_recorded_bytes(tmp_path, flags, digests):
    """Digests of what `synth` wrote when it drew edges with `Generator.choice`."""
    out = tmp_path / "data"
    assert run(["synth", *flags, "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.parametrize("flags,message", [
    (["--n", "3", "--classes", "3", "--avg-deg", "2"],
     "error: homophily 0.8 draws intra-class edges, but each of the 3 classes has a single node"),
    (["--classes", "1"], "error: homophily 0.8 draws inter-class edges, but there is only one class"),
], ids=["singleton-classes", "one-class"])
def test_synth_refuses_edges_its_classes_cannot_hold(tmp_path, flags, message):
    # a fresh process under a timeout, so a generator that never returns fails the test
    out = tmp_path / "data"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(psp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "psp.cli", "synth", *flags, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert message in _refusal(proc.returncode, proc.stdout, proc.stderr, out)


def test_export_w_refuses_data_without_labels_for_the_bundles_task(pipeline, tmp_path, capsys):
    _, data, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    bundle.prompt = PromptedGraph(task="graph", proto_features=bundle.prompt.proto_features,
                                  weight_rows=np.ones((12, 3)),
                                  trainable_row_mask=np.ones(12, dtype=bool))
    graph_bundle = tmp_path / "graph.ckpt"
    save_checkpoint(graph_bundle, bundle)
    out = tmp_path / "w.tsv"
    code = run(["export-w", "--ckpt", str(graph_bundle), "--data", str(data), "--out", str(out)])
    captured = capsys.readouterr()
    assert "error: dataset has no labels for task 'graph'" in _refusal(code, captured.out, captured.err, out)


@pytest.mark.parametrize("flag,value,message", [
    ("--dropout-grid", "0.2,1.5", "error: dropout must lie in [0, 1), got 1.5"),
    ("--lr-grid", "0.01,0.05", "error: lr must come from (0.0001, 0.001, 0.01, 0.1), got 0.05"),
], ids=["dropout", "lr"])
def test_sweep_refuses_a_bad_grid_point_before_the_first_fit(pipeline, tmp_path, capsys, monkeypatch,
                                                              one_cpu, flag, value, message):
    import psp.cli

    counts = _count_calls(monkeypatch, ["prompt_tune"], (psp.cli,))
    _, data, ckpt, _ = pipeline
    args = ["sweep", "--data", str(data), "--ckpt", str(ckpt), "--lr-grid", "0.01",
            "--dropout-grid", "0.2", "--weight-decay-grid", "0.0001", "--seeds", "1",
            "--epochs", "2"]
    args[args.index(flag) + 1] = value
    code = run(args)
    captured = capsys.readouterr()
    assert message in _refusal(code, captured.out, captured.err, tmp_path / "out")
    assert "grid\t" not in captured.err and counts == {"prompt_tune": 0}


def test_sweep_takes_its_seeds_from_seeds_only(pipeline, capsys):
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt), "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _echo(argv, capsys) -> dict:
    run(argv)
    line = capsys.readouterr().err.splitlines()[0]
    assert line.startswith("config\t")
    return json.loads(line.split("\t", 1)[1])


def test_config_echo_of_each_subcommand_with_its_defaults(tmp_path, capsys):
    # only synth writes; the other commands echo, then stop at the missing data or checkpoint
    s, d, c, o = (str(tmp_path / name) for name in "sdco")
    split = {"k_shot": 3, "val_shots": 3, "mask_ratio": 0.0, "task": "node", "tu_name": None}
    assert _echo(["synth", "--out", s], capsys) == {
        "command": "synth", "n": 300, "classes": 3, "homophily": 0.8, "avg_deg": 2.5,
        "feat_dim": 64, "noise": 0.5, "seed": 0, "out": s}
    assert _echo(["pretrain", "--data", d, "--out", o], capsys) == {
        "command": "pretrain", "data": d, "out": o, "task": "node", "tu_name": None,
        "epochs": 200, "lr": 0.0001, "weight_decay": 0.0001, "tau": 0.5, "dropout": 0.2,
        "hidden_dim": 128, "seed": 0}
    assert _echo(["tune", "--data", d, "--ckpt", c, "--out", o], capsys) == {
        "command": "tune", "data": d, "ckpt": c, "out": o, **split, "seed": 0, "epochs": 300,
        "lr": 0.01, "weight_decay": 0.0001, "dropout": 0.2, "edge_ratio": 1.0, "tau": None,
        "patience": 60}
    assert _echo(["eval", "--data", d, "--ckpt", c], capsys) == {
        "command": "eval", "data": d, "ckpt": c, **split, "seed": 0, "variant": "psp",
        "tau": None, "run_id": "run"}
    assert _echo(["sweep", "--data", d, "--ckpt", c], capsys) == {
        "command": "sweep", "data": d, "ckpt": c, **split, "lr_grid": "0.0001,0.001,0.01,0.1",
        "weight_decay_grid": "1e-05,0.0001,0.001,0.01", "dropout_grid": "0.2,0.5,0.8",
        "seeds": "0,1,2,3,4", "tau": None, "run_id": "sweep", "epochs": 200,
        "edge_ratio": 1.0, "patience": 30}
    assert _echo(["export-w", "--ckpt", c, "--out", o], capsys) == {
        "command": "export-w", "ckpt": c, "out": o, "data": None, "tu_name": None}


# ---------------------------------------------------------------------------
# fuzzed numeric flags

# one or two flags per run: with more, nearly every run holds some refusal
# and hides what the other values do
_FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308")


def _fuzz_run(argv, flags: dict, int_flags) -> int:
    """Run `argv` with `flags` appended in-process, and check the exit code: 2
    exactly when an int flag got a value that is not an int, else 0 or 1, and
    never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv + [f"{flag}={value}" for flag, value in flags.items()])
    unparsable = any(flag in int_flags and value not in ("-1", "0") for flag, value in flags.items())
    assert (code == 2) if unparsable else (code in (0, 1)), (flags, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


_SYNTH_INT_FLAGS = ("--n", "--classes", "--feat-dim", "--seed")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.dictionaries(st.sampled_from(_SYNTH_INT_FLAGS + ("--h", "--avg-deg", "--noise")),
                       st.sampled_from(_FUZZ_VALUES), min_size=1, max_size=2))
def test_synth_numeric_flags_refuse_or_write_a_loadable_dataset(flags):
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "data")
        code = _fuzz_run(["synth", "--n", "30", "--out", out], flags, _SYNTH_INT_FLAGS)
        assert os.path.exists(out) == (code == 0)
        if code == 0:
            load_node_dataset(out)


_TUNE_INT_FLAGS = ("--patience", "--seed", "--k-shot", "--val-shots")


def test_tune_numeric_flags_refuse_or_tune(pipeline):
    _, data, ckpt, _ = pipeline

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.dictionaries(st.sampled_from(_TUNE_INT_FLAGS + (
        "--lr", "--weight-decay", "--dropout", "--edge-ratio", "--tau", "--mask-ratio")),
        st.sampled_from(_FUZZ_VALUES), min_size=1, max_size=2))
    def fuzz(flags):
        with tempfile.TemporaryDirectory() as root:
            out = os.path.join(root, "tuned.ckpt")
            code = _fuzz_run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", out,
                              "--epochs", "0"], flags, _TUNE_INT_FLAGS)
            assert os.path.exists(out) == (code == 0)

    fuzz()


# ---------------------------------------------------------------------------
# allocator and collector policy of the `psp` process

_ALLOCATION_ROUNDS = """
import resource, sys
import numpy as np
import psp.cli
mode = sys.argv[1]
if mode == "policy":
    print(*psp.cli.keep_freed_memory())
elif mode == "run":
    assert psp.cli.run(["synth", "--n", "30", "--out", sys.argv[2]]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    arrays = [np.ones((300, 128)) for _ in range(20)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh_python(script, mode, tmp_path):
    """The stdout lines of `script` run in a fresh interpreter, with `mode` and
    a path under `tmp_path` as its arguments."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(psp.__file__)))
    return subprocess.run([sys.executable, "-c", script, mode, str(tmp_path / mode)],
                          env=env, capture_output=True, text=True, check=True).stdout.splitlines()


def _page_faults(mode, tmp_path):
    """Minor page faults of 30 rounds of allocating and dropping twenty
    300 x 128 arrays, in a fresh interpreter; the `policy` mode also returns
    `keep_freed_memory`'s results."""
    out = _fresh_python(_ALLOCATION_ROUNDS, mode, tmp_path)
    return int(out[-1]), out[:-1]


def test_keep_freed_memory_stops_refaulting_freed_arrays(tmp_path):
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the allocator policy applies to glibc only")
    without, _ = _page_faults("none", tmp_path)
    with_policy, printed = _page_faults("policy", tmp_path)
    after_run, _ = _page_faults("run", tmp_path)
    assert printed == ["1 1"]  # each mallopt call succeeded
    assert with_policy * 5 < without
    assert with_policy * 5 < after_run  # run() alone leaves the default allocator


def test_main_applies_the_policy_before_running(monkeypatch):
    import psp.cli

    calls = []
    # stubbed, so that this test freezes nothing of pytest's own heap
    monkeypatch.setattr(psp.cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(psp.cli, "keep_freed_memory", lambda: calls.append("policy"))
    monkeypatch.setattr(psp.cli, "run", lambda: calls.append("run") or 3)
    with pytest.raises(SystemExit) as exc:
        psp.cli.main()
    assert exc.value.code == 3 and calls == ["freeze", "policy", "run"]


_FREEZE_COUNT = """
import gc, sys
import psp
import psp.cli
if sys.argv[1] == "run":
    assert psp.cli.run(["synth", "--n", "30", "--out", sys.argv[2]]) == 0
    print(gc.get_freeze_count())
else:
    psp.cli.run = lambda: print(gc.get_freeze_count()) or 0
    psp.cli.main()
"""


def test_only_main_freezes_the_import_time_heap(tmp_path):
    # after `psp.cli.run`, then from inside `psp.cli.main`
    assert _fresh_python(_FREEZE_COUNT, "run", tmp_path) == ["0"]  # library use keeps the default collector
    assert int(_fresh_python(_FREEZE_COUNT, "main", tmp_path)[-1]) > 0


_DEFERRED_MODULES = """
import sys
import types
if sys.argv[1] == "held":
    import numpy.testing
    held = numpy.testing
    import psp
    print(sys.modules["numpy.testing"] is held and numpy.testing is held)
elif sys.argv[1] == "absent":
    # as on numpy 1.x, where numpy.strings does not exist and numpy.char and numpy.rec are no modules
    import importlib.util
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *rest: None if name == "numpy.char" else find_spec(name, *rest)
    import psp
    print(type(sys.modules["numpy.ctypeslib"]) is not types.ModuleType)  # the names after it stay deferred
else:
    import psp.cli
    data, tu, ckpt, tuned, w = (sys.argv[2] + name for name in ("/data", "/tu", "/m.ckpt", "/t.ckpt", "/w.tsv"))
    # one grid point and one seed: fork_map fits inline, so this process loads what a fit loads
    sweep = (f"sweep --ckpt {ckpt} --epochs 1 --k-shot 1 --val-shots 1 --lr-grid 0.01 "
             "--weight-decay-grid 0.0001 --dropout-grid 0 --seeds 1")
    for argv in (f"synth --n 30 --out {data}", f"pretrain --data {data} --out {ckpt} --epochs 1",
                 f"tune --data {data} --ckpt {ckpt} --out {tuned} --epochs 1",
                 f"eval --data {data} --ckpt {tuned}", f"eval --data {data} --ckpt {ckpt} --variant psp-np",
                 f"export-w --ckpt {tuned} --data {data} --out {w}", f"{sweep} --data {data}",
                 f"{sweep} --data {tu} --tu-name RING --task graph"):
        assert psp.cli.run(argv.split()) == 0, argv
    # a lazy module keeps LazyLoader's type until an attribute access runs its body; the names
    # are listed here, not read from psp, so that one dropped from psp's list shows
    deferred = ("testing", "f2py", "ma", "polynomial", "char", "strings", "rec", "ctypeslib")
    print(sorted(name for name in deferred if type(sys.modules["numpy." + name]) is types.ModuleType))
    import ctypes
    import os
    import numpy as np
    print(np.testing.assert_allclose(1.0, 1.0) is None, os.path.isdir(np.f2py.get_include()),
          np.ma.masked_array([1, 2], mask=[0, 1]).sum() == 1, np.polynomial.Polynomial([1, 2])(2) == 5,
          np.char.upper("a") == "A", np.strings.upper("a") == "A", np.rec.array([(1, 2)]).shape == (1,),
          np.ctypeslib.as_ctypes_type(np.int32) is ctypes.c_int32)
"""


def test_stages_never_load_a_deferred_numpy_module(tmp_path):
    write_ring_chord_batch(tmp_path / "stages" / "tu", "RING", seed=0, n_graphs=12)
    *_, loaded, first_use = _fresh_python(_DEFERRED_MODULES, "stages", tmp_path)
    assert loaded == "[]"
    assert first_use.split() == ["True"] * 8  # each still loads on first use


def test_a_numpy_testing_imported_before_psp_is_kept(tmp_path):
    assert _fresh_python(_DEFERRED_MODULES, "held", tmp_path) == ["True"]


def test_a_deferred_name_numpy_lacks_is_skipped(tmp_path):
    assert _fresh_python(_DEFERRED_MODULES, "absent", tmp_path) == ["True"]
