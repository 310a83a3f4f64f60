import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psp
from psp.cli import run
from psp.autodiff import Tensor
from psp.data import (
    load_checkpoint,
    load_node_dataset,
    sample_k_shot,
    save_checkpoint,
)
from psp.graph import PromptedGraph


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
    assert loaded.hidden_dim == 16 and loaded.prompt is None


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


def test_eval_psp_without_prompt_is_runtime_error(pipeline, capsys):
    _, data, ckpt, _ = pipeline
    assert run(["eval", "--data", str(data), "--ckpt", str(ckpt), "--variant", "psp",
                "--seed", "1"]) == 1
    assert "tuned prompt" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_whose_header_width_disagrees(pipeline, tmp_path, capsys):
    import struct

    _, data, ckpt, _ = pipeline
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", blob, 12, 7)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    assert run(["eval", "--data", str(data), "--ckpt", str(bad), "--variant", "psp-np",
                "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: checkpoint header gives hidden_dim 7, but its encoder blocks are 16 columns" \
        in captured.err


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
    out = tmp_path / "w.tsv"
    assert run(["export-w", "--ckpt", str(tuned), "--data", str(other), "--out", str(out)]) == 1
    assert "90 labels for 60 weight rows" in capsys.readouterr().err
    assert not out.exists()


def test_export_w_rejects_data_with_fewer_nodes_than_weight_rows(pipeline, tmp_path, capsys):
    _, data, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    bundle.prompt = PromptedGraph(task="node", proto_features=bundle.prompt.proto_features,
                                  weight_rows=Tensor(np.zeros((90, 3))),
                                  trainable_row_mask=np.ones(90, dtype=bool))
    wide = tmp_path / "wide.ckpt"
    save_checkpoint(wide, bundle)
    assert run(["export-w", "--ckpt", str(wide), "--data", str(data),
                "--out", str(tmp_path / "w.tsv")]) == 1
    assert "60 labels for 90 weight rows" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--bogus-flag", "1", "--out", "x"]) == 2
    assert "bogus-flag" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
    assert run(["pretrain", "--data", str(tmp_path / "nope"), "--out",
                str(tmp_path / "m.ckpt")]) == 1
    assert "error" in capsys.readouterr().err


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
    assert nonzero_rows <= set(split.train)
    assert len(nonzero_rows) == len(split.train)


def test_graph_task_pipeline_over_tu_layout(tmp_path, capsys):
    tu = tmp_path / "tu"
    tu.mkdir()
    rng = np.random.default_rng(0)
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


def test_sweep_tunes_each_grid_point_and_seed_once(pipeline, capsys, monkeypatch):
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


def test_sweep_builds_the_frozen_views_once(pipeline, capsys, monkeypatch):
    import psp.cli
    import psp.prompt

    counts = _count_calls(monkeypatch, ["mlp_forward", "gcn_normalize"], (psp.cli, psp.prompt))
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt),
                "--lr-grid", "0.001,0.01", "--weight-decay-grid", "0.0001",
                "--dropout-grid", "0.2", "--seeds", "1,2", "--epochs", "4",
                "--k-shot", "3", "--val-shots", "3"]) == 0
    assert counts == {"mlp_forward": 1, "gcn_normalize": 1}


@pytest.mark.parametrize("flag,value", [("--seeds", ","), ("--seeds", "1,x"),
                                        ("--lr-grid", "0.01,x"), ("--weight-decay-grid", ""),
                                        ("--dropout-grid", "0.2,,y")])
def test_sweep_rejects_malformed_lists(pipeline, capsys, flag, value):
    _, data, ckpt, _ = pipeline
    args = ["sweep", "--data", str(data), "--ckpt", str(ckpt), "--lr-grid", "0.01",
            "--weight-decay-grid", "0.0001", "--dropout-grid", "0.2", "--seeds", "1",
            "--epochs", "2", "--k-shot", "3", "--val-shots", "3"]
    args[args.index(flag) + 1] = value
    assert run(args) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tau", ["-0.5", "0", "nan", "inf"])
def test_eval_rejects_bad_tau(pipeline, capsys, tau):
    _, data, _, tuned = pipeline
    for variant in ("psp", "psp-np"):
        assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", variant,
                    "--k-shot", "3", "--val-shots", "3", "--seed", "1", "--tau", tau]) == 1
        captured = capsys.readouterr()
        assert "tau must be a positive finite number" in captured.err
        assert captured.out == ""


def test_eval_refuses_a_tau_with_an_infinite_reciprocal(pipeline, capsys):
    _, data, _, tuned = pipeline
    args = ["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", "psp-np",
            "--k-shot", "3", "--val-shots", "3", "--seed", "1", "--tau"]
    assert run(args + ["1e-320"]) == 1
    captured = capsys.readouterr()
    assert "tau must be a positive finite number with a finite reciprocal, got 1e-320" \
        in captured.err
    assert captured.out == ""
    assert run(args + ["1e-308"]) == 0


def test_tune_refuses_a_tau_whose_gradients_overflow_adam(pipeline, tmp_path, capsys):
    _, data, ckpt, _ = pipeline
    out = tmp_path / "out.ckpt"
    assert run(["tune", "--data", str(data), "--ckpt", str(ckpt), "--out", str(out),
                "--epochs", "3", "--k-shot", "3", "--val-shots", "3", "--seed", "1",
                "--tau", "1e-308"]) == 1
    assert "error: adam_step: a moment of parameter prompt_weights is non-finite" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tune", "pretrain"])
def test_tune_and_pretrain_reject_nan_tau(pipeline, tmp_path, capsys, command):
    _, data, ckpt, _ = pipeline
    out = tmp_path / "out.ckpt"
    args = [command, "--data", str(data), "--out", str(out), "--epochs", "2", "--tau", "nan"]
    if command == "tune":
        args += ["--ckpt", str(ckpt), "--k-shot", "3", "--val-shots", "3", "--seed", "1"]
    assert run(args) == 1
    assert "tau must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--k-shot", "--val-shots"])
def test_eval_rejects_negative_shot_counts(pipeline, capsys, flag):
    _, data, _, tuned = pipeline
    args = ["eval", "--data", str(data), "--ckpt", str(tuned), "--k-shot", "3",
            "--val-shots", "3", "--seed", "1"]
    args[args.index(flag) + 1] = "-1"
    assert run(args) == 1
    captured = capsys.readouterr()
    assert "error: need k >= 1" in captured.err and captured.out == ""


def test_sweep_rejects_zero_val_shots(pipeline, capsys):
    _, data, ckpt, _ = pipeline
    assert run(["sweep", "--data", str(data), "--ckpt", str(ckpt), "--lr-grid", "0.01",
                "--weight-decay-grid", "0.0001", "--dropout-grid", "0.2", "--seeds", "1",
                "--epochs", "2", "--k-shot", "3", "--val-shots", "0"]) == 1
    captured = capsys.readouterr()
    assert "--val-shots must be at least 1" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_eval_psp_builds_no_structural_view(pipeline, capsys, monkeypatch):
    import psp.cli
    import psp.prompt

    counts = _count_calls(monkeypatch, ["gcn_normalize"], (psp.cli, psp.prompt))
    _, data, _, tuned = pipeline
    assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", "psp",
                "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
    assert counts == {"gcn_normalize": 0}
    assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--variant", "psp-np",
                "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 0
    assert counts == {"gcn_normalize": 1}


@pytest.mark.parametrize("value", ["nan", "inf", "-4"])
def test_synth_rejects_bad_average_degree(tmp_path, capsys, value):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--avg-deg", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: avg_deg must be a non-negative finite number" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_pretrain_rejects_zero_hidden_dim(pipeline, tmp_path, capsys):
    _, data, _, _ = pipeline
    out = tmp_path / "out.ckpt"
    assert run(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1",
                "--hidden-dim", "0"]) == 1
    captured = capsys.readouterr()
    assert "error: hidden_dim must be at least 1" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("value", ["1e308", "1e9"])
def test_synth_rejects_average_degree_above_n_minus_one(tmp_path, capsys, value):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--avg-deg", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: avg_deg must be at most n - 1 = 29" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def _split_args(command, data, ckpt, out):
    """A tiny run of a split-taking command; `tune` writes a bundle to `out`."""
    extra = {"eval": ["--seed", "1"], "tune": ["--seed", "1", "--epochs", "2", "--out", str(out)],
             "sweep": ["--epochs", "2", "--lr-grid", "0.01", "--weight-decay-grid", "0.0001",
                       "--dropout-grid", "0.2", "--seeds", "1"]}
    return [command, "--data", str(data), "--ckpt", str(ckpt), "--k-shot", "3",
            "--val-shots", "3", *extra[command]]


@pytest.mark.parametrize("value", ["nan", "-0.5"])
@pytest.mark.parametrize("command", ["tune", "eval", "sweep"])
def test_split_commands_reject_bad_mask_ratio(pipeline, tmp_path, capsys, command, value):
    _, data, ckpt, tuned = pipeline
    out = tmp_path / "out.ckpt"
    args = _split_args(command, data, tuned if command == "eval" else ckpt, out)
    assert run(args + ["--mask-ratio", value]) == 1
    captured = capsys.readouterr()
    assert "error: mask ratio must lie in [0, 1]" in captured.err
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag,field", [("--epochs", "epochs"), ("--patience", "patience")])
@pytest.mark.parametrize("command", ["tune", "sweep"])
def test_tune_and_sweep_reject_negative_counts(pipeline, tmp_path, capsys, command, flag, field):
    _, data, ckpt, _ = pipeline
    out = tmp_path / "out.ckpt"
    assert run(_split_args(command, data, ckpt, out) + [flag, "-1"]) == 1
    captured = capsys.readouterr()
    assert f"error: {field} must be non-negative, got -1" in captured.err
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "-1"), ("--weight-decay", "nan")])
def test_pretrain_rejects_bad_optimizer_flags(pipeline, tmp_path, capsys, flag, value):
    _, data, _, _ = pipeline
    message = ("lr must be a positive" if flag == "--lr"
               else "weight_decay must be a non-negative") + " finite number"
    out = tmp_path / "out.ckpt"
    assert run(["pretrain", "--data", str(data), "--out", str(out), "--epochs", "1",
                flag, value]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}, got" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_synth_rejects_bad_noise(tmp_path, capsys, value):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--noise", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: noise must be a non-negative finite number" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_synth_reports_the_realized_mean_degree(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--avg-deg", "10", "--out", str(out)]) == 0
    line = capsys.readouterr().err.splitlines()[-1]
    reported = float(line.rsplit("mean degree ", 1)[1])
    g = load_node_dataset(out)
    assert reported == pytest.approx(g.adjacency.nnz / g.n_nodes, abs=5e-4)
    assert reported < 10  # repeated draws were dropped


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
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def test_eval_refuses_a_task_other_than_the_bundles(pipeline, capsys):
    _, data, _, tuned = pipeline
    assert run(["eval", "--data", str(data), "--ckpt", str(tuned), "--task", "graph",
                "--k-shot", "3", "--val-shots", "3", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: --task graph does not match the bundle, whose prompt was tuned for task node" \
        in captured.err
    assert captured.out == ""


def test_export_w_refuses_data_without_labels_for_the_bundles_task(pipeline, tmp_path, capsys):
    _, data, _, tuned = pipeline
    bundle = load_checkpoint(tuned)
    bundle.prompt = PromptedGraph(task="graph", proto_features=bundle.prompt.proto_features,
                                  weight_rows=Tensor(np.ones((12, 3))),
                                  trainable_row_mask=np.ones(12, dtype=bool))
    graph_bundle = tmp_path / "graph.ckpt"
    save_checkpoint(graph_bundle, bundle)
    out = tmp_path / "w.tsv"
    assert run(["export-w", "--ckpt", str(graph_bundle), "--data", str(data),
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: dataset has no labels for task 'graph'" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_synth_refuses_noise_that_overflows_the_features(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--n", "30", "--noise", "1e308", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: noise must keep the features finite, got 1e+308" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--dropout-grid", "0.2,1.5", "error: dropout must lie in [0, 1), got 1.5"),
    ("--lr-grid", "0.01,0.05", "error: lr must come from (0.0001, 0.001, 0.01, 0.1), got 0.05"),
], ids=["dropout", "lr"])
def test_sweep_refuses_a_bad_grid_point_before_the_first_fit(pipeline, capsys, monkeypatch,
                                                              flag, value, message):
    import psp.cli

    counts = _count_calls(monkeypatch, ["prompt_tune"], (psp.cli,))
    _, data, ckpt, _ = pipeline
    args = ["sweep", "--data", str(data), "--ckpt", str(ckpt), "--lr-grid", "0.01",
            "--dropout-grid", "0.2", "--weight-decay-grid", "0.0001", "--seeds", "1",
            "--epochs", "2"]
    args[args.index(flag) + 1] = value
    assert run(args) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "grid\t" not in captured.err
    assert captured.out == "" and counts == {"prompt_tune": 0}


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
# allocator policy of the `psp` process

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


def _page_faults(mode, tmp_path):
    """Minor page faults of 30 rounds of allocating and dropping twenty
    300 x 128 arrays, in a fresh interpreter; the `policy` mode also returns
    `keep_freed_memory`'s results."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(psp.__file__)))
    out = subprocess.run([sys.executable, "-c", _ALLOCATION_ROUNDS, mode, str(tmp_path / mode)],
                         env=env, capture_output=True, text=True, check=True).stdout.split("\n")
    return int(out[-2]), out[:-2]


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
    monkeypatch.setattr(psp.cli, "keep_freed_memory", lambda: calls.append("policy"))
    monkeypatch.setattr(psp.cli, "run", lambda: calls.append("run") or 0)
    with pytest.raises(SystemExit) as exc:
        psp.cli.main()
    assert exc.value.code == 0 and calls == ["policy", "run"]
