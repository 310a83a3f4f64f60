import json
import math
from pathlib import Path

import numpy as np
import pytest

import inputs
import probes
import run
from stages import (git_sha, parse_metric_line, parse_selected_line, parse_summary_line,
                    parse_sweep_stdout, read_loss_log)

SWEEP_OUT = ("selected\tlr=0.01\twd=0.0001\tdropout=0.2\n"
             "node\t4\tnode\t3\t0.5\n"
             "node\t5\tnode\t3\t0.75\n"
             "summary\tnode\t0.625\t0.125\n")


def test_metric_line_has_five_fields():
    assert parse_metric_line("run\t0\tnode\t3\t0.4646878198567042\n") == \
        ("run", 0, "node", 3, 0.4646878198567042)
    for bad in ("run\t0\tnode\t3", "run\t0\tnode\t3\t0.5\textra", "run\t0\tedge\t3\t0.5",
                "run\tx\tnode\t3\t0.5", "run\t0\tnode\t3\t1.5", "run\t0\tnode\t3\tnan"):
        with pytest.raises(ValueError):
            parse_metric_line(bad)


def test_summary_and_selected_lines():
    assert parse_summary_line("summary\tsweep\t0.44\t0.02") == ("sweep", 0.44, 0.02)
    assert parse_selected_line("selected\tlr=0.01\twd=0.0001\tdropout=0.5") == \
        {"lr": 0.01, "wd": 0.0001, "dropout": 0.5}
    for bad in ("summary\tsweep\t0.44", "grid\tsweep\t0.44\t0.02", "summary\tsweep\t-1\t0"):
        with pytest.raises(ValueError):
            parse_summary_line(bad)
    for bad in ("selected\tlr=0.01\twd=0.0001", "chosen\tlr=1\twd=1\tdropout=1"):
        with pytest.raises(ValueError):
            parse_selected_line(bad)


def test_sweep_stdout_needs_consistent_summary():
    selected, accs, mean = parse_sweep_stdout(SWEEP_OUT)
    assert selected["lr"] == 0.01 and accs == [0.5, 0.75] and mean == 0.625
    assert run._sweep(SWEEP_OUT, [4, 5], "node") == {"acc": 0.625, "selected": selected}
    with pytest.raises(run.CheckFailed):
        run._sweep(SWEEP_OUT, [4, 6], "node")
    with pytest.raises(ValueError):
        parse_sweep_stdout(SWEEP_OUT.replace("0.625", "0.6"))
    with pytest.raises(ValueError):
        parse_sweep_stdout("selected\tlr=0.01\twd=0.0001\tdropout=0.2\n")


def test_loss_log_must_be_finite_and_ordered(tmp_path):
    log = tmp_path / "a.loss.tsv"
    log.write_text("0\t1.5\n1\t1.25\n")
    assert read_loss_log(log) == [1.5, 1.25]
    for bad in ("0\t1.5\n1\tnan\n", "0\t1.5\n2\t1.0\n", "0\tinf\n"):
        log.write_text(bad)
        with pytest.raises(ValueError):
            read_loss_log(log)


def test_git_sha_reads_refs_without_git(tmp_path):
    assert git_sha(tmp_path) == "unknown"
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "packed-refs").write_text("abc123 refs/heads/main\n")
    assert git_sha(tmp_path) == "abc123"
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text("def456\n")
    assert git_sha(tmp_path) == "def456"


def test_generators_are_seeded(tmp_path):
    inputs.write_sbm_dataset(tmp_path / "a", 90, seed=3)
    inputs.write_sbm_dataset(tmp_path / "b", 90, seed=3)
    inputs.write_sbm_dataset(tmp_path / "c", 90, seed=4)
    for name in ("edges.tsv", "features.tsv", "labels.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "features.tsv").read_bytes() != \
        (tmp_path / "c" / "features.tsv").read_bytes()


def test_node_and_tu_layouts_load_to_the_same_graph(tmp_path):
    from psp.data import load_node_dataset, load_tu_dataset

    inputs.write_sbm_dataset(tmp_path / "node", 90, seed=1)
    inputs.node_dataset_to_tu(tmp_path / "node", tmp_path / "tu", "X")
    node, tu = load_node_dataset(tmp_path / "node"), load_tu_dataset(tmp_path / "tu", "X")
    assert node.n_nodes == tu.n_nodes == 90
    assert np.array_equal(node.features.data, tu.features.data)
    assert np.array_equal(node.labels, tu.labels)
    assert np.array_equal(node.adjacency.to_dense(), tu.adjacency.to_dense())


def test_tu_batch_has_balanced_graph_classes(tmp_path):
    from psp.data import load_tu_dataset

    inputs.write_tu_batch(tmp_path, "FEW", seed=2, n_graphs=12, nodes_per_graph=5, n_classes=3)
    g = load_tu_dataset(tmp_path, "FEW")
    assert g.n_nodes == 60 and g.n_graphs == 12 and g.features.cols == 64
    assert np.bincount(g.graph_labels).tolist() == [4, 4, 4]


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == probes.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_sweep_fit_count_matches_the_grid():
    grid = [len(v.split(",")) for v in run.SWEEP_GRID[1::2]]
    assert run.SWEEP_FITS == math.prod(grid) * run.SWEEP_SEEDS + run.SWEEP_SEEDS


def test_summarize_takes_medians_and_pools_throughput():
    reps = [{"wall_s": 3.0, "acc": 0.5, "rate": (2, 4.0)},
            {"wall_s": 1.0, "acc": 0.5, "rate": (2, 1.0)},
            {"wall_s": 2.0, "acc": 0.5, "rate": (2, 1.0)}]
    assert run.summarize(reps) == {"wall_s": 2.0, "acc": 0.5, "rate": 1.0}


def test_every_workload_names_its_end_to_end_values():
    for wl in run.WORKLOADS.values():
        assert set(wl.e2e) == {"wall_s", "main_stage_per_s", "second_stage_per_s"}
        assert set(wl.e2e.values()) <= set(run.STAGE_UNITS)
