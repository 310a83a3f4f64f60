"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale experiments
(criteria 4-7) share one set of pre-trained encoders per seed through a
session fixture; every run is deterministic in its seed. Criterion 10 runs
the graph task on its own seeded graph batches.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from psp.cli import TUNE_DEFAULTS, run as cli_run
from psp.data import (
    generate_sbm,
    load_node_dataset,
    load_tu_dataset,
    sample_k_shot,
)
from psp.encoders import gnn_forward, init_encoder_params, mlp_forward
from psp.graph import (
    GraphData,
    LabeledSet,
    PromptedGraph,
    build_csr,
    gcn_normalize,
    self_looped,
)
from psp.inference import class_mean_rows, predict
from psp.parallel import fork_map
from psp.pretrain import PretrainConfig, ntxent_pretrain_loss, pretrain
from psp.prompt import (
    PromptConfig,
    accuracy,
    prompt_tune,
    prototype_embeddings,
    task_context,
)

from graph_batches import write_ring_chord_batch
from oracles import Tensor, grad_check, op_grad_cases, prompt_loss_and_grad, prompted_apply

SEEDS = (0, 1, 2, 3, 4)
DESK = dict(n=300, n_classes=3, avg_deg=2.5, feat_dim=64, noise=0.5)
PRETRAIN = dict(epochs=200, hidden_dim=128, dropout=0.2, tau=0.5)
TUNE = dict(lr=1e-2, weight_decay=1e-4, tau=0.5, **TUNE_DEFAULTS)
K_SHOT, VAL_K = 3, 20


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _pipeline(seed: int, homophily: float):
    g = generate_sbm(DESK["n"], DESK["n_classes"], homophily, DESK["avg_deg"],
                     DESK["feat_dim"], DESK["noise"], seed=seed)
    params, _ = pretrain(g, PretrainConfig(seed=seed, **PRETRAIN))
    split = sample_k_shot(g.labels, K_SHOT, seed, val_k=VAL_K)
    z2 = gnn_forward(g.features, gcn_normalize(g.adjacency), params, "eval")
    ctx = task_context(g, params, "node")
    acc_np = accuracy(ctx, class_mean_rows(z2, split.train, 3), split.test, TUNE["tau"])
    prompted, _ = prompt_tune(ctx, split.train, PromptConfig(seed=seed, **TUNE), val=split.val)
    proto = prototype_embeddings(ctx, prompted, "eval")
    acc_psp = accuracy(ctx, proto, split.test, TUNE["tau"])
    return dict(g=g, ctx=ctx, seed=seed, split=split, acc_np=acc_np, acc_psp=acc_psp,
                weights=prompted.weight_rows)


@pytest.fixture(scope="session")
def desk_runs():
    """Both homophilies' runs, by h, and the time of the one `fork_map` that runs
    all 10 pipelines: two maps of 5 would leave a core idle on the odd one."""
    start = time.perf_counter()
    runs = list(fork_map(lambda job: _pipeline(*job), [(seed, h) for h in (0.8, 0.2) for seed in SEEDS]))
    return {0.8: runs[:len(SEEDS)], 0.2: runs[len(SEEDS):]}, time.perf_counter() - start


@pytest.fixture(scope="session")
def homophilous_runs(desk_runs):
    runs, elapsed = desk_runs
    return runs[0.8], elapsed


@pytest.fixture(scope="session")
def heterophilous_runs(desk_runs):
    return desk_runs[0][0.2]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, whole battery under 30 s


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = {name: grad_check(f, x, h=1e-5) for name, (f, x) in op_grad_cases().items()}

    z2c = rng.standard_normal((4, 3))
    worst["pretrain_loss_tau_0.5"] = grad_check(
        lambda t: ntxent_pretrain_loss(t, z2c, 0.5)[:2], rng.standard_normal((4, 3)))
    z1c = rng.standard_normal((4, 3))
    worst["pretrain_loss_z2_side"] = grad_check(
        lambda t: ntxent_pretrain_loss(z1c, t, 1.0)[::2], rng.standard_normal((4, 3)))

    # prompt loss differentiated through the augmented propagation into W
    g = GraphData(features=rng.standard_normal((5, 4)),
                  adjacency=build_csr(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                  labels=np.array([0, 1, 0, 1, 0]))
    ctx = task_context(g, init_encoder_params(4, 6, seed=1), "node")
    proto_feats, anchors = rng.standard_normal((2, 4)), rng.standard_normal((3, 6))
    ps = PromptedGraph(task="node", proto_features=proto_feats, weight_rows=rng.standard_normal((5, 2)),
                       trainable_row_mask=np.ones(5, dtype=bool))
    worst["prompt_loss_through_W"] = grad_check(
        lambda _: prompt_loss_and_grad(ctx, ps, anchors, [0, 1, 0], 0.5), ps.weight_rows)

    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _report("criterion-1", not bad and elapsed < 30.0,
            f"max rel err {max(worst.values()):.2e} over {len(worst)} checks in {elapsed:.1f}s"
            + (f"; failures {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 2: formula oracles


def test_criterion_2_formula_oracles():
    loss = ntxent_pretrain_loss(np.eye(2), np.eye(2), tau=1.0)[0]
    ok_loss = abs(loss - (-1.0)) <= 1e-9

    probs = predict(np.array([[1.0, 0.0, 0.0]]), np.eye(3), tau=1.0)
    e = np.e
    expected = np.array([e / (e + 2), 1 / (e + 2), 1 / (e + 2)])
    ok_probs = np.allclose(probs[0], expected, atol=1e-9)

    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 5))
    labeled = LabeledSet([0, 1, 3, 5], [0, 0, 1, 1])
    from psp.prompt import init_edge_weights

    got = init_edge_weights(z, labeled, 2)
    proto = np.stack([(z[0] + z[1]) / 2, (z[3] + z[5]) / 2])
    brute = np.empty((6, 2))
    for i in range(6):
        for c in range(2):
            brute[i, c] = sum(z[i][d] * proto[c][d] for d in range(5))
    ok_init = np.allclose(got, brute, atol=1e-12)

    _report("criterion-2", ok_loss and ok_probs and ok_init,
            f"contrastive N=2 loss {loss:.12f}; softmax probs and dot-product init match oracles")


# ---------------------------------------------------------------------------
# criterion 3: structural invariants


def test_criterion_3_structural_invariants():
    fixtures = [
        (1, []),
        (2, [(0, 1)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (6, [(i, (i + 1) % 6) for i in range(6)]),
        (7, [(0, i) for i in range(1, 7)]),
        (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        (4, [(0, 1), (1, 2)]),
        (10, [(int(a), int(b)) for a, b in
              np.random.default_rng(3).integers(0, 10, size=(18, 2)) if a != b]),
    ]
    worst_norm = 0.0
    for n, edges in fixtures:
        a = build_csr(n, edges)
        dense = a.toarray()
        hat = dense + np.eye(n)
        inv = 1.0 / np.sqrt(hat.sum(axis=1))
        brute = inv[:, None] * hat * inv[None, :]
        worst_norm = max(worst_norm, np.abs(gcn_normalize(a).toarray() - brute).max())

    n, edges = fixtures[2]
    a = build_csr(n, edges)
    eye = np.eye(n + 2)
    top, _ = prompted_apply(self_looped(a), Tensor(np.zeros((n, 2))),
                            Tensor(eye[:n]), Tensor(eye[n:]))
    reduction_err = np.abs(top.data[:, :n] - gcn_normalize(a).toarray()).max()

    params = init_encoder_params(8, 6, seed=2)
    x = np.random.default_rng(4).standard_normal((6, 8))
    baseline = mlp_forward(x, params, "eval")
    bitwise = all(
        np.array_equal(mlp_forward(x, params, "eval"), baseline)
        for _ in ([], [(0, 1)], [(i, j) for i in range(6) for j in range(i + 1, 6)]))

    ok = worst_norm <= 1e-12 and reduction_err <= 1e-12 and bitwise
    _report("criterion-3", ok,
            f"normalization vs dense {worst_norm:.2e}; W=0 reduction {reduction_err:.2e}; "
            f"attribute view adjacency-invariant: {bitwise}")


# ---------------------------------------------------------------------------
# criteria 4-7: desk experiments


def test_criterion_4_homophilous_ordering(homophilous_runs):
    runs, elapsed = homophilous_runs
    psp = float(np.mean([r["acc_psp"] for r in runs]))
    base = float(np.mean([r["acc_np"] for r in runs]))
    ok = (psp - base >= 0.03) and (psp - 1.0 / 3.0 >= 0.20) and elapsed < 120.0
    _report("criterion-4", ok,
            f"h=0.8 PSP {psp:.4f} vs PSP-np {base:.4f} (+{100 * (psp - base):.2f} pts, "
            f"random+{100 * (psp - 1 / 3):.1f} pts) in {elapsed:.0f}s")


def test_criterion_5_heterophilous_floor(heterophilous_runs):
    psp = float(np.mean([r["acc_psp"] for r in heterophilous_runs]))
    ok = psp - 1.0 / 3.0 >= 0.10
    _report("criterion-5", ok, f"h=0.2 PSP {psp:.4f}, random+{100 * (psp - 1 / 3):.1f} pts")


def test_criterion_6_weight_concentration(homophilous_runs):
    runs, _ = homophilous_runs
    fractions = []
    for r in runs:
        train = r["split"].train
        hits = np.argmax(r["weights"][train.indices], axis=1) == train.classes
        fractions.extend(hits.tolist())
    fraction = float(np.mean(fractions))
    _report("criterion-6", fraction >= 0.9,
            f"{100 * fraction:.1f}% of training rows peak at their true class after tuning")


def _edge_ratio_tune(run_state, ratio):
    """Tune one homophilous run at one edge ratio: (test accuracy, whether the
    trainable parameter count is exactly the ratio's)."""
    g, ctx, split = run_state["g"], run_state["ctx"], run_state["split"]
    n, n_t = g.n_nodes, split.train.indices.size
    cfg = PromptConfig(seed=run_state["seed"], edge_ratio=ratio, **TUNE)
    prompted, _ = prompt_tune(ctx, split.train, cfg, val=split.val)
    trainable = int(prompted.trainable_row_mask.sum()) * prompted.weight_rows.shape[1]
    expected = (n_t + min(int(np.floor(ratio * n)), n - n_t)) * prompted.weight_rows.shape[1]
    proto = prototype_embeddings(ctx, prompted, "eval")
    return accuracy(ctx, proto, split.test, TUNE["tau"]), trainable == expected


def test_criterion_7_edge_ratio_robustness(homophilous_runs):
    runs, _ = homophilous_runs
    ratios = (0.0, 0.01, 0.1, 1.0)
    jobs = [(run_state, ratio) for run_state in runs for ratio in ratios]
    results = list(fork_map(lambda job: _edge_ratio_tune(*job), jobs))
    counts_exact = all(exact for _, exact in results)
    accs = {r: [acc for (acc, _), (_, ratio) in zip(results, jobs) if ratio == r] for r in ratios}
    means = {r: float(np.mean(v)) for r, v in accs.items()}
    gap = abs(means[0.0] - means[1.0])
    ok = counts_exact and gap <= 0.10
    _report("criterion-7", ok,
            "accuracies " + ", ".join(f"r={r}: {means[r]:.4f}" for r in ratios)
            + f"; r0-vs-r1 gap {100 * gap:.1f} pts; parameter counts exact: {counts_exact}")


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism(tmp_path, capsys):
    def one_run(tag: str):
        root = tmp_path / tag
        data, ckpt, tuned = root / "d", root / "m.ckpt", root / "t.ckpt"
        assert cli_run(["synth", "--n", "90", "--classes", "3", "--h", "0.8",
                        "--seed", "3", "--out", str(data)]) == 0
        assert cli_run(["pretrain", "--data", str(data), "--out", str(ckpt),
                        "--epochs", "25", "--hidden-dim", "32", "--seed", "3"]) == 0
        assert cli_run(["tune", "--data", str(data), "--ckpt", str(ckpt),
                        "--out", str(tuned), "--epochs", "20", "--seed", "3",
                        "--k-shot", "3", "--val-shots", "3"]) == 0
        capsys.readouterr()
        assert cli_run(["eval", "--data", str(data), "--ckpt", str(tuned),
                        "--seed", "3", "--k-shot", "3", "--val-shots", "3"]) == 0
        metric = capsys.readouterr().out
        return ckpt.read_bytes(), tuned.read_bytes(), metric

    first, second = one_run("a"), one_run("b")
    ok = first == second
    _report("criterion-8", ok,
            "checkpoints and metric lines bitwise identical across two seeded runs")


# ---------------------------------------------------------------------------
# criterion 9: optional real-data band


CORA_DIR = os.environ.get("PSP_CORA_DIR", str(Path(__file__).resolve().parent.parent / "data" / "cora"))


@pytest.mark.skipif(not Path(CORA_DIR).is_dir(),
                    reason="optional: Cora TSV dataset not provided")
def test_criterion_9_cora_band():
    g = load_node_dataset(CORA_DIR)
    accs = []
    for seed in SEEDS:
        params, _ = pretrain(g, PretrainConfig(seed=seed, **PRETRAIN))
        split = sample_k_shot(g.labels, 3, seed, val_k=VAL_K)
        ctx = task_context(g, params, "node")
        prompted, _ = prompt_tune(ctx, split.train, PromptConfig(seed=seed, **TUNE), val=split.val)
        proto = prototype_embeddings(ctx, prompted, "eval")
        accs.append(accuracy(ctx, proto, split.test, TUNE["tau"]))
    mean_acc = float(np.mean(accs))
    ok = abs(mean_acc - 0.6865) <= 0.06
    _report("criterion-9", ok, f"Cora 3-shot mean accuracy {mean_acc:.4f} (target band 0.6865 +/- 0.06)")


# ---------------------------------------------------------------------------
# criterion 10: graph classification learns

# seeds 100-104 chose the batch and the settings below; the gate runs on seeds
# no design step read (a first gate on seeds 0-4 read them, see CHANGES.md)
GRAPH_SEEDS = (200, 201, 202, 203, 204)
GRAPH_PRETRAIN = dict(epochs=50, hidden_dim=32, lr=1e-3)
GRAPH_TUNE = dict(epochs=200, lr=1e-2, dropout=0.2, tau=0.5)
GRAPH_K_SHOT = 10
# seeds 100-104: PSP 0.640 mean, PSP-np 0.607, the untuned prompt 0.571. A
# seed's accuracy on 90 test graphs has a binomial sd of 0.051 alone (0.037
# measured over the five), so the floor sits 2 such sds below the mean
GRAPH_FLOOR = 1.0 / 3.0 + 0.20


def _graph_run(root: Path, seed: int):
    """One seed of the graph task: (PSP, PSP-np and untuned-prompt test
    accuracy, relative error of the tuning gradient at the initial weights)."""
    write_ring_chord_batch(root, "RING", seed)
    g = load_tu_dataset(root, "RING")
    params, _ = pretrain(g, PretrainConfig(seed=seed, **GRAPH_PRETRAIN))
    split = sample_k_shot(g.graph_labels, GRAPH_K_SHOT, seed)
    ctx = task_context(g, params, "graph")
    tau, rate = GRAPH_TUNE["tau"], GRAPH_TUNE["dropout"]
    init, _ = prompt_tune(ctx, split.train, PromptConfig(seed=seed, **{**GRAPH_TUNE, "epochs": 0}))
    tuned, _ = prompt_tune(ctx, split.train, PromptConfig(seed=seed, **GRAPH_TUNE))
    accs = [accuracy(ctx, prototype_embeddings(ctx, p, "eval"), split.test, tau) for p in (tuned, init)]
    acc_np = accuracy(ctx, class_mean_rows(ctx.struct, split.train, ctx.n_classes), split.test, tau)

    # the first tuning step's gradient along a random direction, against a central difference
    def loss_and_grad_at(w):
        ps = PromptedGraph("graph", init.proto_features, w, init.trainable_row_mask)
        return prompt_loss_and_grad(ctx, ps, ctx.anchors[split.train.indices], split.train.classes,
                                    tau, seed, rate)

    w = init.weight_rows
    direction, h = np.random.default_rng(seed).standard_normal(w.shape), 1e-6
    slope = float((loss_and_grad_at(w)[1] * direction).sum())
    fd = (loss_and_grad_at(w + h * direction)[0] - loss_and_grad_at(w - h * direction)[0]) / (2 * h)
    return accs[0], acc_np, accs[1], abs(slope - fd) / max(abs(fd), 1e-12)


def test_criterion_10_graph_classification_learns(tmp_path):
    start = time.perf_counter()
    runs = list(fork_map(lambda seed: _graph_run(tmp_path / str(seed), seed), GRAPH_SEEDS))
    elapsed = time.perf_counter() - start
    psp = float(np.mean([r[0] for r in runs]))
    worst_grad = max(r[3] for r in runs)
    per_seed = "; ".join(f"seed {s}: PSP {r[0]:.3f} vs PSP-np {r[1]:.3f} (untuned {r[2]:.3f})"
                         for s, r in zip(GRAPH_SEEDS, runs))
    _report("criterion-10", psp >= GRAPH_FLOOR and worst_grad < 1e-5,
            f"graph task PSP {psp:.4f} (floor {GRAPH_FLOOR:.4f}), tuning gradient vs central "
            f"difference {worst_grad:.1e}, in {elapsed:.1f}s; {per_seed}")
