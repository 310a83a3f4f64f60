
import numpy as np
import pytest

from psp.autodiff import derive_seed
from psp.data import generate_sbm
from psp.encoders import PARAM_NAMES, init_encoder_params
from psp.errors import ContractError, NumericError, ParameterError
from psp.graph import gcn_normalize
from psp.pretrain import PretrainConfig, ntxent_pretrain_loss, pretrain, write_loss_log

from oracles import (
    Tape,
    backward,
    composed_gnn_forward,
    composed_mlp_forward,
    composite_infonce,
    encoder_leaves,
    grad_check,
    params_checksum,
)


# ---------------------------------------------------------------------------
# loss values


def test_loss_hand_case_n2():
    # sim(anchor, positive) = 1, sim(anchor, negative) = 0 for both anchors
    assert ntxent_pretrain_loss(np.eye(2), np.eye(2), tau=1.0)[0] == pytest.approx(-1.0, abs=1e-9)


def test_loss_hand_case_n3_orthogonal():
    expected = -1.0 + np.log(2.0)
    assert ntxent_pretrain_loss(np.eye(3), np.eye(3), tau=1.0)[0] == pytest.approx(expected, abs=1e-9)


def test_loss_scale_invariance():
    rng = np.random.default_rng(0)
    z1, z2 = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    base = ntxent_pretrain_loss(z1, z2, tau=0.5)[0]
    scaled = ntxent_pretrain_loss(5.0 * z1, 5.0 * z2, tau=0.5)[0]
    assert scaled == pytest.approx(base, abs=1e-9)
    # per-row positive rescaling too
    row_scaled = z1 * rng.uniform(0.5, 3.0, size=(5, 1))
    assert ntxent_pretrain_loss(row_scaled, z2, tau=0.5)[0] == pytest.approx(base, abs=1e-9)


def test_loss_needs_two_rows():
    one = np.array([[1.0, 0.0]])
    with pytest.raises(ContractError):
        ntxent_pretrain_loss(one, one, tau=1.0)


def test_loss_shape_mismatch():
    with pytest.raises(ContractError):
        ntxent_pretrain_loss(np.eye(2), np.eye(3), tau=1.0)


def test_loss_view_order_matters_but_stays_finite():
    rng = np.random.default_rng(1)
    z1, z2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    forward = ntxent_pretrain_loss(z1, z2, 0.5)[0]
    swapped = ntxent_pretrain_loss(z2, z1, 0.5)[0]
    assert np.isfinite(forward) and np.isfinite(swapped)


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_loss_gradients_both_views(tau):
    rng = np.random.default_rng(2)
    z2 = rng.standard_normal((4, 3))
    err = grad_check(lambda t: ntxent_pretrain_loss(t, z2, tau)[:2], rng.standard_normal((4, 3)))
    assert err < 1e-4
    z1 = rng.standard_normal((4, 3))
    err = grad_check(lambda t: ntxent_pretrain_loss(z1, t, tau)[::2], rng.standard_normal((4, 3)))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the hand-chained step against the tape


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("seed", [0, 7])
def test_pretraining_step_gradients_match_the_tape(dropout, seed, monkeypatch):
    """The eight named gradients that one epoch hands to Adam, within 1e-12 of
    the oracle tape's `backward` over the composed encoders and InfoNCE at the
    same initial weights, seed and dropout streams."""
    g = generate_sbm(40, 3, 0.8, 4.0, 6, 0.5, seed=seed)
    cfg = PretrainConfig(epochs=1, hidden_dim=5, dropout=dropout, seed=seed)
    handed = []  # the record's step calls `adam_step` by its name in `psp.autodiff`
    monkeypatch.setattr("psp.autodiff.adam_step", lambda params, grads, state: handed.append(grads))
    pretrain(g, cfg)
    leaves = encoder_leaves(init_encoder_params(6, 5, seed))
    a_norm, epoch_seed = gcn_normalize(g.adjacency), derive_seed(seed, 0)
    with Tape() as tape:
        z1 = composed_mlp_forward(g.features, leaves, "train", epoch_seed, dropout)
        z2 = composed_gnn_forward(g.features, a_norm, leaves, "train", epoch_seed, dropout)
        want = backward(tape, composite_infonce(z1, z2, np.arange(40), cfg.tau))
    (got,) = handed
    assert sorted(got) == sorted(PARAM_NAMES)
    for name in PARAM_NAMES:
        np.testing.assert_allclose(got[name], want[leaves[name]], rtol=0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ParameterError):
        PretrainConfig(tau=0.0)
    with pytest.raises(ParameterError):
        PretrainConfig(dropout=1.0)
    with pytest.raises(ParameterError):
        PretrainConfig(epochs=-1)


@pytest.mark.parametrize("field,value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0), ("lr", 0.0),
    ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("weight_decay", -1e-4),
])
def test_config_rejects_bad_optimizer_settings(field, value):
    PretrainConfig(weight_decay=0.0)
    kind = "positive" if field == "lr" else "non-negative"
    with pytest.raises(ParameterError, match=f"{field} must be a {kind} finite number"):
        PretrainConfig(**{field: value})


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_config_and_loss_reject_bad_tau(tau):
    with pytest.raises(ParameterError, match="tau"):
        PretrainConfig(tau=tau)
    with pytest.raises(ParameterError, match="tau"):
        ntxent_pretrain_loss(np.eye(2), np.eye(2), tau=tau)


# ---------------------------------------------------------------------------
# training loop


@pytest.fixture(scope="module")
def small_graph():
    return generate_sbm(60, 3, 0.8, 8.0, 16, 0.5, seed=0)


def test_pretrain_zero_epochs_returns_frozen_init(small_graph):
    params, record = pretrain(small_graph, PretrainConfig(epochs=0, hidden_dim=8, seed=3))
    assert record.losses == [] and record.stop == "epochs"
    reference = init_encoder_params(16, 8, seed=3)
    for name in PARAM_NAMES:
        assert np.array_equal(params[name], reference[name])


def test_pretrain_descends_on_small_graph(small_graph):
    _, record = pretrain(small_graph, PretrainConfig(epochs=200, hidden_dim=32, seed=0))
    assert len(record.losses) == 200 and record.stop == "epochs"
    assert record.losses[-1] < record.losses[0]


def test_pretrain_seed_determinism(small_graph):
    a, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=5))
    b, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=5))
    assert params_checksum(a) == params_checksum(b)
    c, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=6))
    assert params_checksum(a) != params_checksum(c)


def test_pretrain_loss_window_means_decrease():
    g = generate_sbm(300, 3, 0.8, 10.0, 16, 0.5, seed=1)
    _, record = pretrain(g, PretrainConfig(epochs=50, hidden_dim=64, seed=1))
    windows = np.array(record.losses).reshape(10, 5).mean(axis=1)
    assert all(windows[i + 1] <= windows[i] for i in range(9))


def test_pretrain_aborts_on_non_finite():
    g = generate_sbm(20, 2, 0.5, 4.0, 8, 0.5, seed=9)
    g.features[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="^pre-training loss became non-finite at epoch 0, last finite loss none$"):
        pretrain(g, PretrainConfig(epochs=3, hidden_dim=8, seed=0))


def test_pretrain_epoch_peak_stays_near_the_arrays_it_needs(traced_peak):
    """One full-batch epoch at N=2000, hidden 128, dropout 0.2. Each encoder
    keeps only its output and rebuilds its hidden layer in its VJP; the loss normalizes both views in place, holds one block of logits
    at a time, stores the anchor gradient over the anchors' unit rows and adds
    into the other view's gradient through a small buffer (about 6.3 N x h
    float64 arrays at peak). Normalizing copies of the views and adding one
    N x h product per block, it held 8.4; keeping the hidden layers, a
    separate anchor gradient and two blocks at once, 12.4; as 6-8 generic
    tape ops per encoder, 24.7."""
    n, hidden = 2000, 128
    g = generate_sbm(n, 3, 0.8, 2.5, 64, 0.5, seed=0)
    _, peak = traced_peak(lambda: pretrain(g, PretrainConfig(epochs=1, hidden_dim=hidden, dropout=0.2)),
                          n, hidden)
    assert peak < 6.5, f"peak {peak:.2f} N x h arrays"


@pytest.mark.parametrize("tau", [1e-200, 1e-160])
def test_pretrain_names_the_epoch_adam_refuses(tau):
    """Tiny temperatures give finite losses whose gradients overflow Adam's moments."""
    g = generate_sbm(20, 2, 0.5, 4.0, 8, 0.5, seed=9)
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^adam_step: a moment of parameter mlp_w1 is non-finite, "
                                r"gradient max-abs \S+ at epoch 0, loss \S+$"):
        pretrain(g, PretrainConfig(epochs=3, hidden_dim=8, seed=0, tau=tau))


def test_pretrain_rejects_single_node():
    from psp.graph import GraphData, build_csr

    g = GraphData(features=np.ones((1, 2)), adjacency=build_csr(1, []),
                  labels=np.array([0]))
    with pytest.raises(ContractError):
        pretrain(g, PretrainConfig(epochs=1, hidden_dim=4))


def test_write_loss_log(tmp_path):
    path = tmp_path / "loss.tsv"
    write_loss_log(path, [1.5, 0.75])
    lines = path.read_text().splitlines()
    assert lines[0] == "0\t1.5" and lines[1] == "1\t0.75"
    write_loss_log(path, [])  # no epochs: an empty file
    assert path.read_bytes() == b""
    losses = [0.1 + 0.2, 5e-324, -1e-300]  # a long repr, a subnormal, a tiny negative
    write_loss_log(path, losses)
    assert path.read_bytes() == "".join(f"{epoch}\t{value!r}\n"
                                        for epoch, value in enumerate(losses)).encode()
