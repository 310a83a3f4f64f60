import numpy as np
import pytest

from psp.autodiff import Tensor, masked_infonce
from psp.data import generate_sbm
from psp.encoders import parameters
from psp.errors import ContractError, NumericError, ParameterError
from psp.pretrain import PretrainConfig, ntxent_pretrain_loss, pretrain, write_loss_log

from oracles import grad_check, params_checksum


# ---------------------------------------------------------------------------
# loss values


def test_loss_hand_case_n2():
    # sim(anchor, positive) = 1, sim(anchor, negative) = 0 for both anchors
    z = Tensor(np.eye(2))
    assert ntxent_pretrain_loss(z, Tensor(np.eye(2)), tau=1.0).item() == pytest.approx(-1.0, abs=1e-9)


def test_loss_hand_case_n3_orthogonal():
    z = Tensor(np.eye(3))
    expected = -1.0 + np.log(2.0)
    assert ntxent_pretrain_loss(z, Tensor(np.eye(3)), tau=1.0).item() == pytest.approx(expected, abs=1e-9)


def test_loss_scale_invariance():
    rng = np.random.default_rng(0)
    z1, z2 = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    base = ntxent_pretrain_loss(Tensor(z1), Tensor(z2), tau=0.5).item()
    scaled = ntxent_pretrain_loss(Tensor(5.0 * z1), Tensor(5.0 * z2), tau=0.5).item()
    assert scaled == pytest.approx(base, abs=1e-9)
    # per-row positive rescaling too
    row_scaled = z1 * rng.uniform(0.5, 3.0, size=(5, 1))
    assert ntxent_pretrain_loss(Tensor(row_scaled), Tensor(z2), tau=0.5).item() == \
        pytest.approx(base, abs=1e-9)


def test_loss_needs_two_rows():
    one = Tensor([[1.0, 0.0]])
    with pytest.raises(ContractError):
        ntxent_pretrain_loss(one, one, tau=1.0)


def test_loss_shape_mismatch():
    with pytest.raises(ContractError):
        ntxent_pretrain_loss(Tensor(np.eye(2)), Tensor(np.eye(3)), tau=1.0)


def test_loss_positive_in_denominator_variant():
    z = Tensor(np.eye(2))
    verbatim = ntxent_pretrain_loss(z, z, 1.0).item()
    standard = masked_infonce(z, z, np.arange(2), 1.0, exclude_positive=False).item()
    # the conventional form includes the positive, so its value is larger:
    # -(1 - log(e + 1)) per anchor
    assert standard > verbatim
    assert standard == pytest.approx(np.log(np.e + 1.0) - 1.0, abs=1e-9)


def test_loss_view_order_matters_but_stays_finite():
    rng = np.random.default_rng(1)
    z1, z2 = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 3)))
    forward = ntxent_pretrain_loss(z1, z2, 0.5).item()
    swapped = ntxent_pretrain_loss(z2, z1, 0.5).item()
    assert np.isfinite(forward) and np.isfinite(swapped)


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_loss_gradients_both_views(tau):
    rng = np.random.default_rng(2)
    z2 = Tensor(rng.standard_normal((4, 3)))
    err = grad_check(lambda t: ntxent_pretrain_loss(t, z2, tau), Tensor(rng.standard_normal((4, 3))))
    assert err < 1e-4
    z1 = Tensor(rng.standard_normal((4, 3)))
    err = grad_check(lambda t: ntxent_pretrain_loss(z1, t, tau), Tensor(rng.standard_normal((4, 3))))
    assert err < 1e-4


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
        ntxent_pretrain_loss(Tensor(np.eye(2)), Tensor(np.eye(2)), tau=tau)


# ---------------------------------------------------------------------------
# training loop


@pytest.fixture(scope="module")
def small_graph():
    return generate_sbm(60, 3, 0.8, 8.0, 16, 0.5, seed=0)


def test_pretrain_zero_epochs_returns_frozen_init(small_graph):
    params, losses = pretrain(small_graph, PretrainConfig(epochs=0, hidden_dim=8, seed=3))
    assert params.frozen and losses == []
    from psp.encoders import init_encoder_params

    reference = init_encoder_params(16, 8, seed=3)
    for got, want in zip(parameters(params), parameters(reference)):
        assert np.array_equal(got.data, want.data)


def test_pretrain_descends_on_small_graph(small_graph):
    _, losses = pretrain(small_graph, PretrainConfig(epochs=200, hidden_dim=32, seed=0))
    assert losses[-1] < losses[0]


def test_pretrain_seed_determinism(small_graph):
    a, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=5))
    b, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=5))
    assert params_checksum(a) == params_checksum(b)
    c, _ = pretrain(small_graph, PretrainConfig(epochs=12, hidden_dim=16, seed=6))
    assert params_checksum(a) != params_checksum(c)


def test_pretrain_loss_window_means_decrease():
    g = generate_sbm(300, 3, 0.8, 10.0, 16, 0.5, seed=1)
    _, losses = pretrain(g, PretrainConfig(epochs=50, hidden_dim=64, seed=1))
    windows = np.array(losses).reshape(10, 5).mean(axis=1)
    assert all(windows[i + 1] <= windows[i] for i in range(9))


def test_pretrain_aborts_on_non_finite():
    g = generate_sbm(20, 2, 0.5, 4.0, 8, 0.5, seed=9)
    g.features.data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
        pretrain(g, PretrainConfig(epochs=3, hidden_dim=8, seed=0))


def test_pretrain_rejects_single_node():
    from psp.autodiff import Tensor as T
    from psp.graph import GraphData, build_csr

    g = GraphData(features=T(np.ones((1, 2))), adjacency=build_csr(1, []),
                  labels=np.array([0]))
    with pytest.raises(ContractError):
        pretrain(g, PretrainConfig(epochs=1, hidden_dim=4))


def test_write_loss_log(tmp_path):
    path = tmp_path / "loss.tsv"
    write_loss_log(path, [1.5, 0.75])
    lines = path.read_text().splitlines()
    assert lines[0] == "0\t1.5" and lines[1] == "1\t0.75"
