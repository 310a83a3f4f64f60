import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psp import autodiff
from psp.autodiff import (
    AdamState,
    CsrMatrix,
    Tape,
    Tensor,
    absolute,
    adam_step,
    add,
    backward,
    check_tau,
    dropout,
    masked_infonce,
    matmul,
    mul,
    relu,
    row_sum,
    rsqrt,
    select_rows,
    spmm,
    transpose,
)
from psp.errors import ContractError, DataError, DimensionError, NumericError, ParameterError
from psp.graph import build_csr

from oracles import (
    composite_infonce,
    cosine_sim_matrix,
    exp,
    grad_check,
    log,
    scale,
    sub,
    total_sum,
)

RNG = np.random.default_rng(1234)

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


def rand(rows, cols, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal((rows, cols)))


def identity(n):
    return CsrMatrix(sparse.eye_array(n, format="csr"))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = rand(2, 2, 1)
    out = matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(rand(2, 3), rand(2, 2))


def test_matmul_associativity_on_random_chains():
    for seed in range(5):
        a, b, c = (rand(4, 4, seed * 3 + i) for i in range(3))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# spmm


def test_spmm_identity_bitwise():
    m = rand(3, 2, 2)
    out = spmm(identity(3), m)
    assert np.array_equal(out.data, m.data)


def test_spmm_swap_case():
    s = build_csr(2, [(0, 1)])
    out = spmm(s, Tensor([[1.0], [2.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [1.0]])


def test_spmm_empty_row_gives_zero_row():
    s = build_csr(3, [(0, 1)])  # node 2 isolated
    out = spmm(s, rand(3, 2, 3))
    np.testing.assert_array_equal(out.data[2], 0.0)


def test_spmm_shape_error():
    with pytest.raises(DimensionError):
        spmm(identity(3), rand(2, 2))


def test_spmm_vjp_matches_the_materialized_transpose():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    s = CsrMatrix(sparse.csr_array(dense))
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    g = rng.standard_normal((7, 3))
    with Tape() as tape:
        spmm(s, x)
    (gx,) = tape.records[-1].vjp(g)
    assert np.array_equal(gx, s.csr.T.tocsr() @ g)
    np.testing.assert_allclose(gx, s.to_dense().T @ g, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# elementwise family


def test_relu_signs():
    out = relu(Tensor([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_add_identity_and_scale_zero():
    m = rand(3, 3, 6)
    np.testing.assert_array_equal(add(m, Tensor(np.zeros((3, 3)))).data, m.data)
    np.testing.assert_array_equal(scale(m, 0.0).data, np.zeros((3, 3)))


def test_add_shape_error():
    with pytest.raises(DimensionError):
        add(rand(2, 3), rand(3, 2))


def test_mul_rejects_outer_broadcast():
    with pytest.raises(DimensionError):
        mul(rand(3, 1), rand(1, 4))


def test_row_vector_and_col_vector_broadcasts():
    m = rand(3, 4, 8)
    row = rand(1, 4, 9)
    col = rand(3, 1, 10)
    np.testing.assert_allclose(add(m, row).data, m.data + row.data)
    np.testing.assert_allclose(mul(m, col).data, m.data * col.data)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_eval_is_identity():
    m = rand(4, 4, 11)
    assert dropout(m, 0.7, seed=3, training=False) is m


def test_dropout_p_zero_is_identity():
    m = rand(4, 4, 12)
    assert dropout(m, 0.0, seed=3, training=True) is m


def test_dropout_survivor_fraction():
    m = Tensor(np.ones((100, 100)))
    out = dropout(m, 0.5, seed=5, training=True)
    survivors = np.count_nonzero(out.data) / out.data.size
    assert abs(survivors - 0.5) < 0.03
    # survivors carry the inverted scale
    assert np.allclose(out.data[out.data != 0], 2.0)


def test_dropout_bad_probability():
    with pytest.raises(ParameterError):
        dropout(rand(2, 2), 1.0, seed=0, training=True)
    with pytest.raises(ParameterError):
        dropout(rand(2, 2), -0.1, seed=0, training=True)


def test_dropout_is_pure_in_seed():
    m = rand(6, 6, 13)
    a = dropout(m, 0.4, seed=21, training=True)
    b = dropout(m, 0.4, seed=21, training=True)
    assert np.array_equal(a.data, b.data)
    c = dropout(m, 0.4, seed=22, training=True)
    assert not np.array_equal(a.data, c.data)


def test_dropout_ordinal_advances_within_a_tape():
    m = Tensor(np.ones((8, 8)), requires_grad=True)
    with Tape():
        first = dropout(m, 0.5, seed=4, training=True)
        second = dropout(m, 0.5, seed=4, training=True)
    assert not np.array_equal(first.data, second.data)


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_self_similarity():
    for scale_factor in (1.0, 1e-3, 2e-6):
        v = Tensor(np.array([[3.0, 4.0]]) * scale_factor)
        assert abs(cosine_sim_matrix(v, v).data[0, 0] - 1.0) < 1e-9


def test_cosine_orthogonal_and_hand_value():
    a = Tensor([[1.0, 0.0]])
    assert cosine_sim_matrix(a, Tensor([[0.0, 1.0]])).data[0, 0] == pytest.approx(0.0, abs=1e-12)
    got = cosine_sim_matrix(a, Tensor([[1.0, 1.0]])).data[0, 0]
    assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_zero_row_guard():
    out = cosine_sim_matrix(Tensor([[0.0, 0.0]]), Tensor([[1.0, 2.0]]))
    assert out.data[0, 0] == 0.0


def test_cosine_zero_row_gets_zero_gradient():
    a = Tensor([[0.0, 0.0], [1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = total_sum(cosine_sim_matrix(a, Tensor([[1.0, -1.0], [0.5, 3.0]])))
    backward(tape, loss)
    assert np.array_equal(a.grad[0], [0.0, 0.0]) and np.abs(a.grad[1]).max() < 1.0


def test_cosine_dimension_error():
    with pytest.raises(DimensionError):
        cosine_sim_matrix(rand(2, 3), rand(2, 4))


@settings(max_examples=30, deadline=None)
@given(finite_matrices, finite_matrices)
def test_cosine_entries_bounded(a, b):
    if a.shape[1] != b.shape[1]:
        b = np.resize(b, (b.shape[0], a.shape[1]))
    out = cosine_sim_matrix(Tensor(a), Tensor(b)).data
    assert np.all(out >= -1 - 1e-9) and np.all(out <= 1 + 1e-9)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = total_sum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic_gives_x():
    x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    with Tape() as tape:
        loss = scale(total_sum(mul(x, x)), 0.5)
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)


def test_backward_requires_scalar_loss():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_twice_accumulates():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = total_sum(scale(x, 2.0))
    backward(tape, loss)
    first = x.grad.copy()
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_frozen_tensors_stay_gradless():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    c = Tensor(RNG.standard_normal((2, 2)))
    with Tape() as tape:
        loss = total_sum(mul(x, c))
    backward(tape, loss)
    assert c.grad is None and x.grad is not None


def test_backward_mlp_composite_matches_finite_differences():
    rng = np.random.default_rng(99)
    w1, b1 = Tensor(rng.standard_normal((3, 5))), Tensor(rng.standard_normal((1, 5)))
    w2 = Tensor(rng.standard_normal((5, 1)))

    def f(t):
        h = relu(add(matmul(t, w1), b1))
        return total_sum(mul(matmul(h, w2), matmul(h, w2)))

    assert grad_check(f, Tensor(rng.standard_normal((4, 3))), h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_grad_is_identity():
    p = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    before = p.data.copy()
    p.grad = np.zeros((3, 3))
    adam_step([p], AdamState(lr=0.1, weight_decay=0.0))
    assert np.array_equal(p.data, before)


def test_adam_first_step_closed_form():
    p = Tensor(np.zeros((1, 1)), requires_grad=True)
    p.grad = np.ones((1, 1))
    adam_step([p], AdamState(lr=0.1))
    # m_hat = v_hat = 1 on the first unit-gradient step
    assert p.data[0, 0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-12)


def test_adam_counter_semantics():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState(lr=0.01)
    assert state.t == 0
    for _ in range(2):
        p.grad = np.ones((2, 2))
        adam_step([p], state)
    assert state.t == 2


def test_adam_missing_grad_names_parameter():
    p = Tensor(np.zeros((2, 2)), requires_grad=True, name="prompt_weights")
    with pytest.raises(ContractError, match="prompt_weights"):
        adam_step([p], AdamState())


@pytest.mark.parametrize("grad", [1e200, np.inf])
def test_adam_refuses_a_non_finite_moment_naming_the_parameter(grad):
    # 1e200 squared overflows only the second moment, whose inf would make the update a silent 0
    p = Tensor(np.zeros((2, 2)), requires_grad=True, name="prompt_weights")
    p.grad = np.full((2, 2), grad)
    with pytest.raises(NumericError, match="moment of parameter prompt_weights is non-finite"):
        adam_step([p], AdamState(lr=0.1))
    assert np.array_equal(p.data, np.zeros((2, 2)))


def test_adam_grads_cleared_after_step():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    p.grad = np.ones((2, 2))
    adam_step([p], AdamState(lr=0.1))
    assert p.grad is None


def test_adam_decoupled_weight_decay():
    p = Tensor(np.full((1, 1), 2.0), requires_grad=True)
    p.grad = np.zeros((1, 1))
    adam_step([p], AdamState(lr=0.1, weight_decay=0.5))
    assert p.data[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


@settings(max_examples=20, deadline=None)
@given(finite_matrices)
def test_adam_zero_grad_identity_property(values):
    p = Tensor(values, requires_grad=True)
    before = p.data.copy()
    p.grad = np.zeros_like(values)
    adam_step([p], AdamState(lr=0.3, weight_decay=0.0))
    assert np.array_equal(p.data, before)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_exact_linear():
    x = Tensor(RNG.standard_normal((3, 3)))
    assert grad_check(total_sum, x) < 1e-10


def test_grad_check_detects_wrong_gradients():
    def f_bad(t):
        # forward value 2*sum(t), but only half of it is differentiated
        return add(total_sum(t), total_sum(t.detach()))

    x = Tensor(RNG.standard_normal((2, 2)))
    assert grad_check(f_bad, x) > 1e-2


def test_grad_check_flags_non_finite():
    from psp.errors import NumericError

    x = Tensor(np.full((1, 1), -1.0))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        grad_check(lambda t: log(t), x)


# ---------------------------------------------------------------------------
# every differentiable op passes the finite-difference oracle


def _op_cases():
    rng = np.random.default_rng(7)
    m33 = Tensor(rng.standard_normal((3, 3)))
    m34 = Tensor(rng.standard_normal((3, 4)))
    m43 = Tensor(rng.standard_normal((4, 3)))
    positive = Tensor(np.abs(rng.standard_normal((4, 3))) + 0.5)
    probe43 = Tensor(rng.standard_normal((4, 3)))
    probe63 = Tensor(rng.standard_normal((6, 3)))
    probe44 = Tensor(rng.standard_normal((4, 4)))
    col = Tensor(rng.standard_normal((4, 1)))
    csr = build_csr(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases = {
        "matmul_left": (lambda t: total_sum(matmul(t, m34)), m43),
        "matmul_right": (lambda t: total_sum(matmul(m43, t)), m34),
        "transpose": (lambda t: total_sum(mul(transpose(t), m34)), m43),
        "spmm_dense": (lambda t: total_sum(mul(spmm(csr, t), probe43)), m43),
        "select_rows": (lambda t: total_sum(mul(select_rows(t, [0, 2, 1, 2, 0, 1]), probe63)), m43),
        "select_rows_range": (lambda t: total_sum(mul(select_rows(t, [1, 2, 3]), m33)), m43),
        "add": (lambda t: total_sum(mul(add(t, probe43), probe43)), m43),
        "add_row_bcast": (lambda t: total_sum(mul(add(m43, t), probe43)), Tensor(rng.standard_normal((1, 3)))),
        "add_col_bcast": (lambda t: total_sum(mul(add(m43, t), probe43)), col),
        "mul": (lambda t: total_sum(mul(mul(t, probe43), probe43)), m43),
        "mul_col_bcast": (lambda t: total_sum(mul(mul(m43, t), probe43)), col),
        "scale": (lambda t: total_sum(scale(t, -2.5)), m43),
        "sub": (lambda t: total_sum(mul(sub(t, probe43), probe43)), m43),
        "relu": (lambda t: total_sum(relu(t)), m43),
        "absolute": (lambda t: total_sum(absolute(t)), Tensor(rng.standard_normal((4, 3)) + 0.2)),
        "exp": (lambda t: total_sum(exp(t)), m33),
        "log": (lambda t: total_sum(log(t)), positive),
        "rsqrt": (lambda t: total_sum(rsqrt(t)), positive),
        "row_sum": (lambda t: total_sum(mul(row_sum(t), col)), m43),
        "total_sum": (lambda t: scale(total_sum(t), 3.0), m43),
        "dropout": (lambda t: total_sum(dropout(t, 0.3, 11, True)), m43),
        "cosine": (lambda t: total_sum(mul(cosine_sim_matrix(t, m33), probe43)), m43),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_each_op_passes_grad_check(name):
    f, x = _op_cases()[name]
    assert grad_check(f, x, h=1e-5) < 1e-4, name


def test_cosine_passes_grad_check_both_sides():
    rng = np.random.default_rng(17)
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((5, 3)))
    probe = Tensor(rng.standard_normal((4, 5)))
    assert grad_check(lambda t: total_sum(mul(cosine_sim_matrix(t, b), probe)), a) < 1e-4
    probe_t = Tensor(rng.standard_normal((4, 5)))
    assert grad_check(lambda t: total_sum(mul(cosine_sim_matrix(a, t), probe_t)), b) < 1e-4


# ---------------------------------------------------------------------------
# fused, row-blocked InfoNCE


def _value_and_grads(loss_fn, a, b):
    za, zb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = loss_fn(za, zb)
    backward(tape, loss)
    return loss.item(), za.grad, zb.grad


# (anchor rows, candidate rows, block rows, diagonal positives, zeroed rows)
INFONCE_CASES = {
    "random": (37, 37, 8, True, ()),
    "zero_rows": (37, 37, 8, True, (0, 5, 36)),
    "block_multiple": (32, 32, 8, True, ()),
    "n_below_block": (6, 6, None, True, ()),
    "prompt_labels": (23, 4, 5, False, (3,)),
}


@pytest.mark.parametrize("exclude_positive", [True, False])
@pytest.mark.parametrize("case", sorted(INFONCE_CASES))
def test_masked_infonce_matches_composite(case, exclude_positive, monkeypatch):
    m, n, block, diagonal, zero_rows = INFONCE_CASES[case]
    if block is not None:
        monkeypatch.setattr(autodiff, "_INFONCE_BLOCK_ROWS", block)
    rng = np.random.default_rng(len(case))
    a, b = rng.standard_normal((m, 6)), rng.standard_normal((n, 6))
    a[list(zero_rows)] = 0.0
    b[[r for r in zero_rows if r < n]] = 0.0
    positives = np.arange(m) if diagonal else rng.integers(0, n, size=m)
    fused = _value_and_grads(
        lambda x, y: masked_infonce(x, y, positives, 0.5, exclude_positive), a, b)
    oracle = _value_and_grads(
        lambda x, y: composite_infonce(x, y, positives, 0.5, exclude_positive), a, b)
    assert abs(fused[0] - oracle[0]) <= 1e-12
    for got, want in zip(fused[1:], oracle[1:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("exclude_positive", [True, False])
def test_masked_infonce_grad_check_both_inputs(exclude_positive, monkeypatch):
    monkeypatch.setattr(autodiff, "_INFONCE_BLOCK_ROWS", 2)
    rng = np.random.default_rng(31)
    z1, z2 = Tensor(rng.standard_normal((5, 3))), Tensor(rng.standard_normal((4, 3)))
    positives = [2, 0, 3, 3, 1]
    assert grad_check(lambda t: masked_infonce(t, z2, positives, 0.7, exclude_positive), z1) < 1e-4
    assert grad_check(lambda t: masked_infonce(z1, t, positives, 0.7, exclude_positive), z2) < 1e-4


@pytest.mark.parametrize("s1,s2", [(1e3, 1.0), (1.0, 1e3), (1e-9, 1.0), (1.0, 1e-9),
                                   (1e-7, 1e-6)])
def test_masked_infonce_cosines_are_exact_for_any_nonzero_row(s1, s2):
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))

    def loss(x, y):
        return masked_infonce(Tensor(x), Tensor(y), np.arange(9), 0.5, True).item()

    assert abs(loss(a * s1, b * s2) - loss(a, b)) <= 1e-12


def _infonce_through_leaves(seed_scale=None):
    """Tape, loss and leaves of an InfoNCE whose first view passes through a matmul."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((7, 3)))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
    with Tape() as tape:
        loss = masked_infonce(matmul(x, w), z2, np.arange(7), 0.5, exclude_positive=True)
        if seed_scale is not None:
            loss = scale(loss, seed_scale)
    return tape, loss, w, z2


def test_backward_twice_over_infonce_doubles_the_leaf_grads():
    tape, loss, w, z2 = _infonce_through_leaves()
    backward(tape, loss)
    first = w.grad.copy(), z2.grad.copy()
    backward(tape, loss)
    np.testing.assert_array_equal(w.grad, 2 * first[0])
    np.testing.assert_array_equal(z2.grad, 2 * first[1])


def test_masked_infonce_vjp_is_linear_in_its_seed():
    tape, loss, w, z2 = _infonce_through_leaves()
    backward(tape, loss)
    tape3, loss3, w3, z23 = _infonce_through_leaves(seed_scale=3.0)
    backward(tape3, loss3)
    np.testing.assert_allclose(w3.grad, 3 * w.grad, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(z23.grad, 3 * z2.grad)


def test_masked_infonce_hands_over_read_only_grads():
    tape, loss, _, z2 = _infonce_through_leaves()
    backward(tape, loss)
    assert z2.grad is tape.records[-1].vjp(np.ones((1, 1)))[1]  # no copy for a unit seed
    with pytest.raises(ValueError, match="read-only"):
        z2.grad += 1.0


def test_masked_infonce_value_is_the_same_without_a_tape():
    rng = np.random.default_rng(47)
    a, b = rng.standard_normal((300, 5)), rng.standard_normal((300, 5))
    with Tape() as tape:
        taped = masked_infonce(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True),
                               np.arange(300), 0.5, exclude_positive=True)
    untaped = masked_infonce(Tensor(a), Tensor(b), np.arange(300), 0.5, exclude_positive=True)
    assert len(tape.records) == 1 and taped.item() == untaped.item()


def test_masked_infonce_memory_is_row_blocked():
    n = 4000
    rng = np.random.default_rng(5)
    z1 = Tensor(rng.standard_normal((n, 16)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((n, 16)), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = masked_infonce(z1, z2, np.arange(n), 0.5, exclude_positive=True)
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item()) and z1.grad.shape == z2.grad.shape == (n, 16)
    assert peak < n * n * 8 / 4, f"peak {peak / 2**20:.1f} MiB"


def test_masked_infonce_rejects_bad_positives():
    z = rand(3, 2)
    with pytest.raises(ContractError):
        masked_infonce(z, z, [0, 1], 1.0, exclude_positive=True)
    with pytest.raises(DataError):
        masked_infonce(z, z, [0, 1, 3], 1.0, exclude_positive=True)
    with pytest.raises(ContractError):
        masked_infonce(z, rand(1, 2), [0, 0, 0], 1.0, exclude_positive=True)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
def test_masked_infonce_rejects_bad_tau(tau):
    z = rand(3, 2)
    with pytest.raises(ParameterError, match="tau must be a positive finite number"):
        masked_infonce(z, z, [0, 1, 2], tau, exclude_positive=True)


def test_check_tau_refuses_a_tau_with_an_infinite_reciprocal():
    with pytest.raises(ParameterError, match="finite reciprocal, got 5e-324"):
        check_tau(5e-324)
    assert check_tau(1e-308) == 1e-308


# ---------------------------------------------------------------------------
# lean tape: no copies, no gradients nobody asked for, no aliased leaf grads


def test_vjp_skips_inputs_without_grad():
    x, w = rand(4, 3, 1), Tensor(rand(3, 2, 2).data, requires_grad=True)
    with Tape() as tape:
        matmul(x, w)
    gx, gw = tape.records[0].vjp(np.ones((4, 2)))
    assert gx is None and gw.shape == (3, 2)


@pytest.mark.parametrize("op", [add])
def test_leaf_grads_share_no_memory(op):
    a = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        loss = total_sum(op(a, b))
    backward(tape, loss)
    assert not np.shares_memory(a.grad, b.grad)


def test_backward_frees_each_gradient_after_its_vjp():
    x = Tensor(RNG.standard_normal((128, 1024)), requires_grad=True)  # 1 MiB
    c = Tensor(np.full((128, 1024), 0.999))
    with Tape() as tape:
        h = x
        for _ in range(31):
            h = mul(h, c)
        loss = total_sum(h)
    assert len(tape.records) == 32
    tracemalloc.start()
    try:
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(x.grad, 0.999 ** 31, rtol=1e-12)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"  # all 32 gradients at once: 33 MB


def test_backward_fills_only_leaf_grads():
    x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        h = matmul(x, w)
        r = relu(h)
        loss = total_sum(r)
    backward(tape, loss)
    assert h.grad is None and r.grad is None and loss.grad is None
    gate = 1.0 * (h.data > 0)
    np.testing.assert_array_equal(x.grad, gate @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ gate)
    leaf_loss = Tensor([[2.0]], requires_grad=True)
    backward(Tape(), leaf_loss)
    np.testing.assert_array_equal(leaf_loss.grad, [[1.0]])


# (a, b) shapes for add and mul: None where the op broadcasts, else the error raised
BROADCAST_TABLE = [
    ((3, 4), (3, 4), None),
    ((1, 4), (3, 4), None),
    ((3, 4), (1, 4), None),
    ((3, 1), (3, 4), None),
    ((3, 4), (3, 1), None),
    ((1, 1), (1, 4), None),
    ((1, 4), (1, 1), None),
    ((1, 1), (3, 1), None),
    ((3, 1), (1, 1), None),
    ((1, 1), (1, 1), None),
    ((0, 4), (1, 4), None),
    ((0, 4), (0, 1), None),
    ((1, 0), (1, 1), None),
    ((0, 1), (1, 1), None),
    ((1, 4), (3, 1), DimensionError),
    ((3, 1), (1, 4), DimensionError),
    ((1, 1), (3, 4), DimensionError),
    ((3, 4), (1, 1), DimensionError),
    ((0, 0), (1, 1), DimensionError),
    ((2, 3), (3, 2), DimensionError),
    ((3, 4), (2, 4), DimensionError),
    ((3, 4), (3, 2), DimensionError),
    ((3, 4), (1, 2), DimensionError),
]


@pytest.mark.parametrize("op,np_op", [(add, np.add), (mul, np.multiply)])
@pytest.mark.parametrize("sa,sb,error", BROADCAST_TABLE)
def test_elementwise_broadcast_table(op, np_op, sa, sb, error):
    a = Tensor(RNG.standard_normal(sa), requires_grad=True)
    b = Tensor(RNG.standard_normal(sb), requires_grad=True)
    if error is not None:
        with pytest.raises(error):
            op(a, b)
        return
    with Tape() as tape:
        out = op(a, b)
        loss = total_sum(out)
    np.testing.assert_array_equal(out.data, np_op(a.data, b.data))
    backward(tape, loss)
    for t, other in ((a, b), (b, a)):
        # d(sum)/dt sums the other side's (or ones') broadcast copies back to t's shape
        dense = np.ones(out.shape) if op is add else np.broadcast_to(other.data, out.shape)
        want = dense.sum(axis=tuple(i for i in (0, 1) if t.shape[i] != out.shape[i]),
                         keepdims=True)
        np.testing.assert_allclose(t.grad, want, rtol=1e-12)


def test_tensor_constructor_copies_its_argument():
    arr = np.ones((2, 2))
    t = Tensor(arr)
    arr[0, 0] = 5.0
    assert t.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# CsrMatrix invariants


@pytest.mark.parametrize("offsets,indices,values", [
    ([0, 1], [0], [1.0]),
    ([0, 2, 2], [1, 0], [1.0, 1.0]),
    ([0, 1, 2], [0, 2], [1.0, 1.0]),
    ([0, 1, 2], [0, 1], [1.0]),
    ([1, 1, 2], [0, 1], [1.0, 1.0]),
    ([0, 1, 1], [0, 1], [1.0, 1.0]),
    ([0, 2, 2], [0, 0], [1.0, 1.0]),
], ids=["offsets_too_short", "not_increasing_in_row", "col_out_of_range", "values_misaligned",
        "offsets_not_from_zero", "offsets_end_before_entries", "repeated_col_in_row"])
def test_csr_validation(offsets, indices, values):
    with pytest.raises(DataError):
        CsrMatrix((values, indices, offsets), shape=(2, 2))


def test_csr_identity_roundtrip():
    eye = identity(4)
    np.testing.assert_array_equal(eye.to_dense(), np.eye(4))
    assert eye.nnz == 4
