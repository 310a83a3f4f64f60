import re

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psp import autodiff
from psp.autodiff import AdamState, FitRecord, adam_step, check_fraction, check_tau, masked_infonce
from psp.errors import ContractError, DataError, DimensionError, NumericError, ParameterError
from psp.graph import build_csr, check_csr

from oracles import (
    Tape,
    Tensor,
    add,
    backward,
    composite_infonce,
    cosine_sim_matrix,
    dropout,
    grad_check,
    log,
    matmul,
    mul,
    op_grad_cases,
    relu,
    scale,
    spmm,
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
    return sparse.eye_array(n, format="csr")


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
    s = sparse.csr_array(dense)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    g = rng.standard_normal((7, 3))
    with Tape() as tape:
        spmm(s, x)
    (gx,) = tape.records[-1].vjp(g)
    assert np.array_equal(gx, s.T.tocsr() @ g)
    np.testing.assert_allclose(gx, s.toarray().T @ g, rtol=0, atol=1e-12)


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


def test_dropout_p_zero_is_identity():
    m = rand(4, 4, 12)
    assert dropout(m, 0.0, seed=3, stream=0) is m
    assert autodiff.dropout_mask((4, 4), 0.0, 3, 0) is None


def test_dropout_survivor_fraction():
    m = Tensor(np.ones((100, 100)))
    out = dropout(m, 0.5, seed=5, stream=0)
    survivors = np.count_nonzero(out.data) / out.data.size
    assert abs(survivors - 0.5) < 0.03
    # survivors carry the inverted scale
    assert np.allclose(out.data[out.data != 0], 2.0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 70_001), (70_001, 1), (0, 4), (300, 128),
                                   (256, 256), (1024, 128), (3001, 128)])
def test_dropout_mask_is_one_full_draw_compared_with_p(shape):
    """Below, at, a multiple of and past the buffer of `_DROPOUT_DRAW` values."""
    for p, seed, stream in ((0.2, 3, 0), (0.5, 11, 1)):
        want = autodiff.seeded_rng(seed, stream).random(shape) >= p
        got = autodiff.dropout_mask(shape, p, seed, stream)
        assert got.dtype == bool and got.shape == shape
        np.testing.assert_array_equal(got, want)


def test_dropout_bad_probability():
    with pytest.raises(ParameterError):
        dropout(rand(2, 2), 1.0, seed=0, stream=0)
    with pytest.raises(ParameterError):
        dropout(rand(2, 2), -0.1, seed=0, stream=0)


def test_dropout_is_pure_in_seed():
    """The mask is a function of (seed, stream) alone, on a tape or off."""
    m = Tensor(rand(6, 6, 13).data, requires_grad=True)
    a = dropout(m, 0.4, seed=21, stream=0)
    with Tape():
        b = dropout(m, 0.4, seed=21, stream=0)
    assert np.array_equal(a.data, b.data)
    c = dropout(m, 0.4, seed=22, stream=0)
    d = dropout(m, 0.4, seed=21, stream=1)
    assert not np.array_equal(a.data, c.data) and not np.array_equal(a.data, d.data)


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
    ga = backward(tape, loss)[a]
    assert np.array_equal(ga[0], [0.0, 0.0]) and np.abs(ga[1]).max() < 1.0


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
    np.testing.assert_array_equal(backward(tape, loss)[x], np.ones((3, 4)))


def test_backward_quadratic_gives_x():
    x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    with Tape() as tape:
        loss = scale(total_sum(mul(x, x)), 0.5)
    np.testing.assert_allclose(backward(tape, loss)[x], x.data, rtol=1e-12)


def test_backward_requires_scalar_loss():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_twice_returns_equal_gradients():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = total_sum(scale(x, 2.0))
    first = backward(tape, loss)[x].copy()
    np.testing.assert_array_equal(backward(tape, loss)[x], first)
    np.testing.assert_array_equal(first, np.full((2, 2), 2.0))


def test_frozen_tensors_stay_gradless():
    x = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    c = Tensor(RNG.standard_normal((2, 2)))
    with Tape() as tape:
        loss = total_sum(mul(x, c))
    grads = backward(tape, loss)
    assert c not in grads and x in grads


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
    p = RNG.standard_normal((3, 3))
    before = p.copy()
    adam_step({"p": p}, {"p": np.zeros((3, 3))}, AdamState(lr=0.1, weight_decay=0.0))
    assert np.array_equal(p, before)


def test_adam_first_step_closed_form():
    p = np.zeros((1, 1))
    adam_step({"p": p}, {"p": np.ones((1, 1))}, AdamState(lr=0.1))
    # m_hat = v_hat = 1 on the first unit-gradient step
    assert p[0, 0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-12)


def test_adam_counter_semantics():
    p = np.zeros((2, 2))
    state = AdamState(lr=0.01)
    assert state.t == 0
    for _ in range(2):
        adam_step({"p": p}, {"p": np.ones((2, 2))}, state)
    assert state.t == 2


def test_adam_missing_grad_names_parameter():
    with pytest.raises(ContractError, match="prompt_weights"):
        adam_step({"prompt_weights": np.zeros((2, 2))}, {}, AdamState())


@pytest.mark.parametrize("grad", [1e200, np.inf])
def test_adam_refuses_a_non_finite_moment_naming_the_parameter(grad):
    # 1e200 squared overflows only the second moment, whose inf would make the update a silent 0
    p = np.zeros((2, 2))
    with pytest.raises(NumericError, match=re.escape(f"moment of parameter prompt_weights is "
                                                     f"non-finite, gradient max-abs {float(grad)}")):
        adam_step({"prompt_weights": p}, {"prompt_weights": np.full((2, 2), grad)}, AdamState(lr=0.1))
    assert np.array_equal(p, np.zeros((2, 2)))


@pytest.mark.parametrize("steps_before", [0, 1])
def test_adam_refusal_leaves_parameters_moments_and_counter_as_they_were(steps_before):
    params = {"p": np.zeros((2, 2)), "q": np.zeros((2, 2))}
    state = AdamState(lr=0.1)
    for _ in range(steps_before):
        adam_step(params, {"p": np.ones((2, 2)), "q": np.ones((2, 2))}, state)
    before = [a.copy() for a in [*params.values(), *state.m.values(), *state.v.values()]]
    with pytest.raises(NumericError, match="moment of parameter q is non-finite"):
        adam_step(params, {"p": np.ones((2, 2)), "q": np.full((2, 2), 1e200)}, state)
    assert state.t == steps_before and len(state.m) == len(state.v) == 2 * steps_before
    for got, want in zip([*params.values(), *state.m.values(), *state.v.values()], before):
        np.testing.assert_array_equal(got, want)


def test_adam_pairs_moments_by_name_whatever_the_dict_order():
    """Two same-shape parameters with unequal gradients: a second step that
    lists them the other way round moves each exactly as the in-order step."""
    grads = {"a": np.full((2, 2), 1.0), "b": np.full((2, 2), -3.0)}
    in_order, reordered = ({"a": np.zeros((2, 2)), "b": np.zeros((2, 2))} for _ in range(2))
    states = AdamState(lr=0.1), AdamState(lr=0.1)
    for params, state in zip((in_order, reordered), states):
        adam_step(params, grads, state)
    adam_step(in_order, {"a": 2.0 * grads["a"], "b": 0.5 * grads["b"]}, states[0])
    adam_step({"b": reordered["b"], "a": reordered["a"]}, {"b": 0.5 * grads["b"], "a": 2.0 * grads["a"]},
              states[1])
    for name in ("a", "b"):
        np.testing.assert_array_equal(reordered[name], in_order[name])
        np.testing.assert_array_equal(states[1].m[name], states[0].m[name])
        np.testing.assert_array_equal(states[1].v[name], states[0].v[name])


@pytest.mark.parametrize("names", [("a", "c"), ("a",), ("a", "b", "c")])
def test_adam_refuses_another_parameter_set_leaving_everything_as_it_was(names):
    state = AdamState(lr=0.1)
    adam_step({"a": np.zeros((2, 2)), "b": np.zeros((2, 2))}, {"a": np.ones((2, 2)), "b": np.ones((2, 2))}, state)
    params = {name: np.full((2, 2), 7.0) for name in names}
    moments = {name: (state.m[name].copy(), state.v[name].copy()) for name in ("a", "b")}
    with pytest.raises(ContractError, match=re.escape(f"tracks parameters ['a', 'b'], got {sorted(names)}")):
        adam_step(params, {name: np.ones((2, 2)) for name in names}, state)
    assert state.t == 1 and list(state.m) == list(state.v) == ["a", "b"]
    for name, (m, v) in moments.items():
        np.testing.assert_array_equal(state.m[name], m)
        np.testing.assert_array_equal(state.v[name], v)
    for p in params.values():
        np.testing.assert_array_equal(p, np.full((2, 2), 7.0))


def test_adam_refuses_grads_that_lack_a_parameter():
    params = {"p": np.zeros((2, 2)), "q": np.zeros((2, 2))}
    state = AdamState(lr=0.1)
    with pytest.raises(ContractError, match="parameter q has no gradient"):
        adam_step(params, {"p": np.ones((2, 2))}, state)
    assert state.t == 0 and np.array_equal(params["p"], np.zeros((2, 2)))


def test_adam_grads_cleared_after_step():
    """No gradient outlives a step, taken or refused, for the next sweep to
    add to: not even that of the parameter a NumericError stops at."""
    p, q = (Tensor(np.zeros((1, 1)), requires_grad=True, name=n) for n in ("p", "q"))
    with Tape() as tape:
        loss = add(p, scale(q, 1e200))

    def named():
        grads = backward(tape, loss)
        return {t.name: grads[t] for t in (p, q)}

    adam_step({"p": p.data}, named(), AdamState(lr=0.1))
    with pytest.raises(NumericError, match="parameter q"):
        adam_step({"p": p.data, "q": q.data}, named(), AdamState(lr=0.1))
    grads = named()
    np.testing.assert_array_equal(grads["p"], [[1.0]])
    np.testing.assert_array_equal(grads["q"], [[1e200]])


def test_adam_decoupled_weight_decay():
    p = np.full((1, 1), 2.0)
    adam_step({"p": p}, {"p": np.zeros((1, 1))}, AdamState(lr=0.1, weight_decay=0.5))
    assert p[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_fit_record_step_owns_both_refusals():
    """A non-finite loss is refused before the block that forms the gradients
    runs; Adam's refusal gains the epoch and the loss; only a taken step
    records its loss."""
    record, p, state, ran = FitRecord("toy"), {"p": np.zeros((1, 1))}, AdamState(lr=0.1), []
    with record.step(0, 1.5, p, state) as grads:
        grads["p"] = np.ones((1, 1))
    with pytest.raises(NumericError, match=r"^toy loss became non-finite at epoch 1, last finite loss 1\.5$"):
        with record.step(1, np.nan, p, state):
            ran.append("block")
    with pytest.raises(NumericError, match=r"^adam_step: .* gradient max-abs 1e\+200 at epoch 2, loss 0\.5$"):
        with record.step(2, 0.5, p, state) as grads:
            grads["p"] = np.full((1, 1), 1e200)
    assert ran == [] and record.losses == [1.5] and state.t == 1
    assert record.stop == "epochs" and record.best_epoch == -1 and record.best_proto is None


@settings(max_examples=20, deadline=None)
@given(finite_matrices)
def test_adam_zero_grad_identity_property(values):
    p = values.copy()
    adam_step({"p": p}, {"p": np.zeros_like(values)}, AdamState(lr=0.3, weight_decay=0.0))
    assert np.array_equal(p, values)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_exact_linear():
    x = Tensor(RNG.standard_normal((3, 3)))
    assert grad_check(total_sum, x) < 1e-10


def test_grad_check_detects_wrong_gradients():
    def f_bad(t):
        # forward value 2*sum(t), but only half of it is differentiated
        return add(total_sum(t), total_sum(Tensor(t.data)))

    x = Tensor(RNG.standard_normal((2, 2)))
    assert grad_check(f_bad, x) > 1e-2


def test_grad_check_flags_non_finite():
    from psp.errors import NumericError

    x = Tensor(np.full((1, 1), -1.0))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        grad_check(lambda t: log(t), x)


# ---------------------------------------------------------------------------
# every differentiable op passes the finite-difference oracle


@pytest.mark.parametrize("name", sorted(op_grad_cases()))
def test_each_op_passes_grad_check(name):
    f, x = op_grad_cases()[name]
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


def _composite_value_and_grads(a, b, positives, tau):
    za, zb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = composite_infonce(za, zb, positives, tau)
    grads = backward(tape, loss)
    return loss.item(), grads[za], grads[zb]


# (anchor rows, candidate rows, block rows, diagonal positives, zeroed rows)
INFONCE_CASES = {
    "random": (37, 37, 8, True, ()),
    "zero_rows": (37, 37, 8, True, (0, 5, 36)),
    "block_multiple": (32, 32, 8, True, ()),
    "n_below_block": (6, 6, None, True, ()),
    "prompt_labels": (23, 4, 5, False, (3,)),
}


@pytest.mark.parametrize("case", sorted(INFONCE_CASES))
def test_masked_infonce_matches_composite(case, monkeypatch):
    m, n, block, diagonal, zero_rows = INFONCE_CASES[case]
    if block is not None:
        monkeypatch.setattr(autodiff, "_INFONCE_BLOCK_ROWS", block)
    rng = np.random.default_rng(len(case))
    a, b = rng.standard_normal((m, 6)), rng.standard_normal((n, 6))
    a[list(zero_rows)] = 0.0
    b[[r for r in zero_rows if r < n]] = 0.0
    positives = np.arange(m) if diagonal else rng.integers(0, n, size=m)
    fused = masked_infonce(a, b, positives, 0.5)
    oracle = _composite_value_and_grads(a, b, positives, 0.5)
    assert abs(fused[0] - oracle[0]) <= 1e-12
    for got, want in zip(fused[1:], oracle[1:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_masked_infonce_grad_check_both_inputs(monkeypatch):
    monkeypatch.setattr(autodiff, "_INFONCE_BLOCK_ROWS", 2)
    rng = np.random.default_rng(31)
    z1, z2 = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    positives = [2, 0, 3, 3, 1]
    assert grad_check(lambda t: masked_infonce(t, z2, positives, 0.7)[:2], z1) < 1e-4
    assert grad_check(lambda t: masked_infonce(z1, t, positives, 0.7)[::2], z2) < 1e-4


@pytest.mark.parametrize("s1,s2", [(1e3, 1.0), (1.0, 1e3), (1e-9, 1.0), (1.0, 1e-9),
                                   (1e-7, 1e-6)])
def test_masked_infonce_cosines_are_exact_for_any_nonzero_row(s1, s2):
    rng = np.random.default_rng(41)
    a, b = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))

    def loss(x, y):
        return masked_infonce(x, y, np.arange(9), 0.5)[0]

    assert abs(loss(a * s1, b * s2) - loss(a, b)) <= 1e-12


def test_backward_twice_over_infonce_returns_equal_gradients():
    """The oracle InfoNCE, its first view through a matmul."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((7, 3)))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
    with Tape() as tape:
        loss = composite_infonce(matmul(x, w), z2, np.arange(7), 0.5)
    first = {t: g.copy() for t, g in backward(tape, loss).items()}
    second = backward(tape, loss)
    assert set(first) == set(second) == {w, z2}
    for t in (w, z2):
        np.testing.assert_array_equal(second[t], first[t])


def test_masked_infonce_memory_is_row_blocked(traced_peak):
    n = 4000
    rng = np.random.default_rng(5)
    z1, z2 = rng.standard_normal((n, 16)), rng.standard_normal((n, 16))
    (loss, g1, g2), peak = traced_peak(lambda: masked_infonce(z1, z2, np.arange(n), 0.5), n, n)
    assert np.isfinite(loss) and g1.shape == g2.shape == (n, 16)
    assert peak < 0.25, f"peak {peak:.3f} n x n arrays"


def _unit_rows(x):
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norm > 0, x / np.maximum(norm, 1e-300), 0.0)


def _infonce_run(a, b, overwrite):
    """Loss, gradients and inputs of one masked_infonce call on copies of a, b."""
    z1, z2 = a.copy(), b.copy()
    loss, g1, g2 = masked_infonce(z1, z2, np.arange(len(a)), 0.5, overwrite)
    return loss, (g1.copy(), g2.copy()), z1, z2


def _infonce_inputs(cols):
    rng = np.random.default_rng(53)
    a, b = rng.standard_normal((300, cols)), rng.standard_normal((300, cols))
    a[4] = b[7] = 0.0  # a zero row stays zero
    return a, b


@pytest.fixture
def infonce_inputs():
    return _infonce_inputs(6)


def test_masked_infonce_default_leaves_its_inputs_untouched(infonce_inputs):
    a, b = infonce_inputs
    _, _, z1, z2 = _infonce_run(a, b, False)
    np.testing.assert_array_equal(z1, a)
    np.testing.assert_array_equal(z2, b)


def test_masked_infonce_overwrite_inputs_gives_the_same_bits(infonce_inputs):
    a, b = infonce_inputs
    loss, grads, _, _ = _infonce_run(a, b, False)
    loss_in_place, grads_in_place, z1, z2 = _infonce_run(a, b, True)
    assert loss_in_place == loss
    for got, want in zip(grads_in_place, grads):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(z1, grads[0])  # z1 holds its gradient
    np.testing.assert_allclose(z2, _unit_rows(b), rtol=1e-15, atol=0)


@pytest.mark.parametrize("cols", [1, 6])
@pytest.mark.parametrize("gb_rows", [2, 7, 299, 300])
def test_masked_infonce_gradient_chunks_give_the_single_products_bits(cols, gb_rows, monkeypatch):
    """299 leaves one row over, which joins the chunk before it: a one-row
    product, like a one-column one, is a gemv with other last bits."""
    a, b = _infonce_inputs(cols)
    _, whole, _, _ = _infonce_run(a, b, False)
    monkeypatch.setattr(autodiff, "_INFONCE_GB_ROWS", gb_rows)
    _, chunked, _, _ = _infonce_run(a, b, False)
    for got, want in zip(chunked, whole):
        np.testing.assert_array_equal(got, want)


def test_masked_infonce_overwrite_refuses_inputs_that_share_memory():
    base = np.random.default_rng(59).standard_normal((6, 4))
    before = base.copy()
    for z1, z2 in ((base, base), (base[:4], base[2:])):
        with pytest.raises(ContractError, match="overwrite_inputs needs inputs that share no memory"):
            masked_infonce(z1, z2, np.arange(len(z1)), 0.5, overwrite_inputs=True)
    np.testing.assert_array_equal(base, before)


def test_masked_infonce_rejects_bad_positives():
    z = rand(3, 2).data
    with pytest.raises(ContractError):
        masked_infonce(z, z, [0, 1], 1.0)
    with pytest.raises(DataError):
        masked_infonce(z, z, [0, 1, 3], 1.0)
    with pytest.raises(ContractError):
        masked_infonce(z, rand(1, 2).data, [0, 0, 0], 1.0)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
def test_masked_infonce_rejects_bad_tau(tau):
    z = rand(3, 2).data
    with pytest.raises(ParameterError, match="tau must be a positive finite number"):
        masked_infonce(z, z, [0, 1, 2], tau)


def test_check_tau_refuses_a_tau_with_an_infinite_reciprocal():
    with pytest.raises(ParameterError, match="finite reciprocal, got 5e-324"):
        check_tau(5e-324)
    assert check_tau(1e-308) == 1e-308


@pytest.mark.parametrize("value,open_top,refused", [
    (0.0, True, False), (0.999, True, False), (1.0, True, True), (1.0, False, False),
    (-0.1, False, True), (1.5, False, True), (np.nan, True, True), (np.nan, False, True)])
def test_check_fraction_states_both_unit_ranges(value, open_top, refused):
    if refused:
        with pytest.raises(ParameterError, match=re.escape(
                f"ratio must lie in [0, 1{')' if open_top else ']'}, got {value}")):
            check_fraction("ratio", value, open_top)
    else:
        assert check_fraction("ratio", value, open_top) == value


# ---------------------------------------------------------------------------
# the oracle tape is lean: no copies, no gradients nobody asked for, no aliased leaf grads


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
    grads = backward(tape, loss)
    assert not np.shares_memory(grads[a], grads[b])


def test_backward_frees_each_gradient_after_its_vjp(traced_peak):
    x = Tensor(RNG.standard_normal((128, 1024)), requires_grad=True)  # 1 MiB
    c = Tensor(np.full((128, 1024), 0.999))
    with Tape() as tape:
        h = x
        for _ in range(31):
            h = mul(h, c)
        loss = total_sum(h)
    assert len(tape.records) == 32
    grads, peak = traced_peak(lambda: backward(tape, loss), 128, 1024)
    np.testing.assert_allclose(grads[x], 0.999 ** 31, rtol=1e-12)
    assert peak < 3.8, f"peak {peak:.1f} MiB"  # all 32 gradients at once: 33 MB


def test_backward_fills_only_leaf_grads():
    x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
    with Tape() as tape:
        h = matmul(x, w)
        r = relu(h)
        loss = total_sum(r)
    grads = backward(tape, loss)
    assert set(grads) == {x, w}
    gate = 1.0 * (h.data > 0)
    np.testing.assert_array_equal(grads[x], gate @ w.data.T)
    np.testing.assert_array_equal(grads[w], x.data.T @ gate)
    leaf_loss = Tensor([[2.0]], requires_grad=True)
    assert list(backward(Tape(), leaf_loss)) == [leaf_loss]
    np.testing.assert_array_equal(backward(Tape(), leaf_loss)[leaf_loss], [[1.0]])


def test_backward_returns_only_the_reached_trainable_leaves():
    """Frozen inputs, produced tensors and leaves off the loss's path are absent."""
    x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    frozen = Tensor(RNG.standard_normal((2, 2)))
    unreached = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        h = matmul(x, frozen)
        side = relu(unreached)
        loss = total_sum(relu(h))
    grads = backward(tape, loss)
    assert isinstance(grads, dict) and list(grads) == [x]
    assert all(t not in grads for t in (frozen, unreached, h, side, loss))


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
    grads = backward(tape, loss)
    for t, other in ((a, b), (b, a)):
        # d(sum)/dt sums the other side's (or ones') broadcast copies back to t's shape
        dense = np.ones(out.shape) if op is add else np.broadcast_to(other.data, out.shape)
        want = dense.sum(axis=tuple(i for i in (0, 1) if t.shape[i] != out.shape[i]),
                         keepdims=True)
        np.testing.assert_allclose(grads[t], want, rtol=1e-12)


def test_tensor_constructor_copies_its_argument():
    arr = np.ones((2, 2))
    t = Tensor(arr)
    arr[0, 0] = 5.0
    assert t.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# check_csr invariants


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
        check_csr((values, indices, offsets), shape=(2, 2))


def _well_formed(values, indices, offsets, cols) -> bool:
    """The rule check_csr enforces on a raw triple, spelled out."""
    if offsets[0] != 0 or offsets[-1] != len(indices) or len(values) != len(indices):
        return False
    if any(hi < lo for lo, hi in zip(offsets, offsets[1:])):
        return False
    rows = [indices[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    return all(0 <= c < cols for c in indices) and all(
        all(a < b for a, b in zip(row, row[1:])) for row in rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4),
       st.lists(st.integers(-1, 5), max_size=8), st.lists(st.integers(-1, 8), min_size=1, max_size=6),
       st.integers(-1, 1), st.booleans())
def test_check_csr_accepts_exactly_the_well_formed_triples(rows, cols, indices, offsets, extra, tidy):
    offsets = offsets[:rows + 1] + [len(indices)] * (rows + 1 - len(offsets))  # rows + 1 offsets
    if tidy and rows:  # offsets from 0 to the entry count, non-decreasing, each row sorted
        offsets = [0] + sorted(min(max(o, 0), len(indices)) for o in offsets[1:-1]) + [len(indices)]
        indices = [c for lo, hi in zip(offsets, offsets[1:]) for c in sorted(indices[lo:hi])]
    values = [1.0] * max(0, len(indices) + extra)
    if _well_formed(values, indices, offsets, cols):
        got = check_csr((values, indices, offsets), shape=(rows, cols)).toarray()
        want = np.zeros((rows, cols))
        for r, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            want[r, indices[lo:hi]] = 1.0
        np.testing.assert_array_equal(got, want)
    else:
        with pytest.raises(DataError):
            check_csr((values, indices, offsets), shape=(rows, cols))


def test_csr_identity_roundtrip():
    eye = check_csr(identity(4))
    np.testing.assert_array_equal(eye.toarray(), np.eye(4))
    assert eye.nnz == 4 and eye.dtype == np.float64

